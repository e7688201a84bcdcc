"""The one rule for scalar parameters: a real number that is not a bool,
finite as a float and within its bound, or the site's own input error."""
import math
from dataclasses import replace

import numpy as np
import pytest

from ocds import (GodsHyper, KernelSpec, KodsHyper, SolverConfig, kods_train, synth,
                  train_primal)
from ocds.cli import main
from ocds.data import Dataset, one_class_split
from ocds.errors import DataError, DomainError
from ocds.inference import calibrate_eta
from ocds.primal import init_frames

CFG = SolverConfig(max_iters=5)
ROWS = synth("gaussian", 30, seed=1, d=3, mean=1.0, cov=0.3).features


@pytest.fixture(scope="module")
def gods_model():
    return train_primal(ROWS, GodsHyper(k=2), CFG, seed=0)[0]


@pytest.fixture(scope="module")
def kods_model():
    ring = synth("ring", 30, seed=1).features
    return kods_train(ring, KernelSpec("rbf", sigma=0.3), KodsHyper(k=1, normalize=False),
                      CFG, seed=0)[0]


def _split(ratio):
    labels = np.array(["t"] * 10 + ["o"] * 4, dtype=object)
    return one_class_split(Dataset(features=np.arange(14.0)[:, None], labels=labels), "t",
                           ratio=ratio)


# site -> (error type, the parameter's name in the message, call with value v).
# Calls that need a trained model take it as their second argument.
SITES = {
    "GodsHyper.k": (DomainError, "k", lambda v, m: GodsHyper(k=v)),
    "GodsHyper.eta": (DomainError, "eta", lambda v, m: GodsHyper(eta=v)),
    "GodsHyper.lam": (DomainError, "lam", lambda v, m: GodsHyper(lam=v)),
    "GodsHyper.nu": (DomainError, "nu", lambda v, m: GodsHyper(nu=v)),
    "GodsHyper.p_norm": (DomainError, "p_norm", lambda v, m: GodsHyper(p_norm=v)),
    "KodsHyper.k": (DomainError, "k", lambda v, m: KodsHyper(k=v)),
    "KodsHyper.eta": (DomainError, "eta", lambda v, m: KodsHyper(eta=v)),
    "KodsHyper.lam": (DomainError, "lam", lambda v, m: KodsHyper(lam=v)),
    "TrainedPrimalModel.eta_effective": (
        DomainError, "eta_effective", lambda v, m: replace(m["gods"], eta_effective=v)),
    "KodsModel.eta_effective": (
        DomainError, "eta_effective", lambda v, m: replace(m["kods"], eta_effective=v)),
    "KodsModel.jitter": (DomainError, "jitter", lambda v, m: replace(m["kods"], jitter=v)),
    "KernelSpec.sigma": (DomainError, "sigma", lambda v, m: KernelSpec("rbf", sigma=v)),
    "KernelSpec.degree": (
        DomainError, "degree", lambda v, m: KernelSpec("polynomial", degree=v)),
    "KernelSpec.offset": (
        DomainError, "offset", lambda v, m: KernelSpec("polynomial", offset=v)),
    "SolverConfig.max_iters": (DomainError, "max_iters", lambda v, m: SolverConfig(max_iters=v)),
    "SolverConfig.grad_tol": (DomainError, "grad_tol", lambda v, m: SolverConfig(grad_tol=v)),
    "calibrate_eta.eta": (
        DomainError, "eta", lambda v, m: calibrate_eta([0.1, 0.5], [-0.5, -0.1], v)),
    "init_frames.k": (DomainError, "k", lambda v, m: init_frames(ROWS, v)),
    "synth.n": (DataError, "n", lambda v, m: synth("ring", v)),
    "synth.d": (DataError, "d", lambda v, m: synth("gaussian", 5, d=v)),
    "synth.cov": (DataError, "cov|variance", lambda v, m: synth("gaussian", 5, cov=v)),
    "synth.r_in": (DataError, "r_in", lambda v, m: synth("ring", 5, r_in=v)),
    "synth.r_out": (DataError, "r_out", lambda v, m: synth("ring", 5, r_out=v)),
    "synth.height": (DataError, "height", lambda v, m: synth("ring3d", 5, height=v)),
    "one_class_split.ratio": (DataError, "ratio", lambda v, m: _split(v)),
    "synth.mean": (DataError, "mean", lambda v, m: synth("gaussian", 5, mean=v)),
}

# Every seed is read by the rule as an integer >= 0, also where it is not
# drawn from (init_frames on enough rows, train_primal through it).
SEED_SITES = {
    "synth.seed": (DataError, lambda v: synth("ring", 5, seed=v)),
    "one_class_split.seed": (DataError, lambda v: one_class_split(
        Dataset(features=np.zeros((4, 1)), labels=np.array(["t"] * 4, dtype=object)), "t",
        seed=v)),
    "train_primal.seed": (DomainError, lambda v: train_primal(ROWS, GodsHyper(k=2), CFG, seed=v)),
    "init_frames.seed": (DomainError, lambda v: init_frames(ROWS, 1, seed=v)),
    "kods_train.seed": (
        DomainError, lambda v: kods_train(ROWS, KernelSpec("rbf"), KodsHyper(k=1), CFG, seed=v)),
}
SITES.update({site: (error, "seed", lambda v, m, call=call: call(v))
              for site, (error, call) in SEED_SITES.items()})

BAD_VALUES = {"None": None, "str": "1", "bool": True, "nan": math.nan, "inf": math.inf,
              "-inf": -math.inf, "huge_int": 10**400}


@pytest.mark.parametrize("value", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
@pytest.mark.parametrize("site", list(SITES))
def test_a_bad_scalar_raises_the_sites_own_error(gods_model, kods_model, site, value):
    error, name, call = SITES[site]
    models = {"gods": gods_model, "kods": kods_model}
    with pytest.raises(error, match=rf"\b({name})\b") as caught:
        call(value, models)
    assert type(caught.value) is error


@pytest.mark.parametrize("value", [-1, 1.5], ids=["negative", "fraction"])
@pytest.mark.parametrize("site", list(SEED_SITES))
def test_a_negative_or_fractional_seed_raises_the_sites_own_error(site, value):
    error, call = SEED_SITES[site]
    with pytest.raises(error, match=r"seed must be an integer >= 0") as caught:
        call(value)
    assert type(caught.value) is error


def test_a_numpy_integer_seed_draws_the_same_numbers():
    a, b = synth("ring", 6, seed=np.int64(3)), synth("ring", 6, seed=3)
    np.testing.assert_array_equal(a.features, b.features)


@pytest.mark.parametrize("mean", [[True, False], ["1", "2"], [1 + 2j, 0j]],
                         ids=["bools", "strings", "complex"])
def test_a_gaussian_mean_vector_must_hold_real_numbers(mean):
    with pytest.raises(DataError, match="gaussian mean must be a real number or a vector"):
        synth("gaussian", 5, d=2, mean=mean)


def test_integer_and_float_gaussian_means_draw_the_same_rows():
    a = synth("gaussian", 6, seed=4, d=2, mean=[1, -2], cov=0.5).features
    b = synth("gaussian", 6, seed=4, d=2, mean=np.array([1.0, -2.0]), cov=0.5).features
    c = synth("gaussian", 6, seed=4, d=2, mean=np.float64(2.0), cov=0.5).features
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(c, synth("gaussian", 6, seed=4, d=2, mean=2, cov=0.5).features)


def test_an_integer_beyond_the_int_to_str_limit_is_named_without_its_digits():
    with pytest.raises(DomainError, match="k must be an integer >= 1, got a number too large"):
        KodsHyper(k=10**5000)


def test_whole_floats_stay_accepted_for_d_and_degree():
    a, b = synth("gaussian", 6, seed=2, d=3.0), synth("gaussian", 6, seed=2, d=3)
    np.testing.assert_array_equal(a.features, b.features)
    spec = KernelSpec("polynomial", degree=3.0)
    assert spec.degree == 3.0 and isinstance(spec.degree, float)


def test_numpy_scalars_stay_accepted_for_k_and_eta():
    hyper = GodsHyper(k=np.int64(2), eta=np.float64(0.25))
    assert hyper.k == 2 and hyper.eta == 0.25
    assert KodsHyper(k=np.int32(1), eta=np.float32(0.5)).eta == np.float32(0.5)
    frames = init_frames(ROWS, np.int64(2))
    assert frames.w1.shape == (3, 2)
    scores = [0.1, 0.12, 0.5, 0.52], [-0.5, -0.48, -0.12, -0.1]
    assert calibrate_eta(*scores, np.float64(0.3)) == calibrate_eta(*scores, 0.3)


@pytest.mark.parametrize("flags", [
    ["--kind", "ring", "--r-out", "inf"],
    ["--kind", "ring3d", "--height", "nan"],
    ["--kind", "ring3d", "--height", "inf"],
], ids=["r-out-inf", "height-nan", "height-inf"])
def test_synth_with_a_non_finite_flag_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    rc = main(["synth", *flags, "--n", "10", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input error:" in err and "Traceback" not in err
    assert not out.exists()
