"""Names the offline benchmark (perfbench/) imports from the package or
swaps at run time. The traced CLI run replaces the first group with timing
wrappers by module attribute, so each must stay a module-level callable
that the code looks up at call time."""
import inspect

import numpy as np
import pytest

import ocds.cli
import ocds.kernels
import ocds.kods
import ocds.primal
from ocds.solver import SolverConfig, minimize

HOOKS = [
    (ocds.cli, "load_csv"),
    (ocds.cli, "load_model"),
    (ocds.cli, "kods_scores_batch"),
    (ocds.cli, "primal_scores_batch"),
    (ocds.cli, "classify"),
    (ocds.cli, "anomaly_score"),
    (ocds.cli, "_best_f1"),
    (ocds.kods, "gram"),
    (ocds.kods, "kods_feasibility"),
    (ocds.kods, "build_kods_problem"),
    (ocds.primal, "frame_feasibility"),
    (ocds.primal, "build_primal_problem"),
]


@pytest.mark.parametrize("module, name", HOOKS, ids=[f"{m.__name__}.{n}" for m, n in HOOKS])
def test_hook_is_a_module_callable(module, name):
    assert callable(getattr(module, name, None))


def test_kods_batch_scoring_looks_up_gram_at_call_time(monkeypatch):
    # the traced CLI times the cross-Gram by swapping ocds.kods.gram
    rng = np.random.default_rng(0)
    model = ocds.kods.KodsModel(
        duals=ocds.kods.DualVars(y=rng.standard_normal((1, 8)), z=rng.standard_normal((1, 8))),
        kernel=ocds.kernels.KernelSpec(family="rbf", sigma=0.5),
        support=rng.standard_normal((8, 2)),
        b1=np.array([0.1]), b2=np.array([-0.1]),
        eta_effective=0.3, jitter=0.0, normalization=False,
        hyper=ocds.kods.KodsHyper(k=1, normalize=False),
    )
    x = rng.standard_normal((30, 2))
    want = ocds.kods.kods_scores_batch(model, x)
    calls = []
    gram = ocds.kods.gram

    def counting_gram(*args, **kwargs):
        calls.append(None)
        return gram(*args, **kwargs)

    monkeypatch.setattr(ocds.kods, "gram", counting_gram)
    got = ocds.kods.kods_scores_batch(model, x)
    assert len(calls) >= 1
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_best_f1_signature():
    params = list(inspect.signature(ocds.cli._best_f1).parameters)
    assert params == ["s1", "s2", "eta", "truth"]


def test_kods_problem_keeps_the_stepwise_rebuild_contract():
    # The traced benchmark fit repeats kods_train step by step: it starts
    # from factors[0].polar, hands minimize the tuple (y0, z0) and reads
    # manifold.feasibility on the tuple it gets back.
    x = np.random.default_rng(3).standard_normal((40, 2))
    kernel = ocds.kernels.KernelSpec(family="rbf", sigma=0.5)
    hyper = ocds.kods.KodsHyper(k=2)
    cfg = SolverConfig(max_iters=30)
    model, report = ocds.kods.kods_train(x, kernel, hyper, cfg, seed=4)

    gram_pd, _ = ocds.kernels.ensure_pd(ocds.kernels.gram(kernel, model.support))
    manifold, objective = ocds.kods.build_kods_problem(gram_pd, hyper)
    factor = manifold.factors[0]
    rng = np.random.default_rng(4)
    base = np.full((2, 40), 1.0 / 80)
    y0 = factor.polar(base * (1.0 + 1e-3 * rng.standard_normal(base.shape)))
    z0 = factor.polar(base * (1.0 + 1e-3 * rng.standard_normal(base.shape)))
    point, again = minimize(objective, manifold, (y0, z0), cfg)

    assert isinstance(point, tuple) and len(point) == 2
    assert point[0].tobytes() == model.duals.y.tobytes()
    assert point[1].tobytes() == model.duals.z.tobytes()
    assert again.objective_trace == report.objective_trace
    assert manifold.feasibility((point[0], point[1])) == ocds.kods.kods_feasibility(model)
