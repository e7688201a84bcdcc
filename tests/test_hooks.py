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
