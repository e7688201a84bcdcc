"""Names the offline benchmark (perfbench/) imports from the package or
swaps at run time. The traced CLI run replaces the first group with timing
wrappers by module attribute, so each must stay a module-level callable
that the code looks up at call time."""
import inspect

import pytest

import ocds.cli
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


def test_best_f1_signature():
    params = list(inspect.signature(ocds.cli._best_f1).parameters)
    assert params == ["s1", "s2", "eta", "truth"]
