"""Same values, same model: fits and scores do not depend on the memory
layout of the rows they are given."""
import numpy as np
import pytest

from ocds.data import synth
from ocds.kernels import KernelSpec
from ocds.kods import KodsHyper, kods_scores_batch, kods_train
from ocds.persistence import save_model
from ocds.primal import VARIANTS, GodsHyper, primal_scores_batch, train_primal
from ocds.solver import SolverConfig

CFG = SolverConfig(max_iters=60)


def _layouts(x):
    """C-ordered, Fortran-ordered and strided copies of the same values."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    copies = {"C": x.copy(), "F": np.asfortranarray(x), "strided": wide[:, ::2]}
    assert not copies["F"].flags.c_contiguous and not copies["strided"].flags.c_contiguous
    return copies


def _assert_layout_free(train, score, x, query, tmp_path):
    files, scores = {}, {}
    for (name, rows), q in zip(_layouts(x).items(), _layouts(query).values()):
        model, _ = train(rows)
        save_model(model, tmp_path / f"{name}.json")
        files[name] = (tmp_path / f"{name}.json").read_bytes()
        scores[name] = b"".join(s.tobytes() for s in score(model, q))
    assert files["F"] == files["C"] and files["strided"] == files["C"]
    assert scores["F"] == scores["C"] and scores["strided"] == scores["C"]


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_primal_fits_and_scores_ignore_the_row_layout(variant, normalize, tmp_path):
    x = synth("gaussian", 300, seed=3, d=12, mean=2.0).features
    query = synth("gaussian", 200, seed=4, d=12, mean=1.5).features
    hyper = GodsHyper(variant=variant, k=1 if variant == "bods" else 3, normalize=normalize)
    _assert_layout_free(lambda rows: train_primal(rows, hyper, cfg=CFG, seed=0),
                        primal_scores_batch, x, query, tmp_path)


def test_kods_fits_and_scores_ignore_the_row_layout(tmp_path):
    x = synth("gaussian", 120, seed=5, d=12, mean=1.0).features
    query = synth("gaussian", 80, seed=6, d=12).features
    kernel = KernelSpec(family="rbf", sigma=0.8)
    hyper = KodsHyper(k=2, normalize=True)
    _assert_layout_free(lambda rows: kods_train(rows, kernel, hyper, cfg=CFG, seed=0),
                        kods_scores_batch, x, query, tmp_path)
