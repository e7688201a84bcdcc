"""Complementary subspace frames on a Gaussian blob.

Fits the orthonormal-frame model so the data sits between the positive
half-spaces of one frame and the negative half-spaces of the other, then
sweeps the decision margin to show how the accepted count shrinks.
"""
import numpy as np

from ocds.data import synth
from ocds.inference import classify
from ocds.primal import GodsHyper, primal_scores_batch, train_primal


def main():
    x = synth("gaussian", 100, seed=0, d=2, mean=2.0, cov=0.25).features
    hyper = GodsHyper(variant="gods", k=2, nu=20.0)
    model, report = train_primal(x, hyper, seed=0)
    print(f"converged={report.converged} after {report.iterations} iterations "
          f"(stop: {report.stop_reason})")

    fr = model.frames
    print("\nlower frame (columns are hyperplane normals):")
    print(np.round(fr.w1, 4), "biases", np.round(fr.b1, 4))
    print("upper frame:")
    print(np.round(fr.w2, 4), "biases", np.round(fr.b2, 4))
    print("frame orthonormality residual:",
          f"{np.linalg.norm(fr.w1.T @ fr.w1 - np.eye(2)):.2e}")

    s1, s2 = primal_scores_batch(model, x)
    print(f"\nscore bands on the training data: "
          f"s1 in [{s1.min():.3f}, {s1.max():.3f}], "
          f"s2 in [{s2.min():.3f}, {s2.max():.3f}]")
    sandwiched = int(np.sum(s1 > s2))
    print(f"points strictly between the frames: {sandwiched}/100")

    print("\nmargin sweep (training data accepted at each threshold):")
    for margin in (0.1, 0.2, 0.3, 0.4, 0.5):
        kept = sum(classify(a, b, margin) for a, b in zip(s1, s2))
        bar = "#" * (kept // 4)
        print(f"  eta={margin:.1f}  {kept:3d}/100  {bar}")


if __name__ == "__main__":
    main()
