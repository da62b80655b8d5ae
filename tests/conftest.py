"""Shared test oracles."""

import numpy as np
import pytest

from qpattn import circuit


def _parameter_shift_backward(Q, K, params, depth, d_scores):
    # The pairwise reduction of `circuit.score_grad_batch` over every
    # (query, key, dimension) triple: the backward of the quantum scorers
    # written out with parameter-shift partials.
    Q = np.asarray(Q, dtype=float)
    K = np.asarray(K, dtype=float)
    qs, ks = Q[..., :, None, :depth], K[..., None, :, :depth]
    _, d_q, d_k, d_params = circuit.score_grad_batch(qs, ks, params)
    w = np.asarray(d_scores)[..., None]
    dQ = np.zeros_like(Q)
    dK = np.zeros_like(K)
    dQ[..., :depth] = (w * d_q).sum(axis=-2)
    dK[..., :depth] = (w * d_k).sum(axis=-3)
    return dQ, dK, (d_params * w[None]).reshape(5, -1).sum(axis=1)


@pytest.fixture(scope="session")
def parameter_shift_backward():
    """Reference for `scorers.quantum_scores_backward`, same signature."""
    return _parameter_shift_backward


def within_oracle_bound(got, ref) -> bool:
    """|got - ref| <= 1e-10 * max(1, max|ref|), the Fourier-vs-parameter-shift bound."""
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and np.abs(got - ref).max(initial=0.0) <= 1e-10 * max(
        1.0, np.abs(ref).max(initial=0.0)
    )


@pytest.fixture(scope="session")
def oracle_bound():
    return within_oracle_bound


def _edit_checkpoint(path, edit):
    # Rewrite an .npz checkpoint after ``edit`` changed its {key: array} payload.
    with np.load(path) as blob:
        payload = {k: blob[k] for k in blob.files}
    edit(payload)
    with open(path, "wb") as f:
        np.savez(f, **payload)


@pytest.fixture(scope="session")
def edit_checkpoint():
    return _edit_checkpoint
