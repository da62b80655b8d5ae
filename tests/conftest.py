"""Shared test oracles."""

import numpy as np
import pytest

from qpattn import circuit


def _parameter_shift_backward(Q, K, params, depth, d_scores, features=None):
    # The pairwise reduction of `circuit.score_grad_batch` over every
    # (query, key, dimension) triple: the backward of the quantum scorers
    # written out with parameter-shift partials. The training step's saved
    # `features` are ignored: the reference builds nothing from them.
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


def _feature_tensor_mlp(Q, K, p, depth, d_scores=None):
    # The MLP scorer evaluated on the whole feature tensor [q, k, q-k, q+k] of
    # every (pair, dimension) at once, the form the tiled first-layer split
    # replaced. Returns the score matrix, or given the upstream ``d_scores``
    # the backward (dQ, dK, grads); Q, K and d_scores share leading axes.
    Q = np.asarray(Q, dtype=float)
    K = np.asarray(K, dtype=float)
    qs, ks = np.broadcast_arrays(Q[..., :, None, :depth], K[..., None, :, :depth])
    f = np.stack([qs, ks, qs - ks, qs + ks], axis=-1)
    h1 = np.tanh(f @ p["w1"].T + p["b1"])
    top = np.tanh(h1 @ p["w2"].T + p["b2"]) if "w2" in p else h1
    s = 1 / (1 + np.exp(-(top @ p["w_out"] + p["b_out"])))
    if d_scores is None:
        return s.sum(axis=-1)

    def flat(x):
        return x.reshape(-1, x.shape[-1])

    ds = np.asarray(d_scores)[..., None] * s * (1 - s)
    grads = {"w_out": flat(ds[..., None] * top).sum(axis=0), "b_out": np.asarray(ds.sum())}
    d_h = ds[..., None] * p["w_out"]
    if "w2" in p:
        d_h = d_h * (1 - top**2)
        grads["w2"] = flat(d_h).T @ flat(h1)
        grads["b2"] = flat(d_h).sum(axis=0)
        d_h = d_h @ p["w2"]
    d_h = d_h * (1 - h1**2)
    grads["w1"] = flat(d_h).T @ flat(f)
    grads["b1"] = flat(d_h).sum(axis=0)
    d_f = d_h @ p["w1"]
    dQ = np.zeros(Q.shape)
    dK = np.zeros(K.shape)
    dQ[..., :depth] = (d_f[..., 0] + d_f[..., 2] + d_f[..., 3]).sum(axis=-2)
    dK[..., :depth] = (d_f[..., 1] - d_f[..., 2] + d_f[..., 3]).sum(axis=-3)
    return dQ, dK, grads


@pytest.fixture(scope="session")
def feature_tensor_mlp():
    """Reference for `scorers.mlp_scores` (four arguments) and
    `scorers.mlp_scores_backward` (five), same signatures."""
    return _feature_tensor_mlp


def within_oracle_bound(got, ref) -> bool:
    """|got - ref| <= 1e-10 * max(1, max|ref|), the Fourier-vs-parameter-shift bound."""
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and np.abs(got - ref).max(initial=0.0) <= 1e-10 * max(
        1.0, np.abs(ref).max(initial=0.0)
    )


@pytest.fixture(scope="session")
def oracle_bound():
    return within_oracle_bound


@pytest.fixture(autouse=True)
def fresh_sampler_memo():
    """Each test starts with empty `score_sampled` memos, the distributions and
    the seed keys: a test that patches a gate must not leave its distributions
    to the next test, nor find another test's, and a test that counts key
    derivations counts its own."""
    circuit._clear_sampling_memos()


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test and
    returns the list that gets one entry per call."""

    def hook(module, name):
        calls = []
        f = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return hook


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
