"""Scorer tests: values, bounds, equivariance, and backward passes vs finite
differences."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from qpattn import circuit, qcore, scorers, vit
from qpattn.circuit import QpaParams

ORIGIN_MU = 0.8535533905932737
IND = scorers.KINDS["qpa-ind"]


def ablation(p):
    # The parameters at which `qpa-ind` evaluates the `qpa` circuit.
    return dataclasses.replace(p, gamma_d=0.0, gamma_s=0.0)


def ind_scores(Q, K, p, depth):
    # The `qpa-ind` kind's score matrix for stored parameters `p`.
    return IND.scores(Q, K, {"qpa": p.to_array()}, depth, None)


def fd_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * h)
    return g


class TestQpaScores:
    def test_depth_one_is_first_component_score(self):
        from qpattn import circuit

        rng = np.random.default_rng(0)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(size=(2, 4, 3))
        A = scorers.qpa_scores(Q, K, p, depth=1)
        for i in range(4):
            for j in range(4):
                assert A[i, j] == pytest.approx(
                    circuit.score(Q[i, 0], K[j, 0], p), abs=1e-12
                )

    def test_zero_inputs_zero_mixer_gives_origin_value(self):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.0)
        A = scorers.qpa_scores(np.zeros((3, 8)), np.zeros((3, 8)), p, depth=8)
        assert np.allclose(A, 8 * ORIGIN_MU, atol=1e-9)

    def test_entries_bounded_by_depth(self):
        rng = np.random.default_rng(1)
        p = QpaParams.from_array(rng.normal(0, 1, 5))
        Q, K = rng.normal(size=(2, 6, 8))
        A = scorers.qpa_scores(Q, K, p, depth=5)
        assert A.min() >= -1e-9 and A.max() <= 5 + 1e-9

    def test_depth_validation(self):
        p = QpaParams(0.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            scorers.qpa_scores(np.zeros((2, 4)), np.zeros((2, 4)), p, depth=5)


class TestAttentionNoise:
    """Noise channels at the attention level: BF and DP are a softmax temperature."""

    GAMMA = 0.07
    DEPTH = 8

    def scores(self, seed, noise=None):
        rng = np.random.default_rng(seed)
        p = QpaParams.from_array(rng.normal(0, 0.8, 5))
        Q, K = rng.normal(0, 1.5, size=(2, 4, 2, 17, self.DEPTH))
        return scorers.qpa_scores(Q, K, p, self.DEPTH, noise)

    @pytest.mark.parametrize("channel, s", [("BF", 1 - 2 * GAMMA), ("DP", 1 - GAMMA)])
    def test_scale_channels_only_flatten_attention(self, channel, s):
        # mu -> 1/2 + s^2 (mu - 1/2) per pair, and the softmax ignores the
        # row constant depth (1 - s^2) / 2.
        clean = self.scores(60)
        noisy = self.scores(60, (channel, self.GAMMA))
        assert np.abs(noisy - (s**2 * clean + self.DEPTH * (1 - s**2) / 2)).max() <= 1e-13
        attention = scorers.row_softmax(noisy)
        assert np.abs(attention - scorers.row_softmax(s**2 * clean)).max() <= 1e-14

    def test_amplitude_damping_is_not_a_temperature(self):
        clean = self.scores(61)
        attention = scorers.row_softmax(self.scores(61, ("AD", self.GAMMA)))

        def error(temperature):
            return np.abs(attention - scorers.row_softmax(clean / temperature)).max()

        grid = np.linspace(0.5, 2.0, 1501)
        best = grid[np.argmin([error(t) for t in grid])]
        refined = minimize_scalar(error, bounds=(best - 1e-3, best + 1e-3), method="bounded")
        assert min(error(best), refined.fun) > 1e-3


class TestDotScores:
    def test_identity_rows(self):
        Q = np.eye(4)
        A = scorers.dot_scores(Q, Q)
        assert np.allclose(np.diag(A), 0.5)  # 1 / sqrt(4)
        assert np.allclose(A - np.diag(np.diag(A)), 0.0)

    def test_zero_query(self):
        assert np.allclose(scorers.dot_scores(np.zeros((3, 4)), np.ones((3, 4))), 0.0)

    def test_gram_symmetry(self):
        rng = np.random.default_rng(2)
        Q = rng.normal(size=(5, 4))
        A = scorers.dot_scores(Q, Q)
        assert np.allclose(A, A.T, atol=1e-14)


def one_pair(q, k, p):
    # The MLP score of one scalar pair: a 1x1 `mlp_scores` at depth 1.
    return float(scorers.mlp_scores(np.array([[q]]), np.array([[k]]), p, 1)[0, 0])


class TestMlpScorer:
    def test_zero_weights_give_half(self):
        p = {"w1": np.zeros((8, 4)), "b1": np.zeros(8), "w_out": np.zeros(8), "b_out": np.zeros(())}
        assert one_pair(1.7, -2.3, p) == 0.5

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        for variant in ("mlp49", "mlp585"):
            p = scorers.init_mlp_params(variant, rng)
            Q, K = rng.normal(size=(2, 10, 10)) * 3
            A = scorers.mlp_scores(Q, K, p, depth=10)
            per_dim_max = A.max() / 10
            assert 0 < A.min() and per_dim_max < 1

    def test_parameter_counts(self):
        rng = np.random.default_rng(4)
        for variant, count in (("mlp49", 49), ("mlp585", 585)):
            p = scorers.init_mlp_params(variant, rng)
            assert {k: w.shape for k, w in p.items()} == scorers.KINDS[variant].shapes(1)
            assert sum(w.size for w in p.values()) == count

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            scorers.init_mlp_params("mlp7", np.random.default_rng(0))

    def test_scalar_matches_matrix_entry(self):
        rng = np.random.default_rng(5)
        p = scorers.init_mlp_params("mlp585", rng)
        Q, K = rng.normal(size=(2, 3, 2))
        A = scorers.mlp_scores(Q, K, p, depth=2)
        expected = one_pair(Q[1, 0], K[2, 0], p) + one_pair(Q[1, 1], K[2, 1], p)
        assert A[1, 2] == pytest.approx(expected, abs=1e-12)


class TestCosineScores:
    def test_identical_rows_give_one(self):
        rng = np.random.default_rng(6)
        Q = rng.normal(size=(4, 5))
        A = scorers.cosine_scores(Q, Q, tau=1.0)
        assert np.allclose(np.diag(A), 1.0, atol=1e-9)

    def test_cap_at_hundred(self):
        rng = np.random.default_rng(7)
        Q, K = rng.normal(size=(2, 4, 5))
        assert np.allclose(
            scorers.cosine_scores(Q, K, tau=200.0),
            scorers.cosine_scores(Q, K, tau=100.0),
            atol=1e-12,
        )
        assert np.allclose(
            scorers.cosine_scores(Q, K, tau=200.0),
            100.0 * scorers.cosine_scores(Q, K, tau=1.0),
            atol=1e-9,
        )

    def test_antiparallel_rows(self):
        Q = np.array([[1.0, 2.0, -1.0]])
        A = scorers.cosine_scores(Q, -Q, tau=1.0)
        assert A[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_zero_row_is_safe(self):
        Q = np.zeros((2, 3))
        K = np.ones((2, 3))
        A = scorers.cosine_scores(Q, K, tau=1.0)
        assert np.all(np.isfinite(A)) and np.allclose(A, 0.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            scorers.cosine_scores(np.ones((2, 2)), np.ones((2, 2)), tau=0.0)


class TestLinearAttention:
    def test_single_token_returns_value_row(self):
        rng = np.random.default_rng(8)
        Q, K, V = rng.normal(size=(3, 1, 4))
        out = scorers.linear_attention(Q, K, V)
        assert np.allclose(out, V, atol=1e-6)

    def test_matches_explicit_normalised_attention(self):
        # O(N^2) oracle: per-row weights phi(q_i).phi(k_j), same epsilon.
        rng = np.random.default_rng(9)
        for n in (2, 5, 16):
            Q, K, V = rng.normal(size=(3, n, 6))
            out = scorers.linear_attention(Q, K, V)
            P, R = scorers.elu_plus_one(Q), scorers.elu_plus_one(K)
            oracle = np.empty_like(out)
            for i in range(n):
                w = R @ P[i]
                oracle[i] = (w[:, None] * V).sum(axis=0) / (w.sum() + scorers.LINEAR_ATTN_EPS)
            assert np.allclose(out, oracle, atol=1e-9)

    def test_feature_map_positive(self):
        x = np.linspace(-50, 50, 1001)
        assert np.all(scorers.elu_plus_one(x) > 0)


class TestQpsanIndScores:
    def test_equals_qpa_when_gammas_vanish(self):
        rng = np.random.default_rng(10)
        p = QpaParams(0.7, 0.4, -0.3, 0.3, -0.2)  # stored gammas are ignored
        Q, K = rng.normal(size=(2, 5, 6))
        assert np.allclose(
            ind_scores(Q, K, p, depth=6),
            scorers.qpa_scores(Q, K, ablation(p), depth=6),
            atol=1e-12,
        )

    def test_bounded_and_origin(self):
        rng = np.random.default_rng(11)
        p = QpaParams.from_array(rng.normal(0, 1, 5))
        Q, K = rng.normal(size=(2, 6, 8))
        A = ind_scores(Q, K, p, depth=8)
        assert A.min() >= -1e-9 and A.max() <= 8 + 1e-9
        p0 = QpaParams(0.5, 0.3, -0.1, 0.4, 0.0)
        A0 = ind_scores(np.zeros((2, 4)), np.zeros((2, 4)), p0, depth=4)
        assert np.allclose(A0, 4 * ORIGIN_MU, atol=1e-9)

    # The statevector circuit with the independent encoding is the ablation's
    # reference; nonzero stored gammas must not reach it.
    P = QpaParams(0.6, 0.4, -0.3, 0.5, 0.2)

    @staticmethod
    def oracle(Q, K, theta, depth):
        # A[i, j] = sum_d mu(Q[i, d], K[j, d]), one statevector walk per term.
        p = QpaParams.from_array(theta)
        A = np.zeros((len(Q), len(K)))
        for i, j, d in np.ndindex(len(Q), len(K), depth):
            A[i, j] += circuit.score(Q[i, d], K[j, d], p, independent=True)
        return A

    def test_scores_match_statevector_oracle(self):
        rng = np.random.default_rng(26)
        Q, K = rng.normal(0, 1.5, size=(2, 5, 4))
        expected = self.oracle(Q, K, self.P.to_array(), 3)
        assert np.abs(ind_scores(Q, K, self.P, 3) - expected).max() <= 1e-12
        assert np.abs(scorers.qpa_scores(Q, K, self.P, 3) - expected).max() > 1e-3

    def test_backward_matches_statevector_oracle(self):
        rng = np.random.default_rng(27)
        Q, K = rng.normal(0, 1.5, size=(2, 3, 4))
        dA = rng.normal(size=(3, 3))
        theta = self.P.to_array()
        dQ, dK, grads = IND.backward(Q, K, {"qpa": theta}, 3, dA)
        assert grads["qpa"][1] == 0.0 and grads["qpa"][2] == 0.0  # gamma_d, gamma_s

        def loss(Q, K, theta):
            return float((self.oracle(Q, K, theta, 3) * dA).sum())

        assert np.allclose(dQ, fd_grad(lambda x: loss(x, K, theta), Q.copy()), atol=1e-6)
        assert np.allclose(dK, fd_grad(lambda x: loss(Q, x, theta), K.copy()), atol=1e-6)
        assert np.allclose(grads["qpa"], fd_grad(lambda v: loss(Q, K, v), theta), atol=1e-6)


class TestSoftmaxWeightedSum:
    def test_constant_row_gives_column_mean(self):
        rng = np.random.default_rng(12)
        V = rng.normal(size=(5, 3))
        A = np.full((5, 5), 2.7)
        out = scorers.row_softmax(A) @ V
        assert np.allclose(out, V.mean(axis=0), atol=1e-12)

    def test_saturated_entry_selects_row(self):
        rng = np.random.default_rng(13)
        V = rng.normal(size=(4, 3))
        A = np.zeros((4, 4))
        A[2, 1] = 1000.0
        out = scorers.row_softmax(A) @ V
        assert np.allclose(out[2], V[1], atol=1e-6)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(7, 7)) * 10
        P = scorers.row_softmax(A)
        assert np.allclose(P.sum(axis=-1), 1.0, atol=1e-9)
        assert P.min() >= 0


def attention_output(kind, Q, K, V, depth=4):
    if kind == "qpa":
        A = scorers.qpa_scores(Q, K, QpaParams(0.5, 0.1, -0.2, 0.3, 0.1), depth)
    elif kind == "qpa-ind":
        A = ind_scores(Q, K, QpaParams(0.5, 0.1, -0.2, 0.3, 0.1), depth)
    elif kind == "dot":
        A = scorers.dot_scores(Q, K)
    elif kind == "mlp49":
        A = scorers.mlp_scores(Q, K, scorers.init_mlp_params("mlp49", np.random.default_rng(0)), depth)
    elif kind == "mlp585":
        A = scorers.mlp_scores(Q, K, scorers.init_mlp_params("mlp585", np.random.default_rng(0)), depth)
    elif kind == "cosine":
        A = scorers.cosine_scores(Q, K, tau=2.0)
    elif kind == "linear":
        return scorers.linear_attention(Q, K, V)
    return scorers.row_softmax(A) @ V


@pytest.mark.parametrize("kind", scorers.SCORER_KINDS)
def test_permutation_equivariance(kind):
    rng = np.random.default_rng(15)
    Q, K, V = rng.normal(size=(3, 6, 4))
    perm = rng.permutation(6)
    base = attention_output(kind, Q, K, V)
    permuted = attention_output(kind, Q[perm], K[perm], V[perm])
    assert np.allclose(permuted, base[perm], atol=1e-10)


class TestBackwardPasses:
    def test_quantum_backward(self):
        rng = np.random.default_rng(16)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(size=(2, 3, 4))
        W = rng.normal(size=(3, 3))
        for kind in (scorers.KINDS["qpa"], IND):

            def fwd(Q, K, p, depth):
                return kind.scores(Q, K, {"qpa": p.to_array()}, depth, None)

            dQ, dK, grads = kind.backward(Q, K, {"qpa": p.to_array()}, 3, W)
            dtheta = grads["qpa"]
            assert np.allclose(
                dQ, fd_grad(lambda x: float((fwd(x, K, p, 3) * W).sum()), Q.copy()), atol=1e-6
            )
            assert np.allclose(
                dK, fd_grad(lambda x: float((fwd(Q, x, p, 3) * W).sum()), K.copy()), atol=1e-6
            )
            fd_theta = fd_grad(
                lambda v: float((fwd(Q, K, QpaParams.from_array(v), 3) * W).sum()),
                p.to_array(),
            )
            assert np.allclose(dtheta, fd_theta, atol=1e-6)
            assert dQ[..., 3:].max() == 0 and dK[..., 3:].max() == 0  # beyond depth

    def test_dot_backward(self):
        rng = np.random.default_rng(17)
        Q, K = rng.normal(size=(2, 4, 5))
        W = rng.normal(size=(4, 4))
        dQ, dK = scorers.dot_scores_backward(Q, K, W)
        assert np.allclose(
            dQ, fd_grad(lambda x: float((scorers.dot_scores(x, K) * W).sum()), Q.copy()), atol=1e-6
        )
        assert np.allclose(
            dK, fd_grad(lambda x: float((scorers.dot_scores(Q, x) * W).sum()), K.copy()), atol=1e-6
        )

    @pytest.mark.parametrize("variant", ["mlp49", "mlp585"])
    def test_mlp_backward(self, variant):
        rng = np.random.default_rng(18)
        p = scorers.init_mlp_params(variant, rng)
        Q, K = rng.normal(size=(2, 3, 3))
        W = rng.normal(size=(3, 3))
        dQ, dK, grads = scorers.mlp_scores_backward(Q, K, p, 3, W)
        assert np.allclose(
            dQ, fd_grad(lambda x: float((scorers.mlp_scores(x, K, p, 3) * W).sum()), Q.copy()), atol=1e-6
        )
        assert np.allclose(
            dK, fd_grad(lambda x: float((scorers.mlp_scores(Q, x, p, 3) * W).sum()), K.copy()), atol=1e-6
        )
        for name, arr in p.items():
            def f(v, name=name):
                return float((scorers.mlp_scores(Q, K, {**p, name: v}, 3) * W).sum())

            assert np.allclose(grads[name], fd_grad(f, arr.copy()), atol=1e-6), name

    def test_cosine_backward(self):
        rng = np.random.default_rng(19)
        Q, K = rng.normal(size=(2, 4, 5))
        W = rng.normal(size=(4, 4))
        log_tau = np.array(0.7)
        tau = float(np.exp(log_tau))
        dQ, dK, dlt = scorers.cosine_scores_backward(Q, K, tau, W)
        assert np.allclose(
            dQ,
            fd_grad(lambda x: float((scorers.cosine_scores(x, K, tau) * W).sum()), Q.copy()),
            atol=1e-6,
        )
        assert np.allclose(
            dK,
            fd_grad(lambda x: float((scorers.cosine_scores(Q, x, tau) * W).sum()), K.copy()),
            atol=1e-6,
        )
        fd_lt = fd_grad(
            lambda v: float((scorers.cosine_scores(Q, K, float(np.exp(v))) * W).sum()),
            log_tau.copy(),
        )
        assert abs(dlt - float(fd_lt)) < 1e-6
        # capped region: zero temperature gradient
        _, _, dlt_cap = scorers.cosine_scores_backward(Q, K, 150.0, W)
        assert dlt_cap == 0.0

    def test_linear_backward(self):
        rng = np.random.default_rng(20)
        Q, K, V = rng.normal(size=(3, 4, 3))
        W = rng.normal(size=(4, 3))
        dQ, dK, dV = scorers.linear_attention_backward(Q, K, V, W)
        assert np.allclose(
            dQ, fd_grad(lambda x: float((scorers.linear_attention(x, K, V) * W).sum()), Q.copy()), atol=1e-6
        )
        assert np.allclose(
            dK, fd_grad(lambda x: float((scorers.linear_attention(Q, x, V) * W).sum()), K.copy()), atol=1e-6
        )
        assert np.allclose(
            dV, fd_grad(lambda x: float((scorers.linear_attention(Q, K, x) * W).sum()), V.copy()), atol=1e-6
        )

    def test_softmax_backward(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3))
        W = rng.normal(size=(3, 3))
        P = scorers.row_softmax(A)
        dA = scorers.row_softmax_backward(P, W)
        assert np.allclose(
            dA, fd_grad(lambda x: float((scorers.row_softmax(x) * W).sum()), A.copy()), atol=1e-6
        )


class TestFourierBackward:
    """`quantum_scores_backward` against the parameter-shift pairwise reduction."""

    @staticmethod
    def check(parameter_shift_backward, oracle_bound, Q, K, p, depth, dA, pinned):
        # `pinned` checks the ablation's point, gamma_d = gamma_s = 0.
        p = ablation(p) if pinned else p
        got = scorers.quantum_scores_backward(Q, K, p, depth, dA)
        ref = parameter_shift_backward(Q, K, p, depth, dA)
        for name, g, r in zip(("dQ", "dK", "d_params"), got, ref):
            assert oracle_bound(g, r), (name, np.abs(g - r).max())
        return got

    @pytest.mark.parametrize("pinned", [False, True], ids=["qpa", "qpa-ind"])
    @pytest.mark.parametrize("n", [1, 17, 50])
    @pytest.mark.parametrize("beta", [0.0, 0.3, np.pi / 2, 7.0])
    def test_matches_parameter_shift(
        self, parameter_shift_backward, oracle_bound, pinned, n, beta
    ):
        rng = np.random.default_rng(24 + n)
        p = QpaParams(*rng.normal(0, 0.8, 4), beta)
        Q, K = rng.normal(0, 1, size=(2, 2, 3, n, 8))  # batch 2, heads 3, head dim 8
        dA = rng.normal(size=(2, 3, n, n))
        dQ, dK, _ = self.check(parameter_shift_backward, oracle_bound, Q, K, p, 6, dA, pinned)
        assert not dQ[..., 6:].any() and not dK[..., 6:].any()  # beyond depth: exactly 0

    @pytest.mark.parametrize("pinned", [False, True], ids=["qpa", "qpa-ind"])
    def test_matches_parameter_shift_across_circuit_chunks(
        self, parameter_shift_backward, oracle_bound, pinned
    ):
        rng = np.random.default_rng(25)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1, size=(2, 1, 50, 16))
        dA = rng.normal(size=(1, 50, 50))
        self.check(parameter_shift_backward, oracle_bound, Q, K, p, 16, dA, pinned)

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
        n=st.integers(1, 6),
        head_dim=st.integers(1, 5),
        depth_cut=st.integers(0, 4),
        scale=st.floats(0.01, 4.0),
        pinned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_parameter_shift(
        self, parameter_shift_backward, oracle_bound, theta, n, head_dim, depth_cut, scale,
        pinned, seed,
    ):
        rng = np.random.default_rng(seed)
        depth = max(1, head_dim - depth_cut)
        Q, K = rng.normal(0, scale, size=(2, 2, n, head_dim))
        dA = rng.normal(size=(2, n, n))
        p = QpaParams.from_array(np.array(theta))
        self.check(parameter_shift_backward, oracle_bound, Q, K, p, depth, dA, pinned)


#: Q and K shapes (B, H, N, head dim) with a depth, around the backward's tile
#: boundary, and the tiles each runs in: a tile holds TILE_INPUTS // (N * D)
#: items per side, 4096 // (17 * 16) = 15 at N=17, D=16, and one item at
#: N=197, D=21 (4137 inputs, more than a tile).
BACKWARD_TILES = {
    "one-item": ((1, 1, 17, 16), 16, 1),
    "exactly-one-tile": ((5, 3, 17, 16), 16, 1),
    "one-tile-plus-one": ((16, 1, 17, 16), 16, 2),
    "tiles-and-remainder": ((32, 2, 17, 16), 16, 5),
    "items-larger-than-a-tile": ((2, 1, 197, 24), 21, 2),
}

#: The ViT's last layer: the CLS row alone against every key. K shapes, depths
#: and tiles as in BACKWARD_TILES; Q holds one query row, so a tile still
#: holds TILE_INPUTS // (N * D) items: 5 tiles with a remainder, then one
#: item per tile.
CLS_BACKWARD_TILES = {
    "cls-row-tiles-and-remainder": ((32, 2, 17, 16), 16, 5),
    "cls-row-one-item-per-tile": ((2, 1, 197, 24), 21, 2),
}


def backward_case(shape, seed=26):
    rng = np.random.default_rng(seed)
    p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
    Q, K = rng.normal(0, 1, size=(2, *shape))
    dA = rng.normal(size=shape[:-1] + shape[-2:-1])
    return Q, K, p, dA


def tile_case(case):
    # (Q, K, p, dA, depth, tiles) of a BACKWARD_TILES or CLS_BACKWARD_TILES
    # case. A CLS-row case keeps the first query row, and its score gradient
    # is exactly 0 at every fourth key.
    if case in BACKWARD_TILES:
        shape, depth, tiles = BACKWARD_TILES[case]
        return (*backward_case(shape), depth, tiles)
    shape, depth, tiles = CLS_BACKWARD_TILES[case]
    Q, K, p, dA = backward_case(shape)
    dA = dA[..., :1, :].copy()
    dA[..., ::4] = 0.0
    return Q[..., :1, :], K, p, dA, depth, tiles


def rows_parameter_shift(parameter_shift_backward, Q, K, p, depth, dA, rows=40):
    # The parameter-shift oracle over blocks of query rows, so that its
    # (pair, dimension) arrays stay small at N=197.
    dQ, dK, d_params = np.zeros(Q.shape), np.zeros(K.shape), np.zeros(5)
    for i in range(0, Q.shape[-2], rows):
        q, k, d = parameter_shift_backward(Q[..., i : i + rows, :], K, p, depth, dA[..., i : i + rows, :])
        dQ[..., i : i + rows, :] = q
        dK += k
        d_params += d
    return dQ, dK, d_params


def close(got, ref, bound):
    return np.abs(got - ref).max(initial=0.0) <= bound * max(1.0, np.abs(ref).max(initial=0.0))


class TestBackwardTiles:
    """`quantum_scores_backward` across tile boundaries."""

    @pytest.mark.parametrize("case", [*BACKWARD_TILES, *CLS_BACKWARD_TILES])
    def test_tiled_equals_single_tile_and_parameter_shift(
        self, case, monkeypatch, parameter_shift_backward, count_calls
    ):
        Q, K, p, dA, depth, tiles = tile_case(case)
        calls = count_calls(circuit, "_angle_features")
        dQ, dK, d_params = scorers.quantum_scores_backward(Q, K, p, depth, dA)
        # A query and a key block per tile, or one block of CLS-key pairs.
        assert len(calls) == (tiles if case in CLS_BACKWARD_TILES else 2 * tiles)
        monkeypatch.setattr(scorers, "TILE_INPUTS", 2**62)
        whole = scorers.quantum_scores_backward(Q, K, p, depth, dA)
        assert np.array_equal(dQ, whole[0]) and np.array_equal(dK, whole[1])
        assert close(d_params, whole[2], 1e-13)  # the tiles' sums only reorder
        ref = rows_parameter_shift(parameter_shift_backward, Q, K, p, depth, dA)
        for name, got, r in zip(("dQ", "dK", "d_params"), (dQ, dK, d_params), ref):
            assert close(got, r, 1e-12), name
        assert not dQ[..., depth:].any() and not dK[..., depth:].any()

    @pytest.mark.parametrize("case", ["tiles-and-remainder", "items-larger-than-a-tile"])
    def test_d_params_match_central_differences(self, case):
        shape, depth, _ = BACKWARD_TILES[case]
        Q, K, p, dA = backward_case(shape)
        d_params = scorers.quantum_scores_backward(Q, K, p, depth, dA)[2]
        loss = lambda theta: float((scorers.qpa_scores(Q, K, QpaParams.from_array(theta), depth) * dA).sum())
        fd = fd_grad(loss, p.to_array(), h=1e-5)
        assert close(d_params, fd, 1e-6)

    def test_small_tiles_and_empty_batches(self, monkeypatch, parameter_shift_backward):
        rng = np.random.default_rng(27)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        for shape in [(3, 2, 5, 4), (5, 4), (0, 2, 5, 4), (2, 0, 4)]:
            Q, K = rng.normal(size=(2, *shape))
            dA = rng.normal(size=shape[:-1] + shape[-2:-1])
            ref = parameter_shift_backward(Q, K, p, 3, dA)
            for tile_inputs in (1, 7, 16, 2**62):
                monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
                got = scorers.quantum_scores_backward(Q, K, p, 3, dA)
                for name, g, r in zip(("dQ", "dK", "d_params"), got, ref):
                    assert g.shape == r.shape and close(g, r, 1e-12), (shape, tile_inputs, name)

    def test_working_memory_does_not_grow_with_the_batch(self):
        # Traced peak of the call, less its outputs, at B=8 and B=64 (N=17,
        # D=16): the tiles bound it. Untiled, it grew about 8x between the two.
        def excess(batch):
            Q, K, p, dA = backward_case((batch, 2, 17, 16))
            tracemalloc.start()
            try:
                dQ, dK, _ = scorers.quantum_scores_backward(Q, K, p, 16, dA)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - dQ.nbytes - dK.nbytes

        small, large = excess(8), excess(64)
        assert large <= 1.05 * small, (small, large)


#: (Q shape, K shape, depth, TILE_INPUTS, tiles) around the forward's tiles
#: where Q and K both have several rows: the product of query with key
#: features runs on the backward's tiles of TILE_INPUTS // (N * D) whole
#: (image, head) items, at least one.
FORWARD_TILES = {
    "partial-last-tile": ((5, 2, 6, 4), (5, 2, 6, 4), 4, 100, 3),  # 24 per item: 4, 4, 2
    "image-larger-than-a-tile": ((3, 2, 9, 4), (3, 2, 9, 4), 3, 20, 6),  # one item per tile
    "no-leading-axis": ((6, 4), (7, 4), 4, 1, 1),
}

#: The same where Q has one query row (the ViT's last layer) or K one key
#: row: the circuit scores each pair on its own, so a tile holds
#: 7 * TILE_INPUTS // (pairs per image) whole images, at least one, where an
#: image has heads x N_q x N_k x D pairs.
CLS_FORWARD_TILES = {
    "cls-row-partial-last-tile": ((5, 2, 1, 4), (5, 2, 6, 4), 4, 14, 3),  # 48 per image: 2, 2, 1
    "cls-row-image-larger-than-a-tile": ((3, 2, 1, 4), (3, 2, 9, 4), 3, 1, 3),
    "one-key-row": ((4, 2, 6, 4), (4, 2, 1, 4), 3, 11, 2),  # 36 per image: 2, 2
}

FORWARD_NOISE = [None] + [(channel, 0.13) for channel in sorted(qcore.CHANNELS)]


def forward_excess(batch, n_q, n_k, noise):
    # Traced peak of a `qpa_scores` call, less its output, two heads, D=16.
    p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
    rng = np.random.default_rng(38)
    Q, K = rng.normal(size=(batch, 2, n_q, 16)), rng.normal(size=(batch, 2, n_k, 16))
    tracemalloc.start()
    try:
        A = scorers.qpa_scores(Q, K, p, 16, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - A.nbytes


def score_sum(Q, K, p, depth, noise=None):
    # `qpa_scores`' arguments to the sum of its entries, in the two steps.
    return scorers.quantum_score_sum(scorers.score_sum_terms(Q, K, p, depth), p, noise)


class TestForwardTiles:
    """`qpa_scores` across image tiles."""

    @pytest.mark.parametrize("noise", FORWARD_NOISE, ids=lambda n: n[0] if n else "clean")
    @pytest.mark.parametrize("case", [*FORWARD_TILES, *CLS_FORWARD_TILES])
    def test_tiled_equals_single_tile(self, case, noise, monkeypatch, count_calls):
        q_shape, k_shape, depth, tile_inputs, tiles = {**FORWARD_TILES, **CLS_FORWARD_TILES}[case]
        rng = np.random.default_rng(37)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1.5, size=q_shape), rng.normal(0, 1.5, size=k_shape)
        pairs = (Q[..., :, None, :depth], K[..., None, :, :depth], p)
        if noise is None:
            ref, name = circuit.score_batch(*pairs).sum(axis=-1), "score_batch"
        else:
            ref, name = circuit.score_noisy_batch(*pairs, *noise).sum(axis=-1), "score_noisy_batch"
        # A CLS-row tile is one per-pair circuit call; a product tile builds
        # a query and a key feature block.
        per_tile = 1 if case in CLS_FORWARD_TILES else 2
        calls = count_calls(circuit, name if per_tile == 1 else "_angle_features")
        monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
        A = scorers.qpa_scores(Q, K, p, depth, noise)
        assert len(calls) == per_tile * tiles
        monkeypatch.setattr(scorers, "TILE_INPUTS", 2**62)
        whole = scorers.qpa_scores(Q, K, p, depth, noise)
        assert len(calls) == per_tile * (tiles + 1)
        assert A.shape == ref.shape and np.array_equal(A, whole)
        assert np.abs(A - ref).max() <= 1e-13

    @pytest.mark.parametrize("noise", [None, ("AD", 0.07)], ids=["clean", "AD"])
    def test_working_memory_does_not_grow_with_the_batch(self, noise):
        # Before the image tiles the whole batch's per-pair array was built:
        # 39.6 MiB at B=64, N=50 with AD noise. While the circuit still
        # scored each pair of these layouts, a tile held at least one
        # image's per-pair scores: 10.8 MiB at N=197. The feature product
        # holds one tile's features, about 1.2 MiB at N=197.
        small = forward_excess(8, 17, 17, noise)
        assert forward_excess(64, 17, 17, noise) <= 1.05 * small, small
        assert forward_excess(64, 50, 50, noise) <= 4 * 2**20
        assert forward_excess(64, 197, 197, noise) <= 2 * 2**20

    @pytest.mark.parametrize("noise", [None, ("AD", 0.07)], ids=["clean", "AD"])
    def test_cls_row_working_memory_does_not_grow_with_the_batch(self, noise):
        # A tile of at most 7 * TILE_INPUTS pairs holds about 2.1 MiB of
        # temporaries at N=50 (17 images of 1,600 pairs), at B=64 and B=128.
        for batch in (64, 128):
            assert forward_excess(batch, 1, 50, noise) <= 3 * 2**20, batch

    @pytest.mark.parametrize("n, tiles", [(17, 2), (50, 4), (197, 16)])
    def test_cls_row_tiles_at_the_vit_sizes(self, n, tiles, count_calls):
        # 64 images, two heads, D=16: 52, 17 and 4 images per tile of
        # 7 * 4096 = 28,672 pairs.
        rng = np.random.default_rng(39)
        Q, K = rng.normal(size=(64, 2, 1, 16)), rng.normal(size=(64, 2, n, 16))
        calls = count_calls(circuit, "score_batch")
        scorers.qpa_scores(Q, K, QpaParams(0.5, 0.1, -0.2, 0.3, 0.2), 16)
        assert len(calls) == tiles

    @pytest.mark.parametrize(
        "score", [scorers.qpa_scores, score_sum], ids=["qpa_scores", "quantum_score_sum"]
    )
    def test_an_empty_batch_checks_its_noise_and_parameters(self, score):
        # With no image there is no tile, so the checks come before the tiles.
        Q, K = np.zeros((0, 2, 1, 4)), np.zeros((0, 2, 5, 4))
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        with pytest.raises(ValueError, match="unknown channel"):
            score(Q, K, p, 4, ("XX", 0.1))
        with pytest.raises(ValueError, match="gamma must lie in"):
            score(Q, K, p, 4, ("AD", 2.0))
        with pytest.raises(ValueError, match="one parameter set"):
            score(Q, K, QpaParams(np.array([0.5, 0.6]), 0.1, -0.2, 0.3, 0.2), 4)
        score(Q, K, p, 4, ("AD", 0.1))  # a channel the circuit takes


class TestPairTangents:
    """`pair_planes` and `plane_scores`, a one-query-row `qpa_scores` in two steps: each pair's
    tangents turned into planes once, and the planes weighed per setting."""

    @pytest.mark.parametrize("case", CLS_FORWARD_TILES)
    def test_weighs_to_qpa_scores_bit_for_bit_in_every_setting(self, case, monkeypatch, count_calls):
        q_shape, k_shape, depth, tile_inputs, tiles = CLS_FORWARD_TILES[case]
        rng = np.random.default_rng(46)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1.5, size=q_shape), rng.normal(0, 1.5, size=k_shape)
        monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
        built = count_calls(circuit, "_pair_tangents")
        planes = scorers.pair_planes(Q, K, p, depth)
        assert len(built) == len(planes.tiles) == tiles  # one block per `qpa_scores` tile
        kept = [t.copy() for _, t in planes.tiles]
        per_pair = count_calls(circuit, "score_batch")
        noisy = count_calls(circuit, "score_noisy_batch")
        trig = count_calls(circuit, "_tangent_cos_sin")
        for noise in FORWARD_NOISE:
            A = scorers.plane_scores(planes, p, noise)
            assert not per_pair and not noisy and not trig  # no circuit call, no cosine or sine
            assert np.array_equal(A, scorers.qpa_scores(Q, K, p, depth, noise))
            per_pair.clear()
            noisy.clear()
            trig.clear()
        # Weighing builds no tangents (each `qpa_scores` call takes its own)
        # and leaves the kept planes as they were.
        assert len(built) == tiles * (1 + len(FORWARD_NOISE))
        assert all(np.array_equal(t, before) for (_, t), before in zip(planes.tiles, kept))

    def test_planes_are_the_cosines_and_sines_of_the_base_angles(self):
        # sin a, sin b, sin c, cos a, cos b, cos c of each (image, head,
        # key, dimension), to within rounding of the half-angle identity.
        rng = np.random.default_rng(48)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1.5, size=(3, 2, 1, 4)), rng.normal(0, 1.5, size=(3, 2, 5, 4))
        ((_, block),) = scorers.pair_planes(Q, K, p, 3).tiles
        B = circuit._BASE_ANGLES @ circuit._angle_map(p)
        theta = circuit._pair_angles(Q[..., :, None, :3], K[..., None, :, :3], B)
        assert block.shape == (6, 3, 2, 1, 5, 3)
        assert np.abs(block - np.concatenate([np.sin(theta), np.cos(theta)])).max() <= 1e-14

    def test_refuses_several_query_and_key_rows(self):
        Q = np.zeros((2, 2, 3, 4))
        with pytest.raises(ValueError, match="one query row or one key row"):
            scorers.pair_planes(Q, Q, QpaParams(0.5, 0.1, -0.2, 0.3, 0.2), 4)

    @pytest.mark.parametrize("side", ["q", "k"])
    def test_non_finite_input_raises_before_any_tangent(self, side, monkeypatch, count_calls):
        # As in `qpa_scores`, whose tiles check their own inputs in order:
        # the bad input sits in the last tile, so no tangent may come first.
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        rng = np.random.default_rng(47)
        Q, K = rng.normal(size=(5, 2, 1, 4)), rng.normal(size=(5, 2, 6, 4))
        (Q if side == "q" else K)[4, 1, 0, 2] = np.inf
        monkeypatch.setattr(scorers, "TILE_INPUTS", 14)  # 2, 2 and 1 images
        with pytest.raises(circuit.NonFiniteInputError) as expected:
            scorers.qpa_scores(Q, K, p, 4, ("AD", 0.1))
        built = count_calls(circuit, "_pair_tangents")
        with pytest.raises(circuit.NonFiniteInputError) as got:
            scorers.pair_planes(Q, K, p, 4)
        assert str(got.value) == str(expected.value) == f"{side} must be finite"
        assert not built

    def test_an_empty_batch(self):
        Q, K = np.zeros((0, 2, 1, 4)), np.zeros((0, 2, 5, 4))
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        planes = scorers.pair_planes(Q, K, p, 4)
        A = scorers.plane_scores(planes, p, ("AD", 0.1))
        assert A.shape == planes.shape == (0, 2, 1, 5)
        with pytest.raises(ValueError, match="gamma must lie in"):
            scorers.plane_scores(planes, p, ("AD", 2.0))


#: (Q shape, K shape, depth, TILE_INPUTS) of score-sum cases: the
#: last layer's CLS row against every key, in tiles and in one, and N_q > N_k.
SCORE_SUM_CASES = {
    "cls-row-tiled": ((5, 2, 1, 4), (5, 2, 9, 4), 4, 40),
    "cls-row-one-tile": ((5, 2, 1, 4), (5, 2, 9, 4), 3, 2**62),
    "all-rows-tiled": ((3, 2, 9, 4), (3, 2, 9, 4), 4, 20),
    "no-leading-axis": ((6, 4), (4, 4), 2, 1),
    "depth-one-tiled": ((3, 2, 50, 4), (3, 2, 50, 4), 1, 60),
}


def feature_layout_sum(Q, K, p, depth, noise):
    # `score_sum` with each tile's features laid out (tile, N, D, 7)
    # by `fourier_features` and then summed over N, the sums that
    # `circuit._feature_sums` takes plane by plane.
    c = circuit.score_coefficients(p, noise)
    (items, n_q, n_k), qs, ks = scorers._flat_pairs(Q, K, depth)
    W = circuit._angle_map(p)
    products = np.zeros(7, dtype=np.complex128)
    for tile in scorers._tiles(items, max(n_q, n_k) * depth):
        F = circuit.fourier_features(qs[tile], W[:, 0]).sum(axis=1)
        F *= circuit.fourier_features(ks[tile], W[:, 1]).sum(axis=1)
        products += F.reshape(-1, 7).sum(axis=0)
    return float(items * n_q * n_k * depth * c[0].real + (c[1:] @ products).real)


class TestScoreSum:
    """`score_sum_terms` and `quantum_score_sum`, the separable sum of every per-pair score."""

    @pytest.mark.parametrize("noise", FORWARD_NOISE, ids=lambda n: n[0] if n else "clean")
    @pytest.mark.parametrize("case", SCORE_SUM_CASES)
    def test_equals_the_per_pair_sum(self, case, noise, monkeypatch, count_calls):
        q_shape, k_shape, depth, tile_inputs = SCORE_SUM_CASES[case]
        rng = np.random.default_rng(41)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1.5, size=q_shape), rng.normal(0, 1.5, size=k_shape)
        pairs = (Q[..., :, None, :depth], K[..., None, :, :depth], p)
        if noise is None:
            ref = circuit.score_batch(*pairs)
        else:
            ref = circuit.score_noisy_batch(*pairs, *noise)
        monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
        batch_calls = count_calls(circuit, "score_batch") + count_calls(circuit, "score_noisy_batch")
        total = score_sum(Q, K, p, depth, noise)
        assert not batch_calls  # no per-pair scores
        assert abs(total - ref.sum()) <= 1e-12 * ref.size

    @pytest.mark.parametrize("noise", FORWARD_NOISE, ids=lambda n: n[0] if n else "clean")
    @pytest.mark.parametrize("case", SCORE_SUM_CASES)
    def test_equals_the_feature_layout_sum_bit_for_bit(self, case, noise, monkeypatch):
        # The noise-sweep CSV prints the mean score to 12 decimals, and its
        # digest is pinned.
        q_shape, k_shape, depth, tile_inputs = SCORE_SUM_CASES[case]
        rng = np.random.default_rng(44)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1.5, size=q_shape), rng.normal(0, 1.5, size=k_shape)
        monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
        assert score_sum(Q, K, p, depth, noise) == feature_layout_sum(Q, K, p, depth, noise)

    def test_one_set_of_terms_serves_every_setting(self):
        # The terms hold no coefficient, and weighing them leaves them as
        # they were, so a noise sweep can build them once per batch.
        Q, K = np.random.default_rng(45).normal(0, 1.5, size=(2, 3, 2, 9, 4))
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        terms = scorers.score_sum_terms(Q, K, p, 4)
        products = terms.products.copy()
        assert terms.pairs == 3 * 2 * 9 * 9 * 4
        for noise in FORWARD_NOISE:
            assert scorers.quantum_score_sum(terms, p, noise) == score_sum(Q, K, p, 4, noise)
        assert np.array_equal(terms.products, products)

    def test_phase_flip_sum_equals_clean_bit_for_bit(self):
        Q, K = np.random.default_rng(42).normal(0, 1.5, size=(2, 4, 2, 7, 4))
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        clean = score_sum(Q, K, p, 4)
        assert score_sum(Q, K, p, 4, ("PF", 0.3)) == clean

    def test_refuses_what_the_circuit_refuses(self):
        Q, K = np.random.default_rng(43).normal(size=(2, 2, 3, 4))
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        with pytest.raises(ValueError, match="unknown channel"):
            score_sum(Q, K, p, 4, ("XX", 0.1))
        with pytest.raises(ValueError, match="gamma must lie in"):
            score_sum(Q, K, p, 4, ("AD", 1.5))
        K[1, 2, 3] = np.nan
        with pytest.raises(circuit.NonFiniteInputError):
            score_sum(Q, K, p, 4)


class TestTrainingForward:
    """`quantum_scores_with_features`, the training step's score-matrix forward."""

    @pytest.mark.parametrize("case", FORWARD_TILES)
    def test_matches_per_pair_scores(self, case, monkeypatch, count_calls):
        q_shape, k_shape, depth, tile_inputs, _ = FORWARD_TILES[case]
        rng = np.random.default_rng(37)
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)
        Q, K = rng.normal(0, 1.5, size=q_shape), rng.normal(0, 1.5, size=k_shape)
        ref = circuit.score_batch(Q[..., :, None, :depth], K[..., None, :, :depth], p).sum(axis=-1)
        monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
        calls = count_calls(circuit, "fourier_features")
        A, (F, G) = scorers.quantum_scores_with_features(Q, K, p, depth)
        items = len(F)
        assert len(calls) == 2 * len(scorers._tiles(items, max(q_shape[-2], k_shape[-2]) * depth))
        assert A.shape == ref.shape and np.abs(A - ref).max() <= 1e-13
        # Inference runs the same product on the same tiles.
        assert np.array_equal(A, scorers.qpa_scores(Q, K, p, depth))
        W = np.tensordot(p.to_array(), circuit.ANGLE_JACOBIAN, axes=1)
        qs, ks = (X[..., :depth].reshape(items, -1, depth) for X in (Q, K))
        assert np.array_equal(F, circuit.fourier_features(qs, W[:, 0]))
        assert np.array_equal(G, circuit.fourier_features(ks, W[:, 1]))

    @pytest.mark.parametrize("case", [*BACKWARD_TILES, *CLS_BACKWARD_TILES])
    def test_backward_reads_the_features_bit_for_bit(self, case, count_calls):
        Q, K, p, dA, depth, _ = tile_case(case)
        built = scorers.quantum_scores_backward(Q, K, p, depth, dA)
        features = scorers.quantum_scores_with_features(Q, K, p, depth)[1]
        calls = count_calls(circuit, "_angle_features")
        read = scorers.quantum_scores_backward(Q, K, p, depth, dA, features)
        assert not calls
        for got, ref in zip(read, built):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("case", CLS_BACKWARD_TILES)
    def test_cls_row_matches_per_pair_scores(self, case, monkeypatch, count_calls):
        # The last layer's CLS row: A from the features P at each CLS-key
        # pair's angles, which the call returns in place of (F, G).
        Q, K, p, _, depth, tiles = tile_case(case)
        calls = count_calls(circuit, "_angle_features")
        A, P = scorers.quantum_scores_with_features(Q, K, p, depth)
        assert len(calls) == tiles  # one block of CLS-key pairs per tile
        ref = scorers.qpa_scores(Q, K, p, depth)
        assert A.shape == ref.shape and np.abs(A - ref).max() <= 1e-13
        rng = np.random.default_rng(44)
        for b, h, j in zip(*(rng.integers(n, size=20) for n in K.shape[:-1])):
            mu = circuit.score(Q[b, h, 0, :depth], K[b, h, j, :depth], p)  # statevector
            assert abs(A[b, h, 0, j] - mu.sum()) <= 1e-12
        monkeypatch.setattr(scorers, "TILE_INPUTS", 2**62)
        whole, whole_P = scorers.quantum_scores_with_features(Q, K, p, depth)
        assert np.array_equal(A, whole) and np.array_equal(P, whole_P)
        W = np.tensordot(p.to_array(), circuit.ANGLE_JACOBIAN, axes=1)
        qs, ks = (X[..., :depth].reshape(len(P), -1, depth) for X in (Q, K))
        FG = circuit.fourier_features(qs, W[:, 0]) * circuit.fourier_features(ks, W[:, 1])
        # P rounds three phasors of the pair's angles, F G six: against a
        # long-double exp, P is within 8.6e-16 and F G within 1.7e-15 here.
        assert P.shape == FG.shape and np.abs(P - FG).max() <= 3e-15

    @pytest.mark.parametrize("side", ["q", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_before_any_feature(self, side, bad, count_calls):
        # A layer that scores all its query rows, then the CLS-row cases.
        Q, K = np.random.default_rng(40).normal(size=(2, 3, 2, 5, 4))
        cases = [(Q, K, QpaParams(0.5, 0.1, -0.2, 0.3, 0.2), 4)]
        for case in CLS_BACKWARD_TILES:
            Q, K, p, _, depth, _ = tile_case(case)
            cases.append((Q, K, p, depth))
        calls = count_calls(circuit, "_angle_features")
        for Q, K, p, depth in cases:
            (Q if side == "q" else K)[-1, -1, -1, depth - 1] = bad
            with pytest.raises(circuit.NonFiniteInputError, match=f"^{side} must be finite$"):
                scorers.quantum_scores_with_features(Q, K, p, depth)
            assert not calls, Q.shape

    def test_array_valued_parameters_raise(self):
        Q, K = np.random.default_rng(41).normal(size=(2, 2, 5, 4))
        p = QpaParams(np.array([0.5, 0.6]), 0.1, -0.2, 0.3, 0.2)
        for query_rows in (5, 1):  # the CLS row alone takes its own path
            with pytest.raises(ValueError, match="one parameter set"):
                scorers.quantum_scores_with_features(Q[..., :query_rows, :], K, p, 4)

    def test_working_memory_does_not_grow_with_the_batch(self):
        # Traced peak of the call, less its outputs A and the features it
        # saves (F and G, or P for the CLS row alone), two heads, N=17,
        # D=16: one tile's temporaries.
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.2)

        def excess(batch, query_rows):
            Q, K = np.random.default_rng(42).normal(size=(2, batch, 2, 17, 16))
            Q = Q[..., :query_rows, :].copy()
            tracemalloc.start()
            try:
                A, saved = scorers.quantum_scores_with_features(Q, K, p, 16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            saved = saved if query_rows > 1 else (saved,)
            return peak - A.nbytes - sum(x.nbytes for x in saved)

        for query_rows in (17, 1):
            small, large = excess(8, query_rows), excess(64, query_rows)
            assert large <= 1.05 * small, (query_rows, small, large)


#: (Q shape, K shape, dA shape, depth, TILE_INPUTS, tiles) around the MLP
#: scorer's query-row tiles: a tile holds TILE_INPUTS // (N * D) query rows,
#: at least one, and whole (batch, head) items while those rows cover one.
MLP_TILES = {
    "one-query-row-per-tile": ((2, 3, 5, 4), (2, 3, 5, 4), (2, 3, 5, 5), 4, 20, 30),
    "partial-last-tile": ((7, 5, 4), (7, 5, 4), (7, 5, 5), 4, 200, 4),
    "item-larger-than-a-tile": ((2, 1, 9, 4), (2, 1, 9, 4), (2, 1, 9, 9), 4, 100, 10),
    "depth-below-head-dim": ((2, 2, 6, 5), (2, 2, 6, 5), (2, 2, 6, 6), 3, 4096, 1),
    "n17-d16": ((2, 1, 17, 16), (2, 1, 17, 16), (2, 1, 17, 17), 16, 4096, 4),
}


class TestMlpTiles:
    """`mlp_scores` and `mlp_scores_backward` across query-row tiles."""

    @pytest.mark.parametrize("variant", ["mlp49", "mlp585"])
    @pytest.mark.parametrize("case", MLP_TILES)
    def test_matches_feature_tensor_reference(
        self, case, variant, monkeypatch, feature_tensor_mlp, count_calls
    ):
        q_shape, k_shape, a_shape, depth, tile_inputs, tiles = MLP_TILES[case]
        rng = np.random.default_rng(28)
        p = scorers.init_mlp_params(variant, rng)
        p = {name: w + rng.normal(0, 0.2, w.shape) for name, w in p.items()}  # nonzero biases
        Q, K = rng.normal(0, 1.5, size=q_shape), rng.normal(0, 1.5, size=k_shape)
        dA = rng.normal(size=a_shape)
        monkeypatch.setattr(scorers, "TILE_INPUTS", tile_inputs)
        calls = count_calls(scorers, "_mlp_forward")
        A = scorers.mlp_scores(Q, K, p, depth)
        dQ, dK, grads = scorers.mlp_scores_backward(Q, K, p, depth, dA)
        assert len(calls) == 2 * tiles  # each direction runs the forward once per tile

        ref_dQ, ref_dK, ref_grads = feature_tensor_mlp(Q, K, p, depth, dA)
        assert A.shape == a_shape
        assert close(A, feature_tensor_mlp(Q, K, p, depth), 1e-12)
        assert dQ.shape == Q.shape and close(dQ, ref_dQ, 1e-12)
        assert dK.shape == K.shape and close(dK, ref_dK, 1e-12)
        assert list(grads) == list(p)
        for name, ref in ref_grads.items():
            assert grads[name].shape == p[name].shape and close(grads[name], ref, 1e-12), name
        assert not dQ[..., depth:].any() and not dK[..., depth:].any()

    @pytest.mark.parametrize("variant", ["mlp49", "mlp585"])
    def test_working_memory_does_not_grow_with_batch_or_tokens(self, variant):
        # Traced peak of the backward, less its outputs, at B=8 and 64 and at
        # N=17 and 50 (two heads, D=16): the tiles bound it. On the feature
        # tensor it grew with B N^2.
        def excess(batch, n):
            rng = np.random.default_rng(29)
            p = scorers.init_mlp_params(variant, rng)
            Q, K = rng.normal(size=(2, batch, 2, n, 16))
            dA = rng.normal(size=(batch, 2, n, n))
            tracemalloc.start()
            try:
                dQ, dK, _ = scorers.mlp_scores_backward(Q, K, p, 16, dA)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - dQ.nbytes - dK.nbytes

        small = excess(8, 17)
        for batch, n in [(64, 17), (8, 50)]:
            assert excess(batch, n) <= 1.05 * small, (batch, n, small)


#: The four pairwise entry points as f(Q, K, dA) at depth 3; the forwards
#: take no score gradient.
PAIRWISE = {
    "qpa_scores": lambda Q, K, dA: scorers.qpa_scores(Q, K, QpaParams(0.5, 0.1, -0.2, 0.3, 0.2), 3),
    "quantum_scores_backward": lambda Q, K, dA: scorers.quantum_scores_backward(
        Q, K, QpaParams(0.5, 0.1, -0.2, 0.3, 0.2), 3, dA
    ),
    "mlp_scores": lambda Q, K, dA: scorers.mlp_scores(
        Q, K, scorers.init_mlp_params("mlp49", np.random.default_rng(0)), 3
    ),
    "mlp_scores_backward": lambda Q, K, dA: scorers.mlp_scores_backward(
        Q, K, scorers.init_mlp_params("mlp49", np.random.default_rng(0)), 3, dA
    ),
}

#: (Q shape, K shape, dA shape) the pairwise scorers refuse: Q and K must
#: share their leading axes, and dA must be (..., N_q, N_k) on those axes.
BAD_LAYOUTS = {
    "unequal-leading-axes": ((2, 1, 5, 4), (1, 3, 5, 4), (2, 3, 5, 5)),
    "scores-missing-an-axis": ((2, 3, 5, 4), (2, 3, 5, 4), (3, 5, 5)),
    "scores-wrong-key-count": ((2, 3, 5, 4), (2, 3, 6, 4), (2, 3, 5, 5)),
}


class TestInputLayout:
    """The pairwise scorers take Q and K with the same leading axes."""

    @pytest.mark.parametrize(
        "name, case",
        [
            (name, case)
            for name in PAIRWISE
            for case in BAD_LAYOUTS
            if name.endswith("_backward") or case == "unequal-leading-axes"
        ],
    )
    def test_other_layouts_raise_naming_the_shapes(self, name, case):
        q_shape, k_shape, a_shape = BAD_LAYOUTS[case]
        shapes = (q_shape, k_shape) if name.endswith("_scores") else (q_shape, k_shape, a_shape)
        rng = np.random.default_rng(39)
        Q, K, dA = (rng.normal(size=shape) for shape in (q_shape, k_shape, a_shape))
        message = "same leading axes.*" + re.escape(", ".join(map(str, shapes)))
        with pytest.raises(ValueError, match=message):
            PAIRWISE[name](Q, K, dA)


def primitive_cases(rng):
    # {name: (function, arguments)} of the classical primitives that finish
    # in place, on ViT-like shapes: B=2, H=2, N=5, hidden 8, MLP 16.
    x, dout = rng.normal(size=(2, 2, 5, 8))
    f1, da1, phi = rng.normal(size=(3, 2, 5, 16))
    Q, K, dA, P = rng.normal(size=(4, 2, 2, 5, 5))
    xhat = rng.normal(size=(2, 5, 8))
    inv = rng.uniform(0.5, 2, size=(2, 5, 1))
    g, b = rng.normal(size=(2, 8))
    return {
        "row_softmax": (scorers.row_softmax, (dA,)),
        "row_softmax_backward": (scorers.row_softmax_backward, (P, dA)),
        "dot_scores": (scorers.dot_scores, (Q, K)),
        "dot_scores_backward": (scorers.dot_scores_backward, (Q, K, dA)),
        "_linear": (vit._linear, (f1, rng.normal(size=(8, 16)), g)),
        "_layernorm": (vit._layernorm, (x, g, b)),
        "_layernorm_backward": (vit._layernorm_backward, (dout, g, (xhat, inv))),
        "_gelu_backward": (vit._gelu_backward, (da1, f1, phi)),
    }


#: The train-dot-n50 model of the benchmark: 28x28 images, patch 4 (N=50),
#: one layer, two heads, hidden 32, MLP 64.
TRAIN_DOT_N50 = vit.VitConfig(28, 1, 4, 1, 2, 32, 64, 2, scorer="dot")

#: What `vit.backward` reads from each layer's cache of `vit._forward`.
LAYER_CACHE = {"ln1", "h", "qh", "kh", "vh", "merged", "ln2", "h2", "f1", "gelu_phi", "a1"}


class TestClassicalWorkingSet:
    """The ViT's classical layers hold each array only until its last use."""

    @pytest.mark.parametrize("name", primitive_cases(np.random.default_rng(0)))
    def test_primitives_leave_their_arguments_unchanged(self, name):
        f, args = primitive_cases(np.random.default_rng(31))[name]
        flat = [a for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))]
        before = [a.copy() for a in flat]
        f(*args)
        for i, (a, copy) in enumerate(zip(flat, before)):
            assert a.tobytes() == copy.tobytes(), i

    @pytest.mark.parametrize("kind", scorers.KINDS)
    def test_backward_leaves_images_and_params_unchanged(self, kind):
        config = vit.VitConfig(8, 1, 4, 2, 2, 8, 16, 2, scorer=kind, depth=4)
        model = vit.init_model(config, 7)
        images = np.random.default_rng(32).uniform(0, 1, size=(3, 1, 8, 8))
        before = images.copy(), {k: p.copy() for k, p in model.params.items()}
        vit.backward(model, images, np.array([0, 1, 0]))
        assert images.tobytes() == before[0].tobytes()
        for k, p in model.params.items():
            assert p.tobytes() == before[1][k].tobytes(), k

    def test_dot_step_working_memory(self):
        # Traced peak of one `dot` backward at the train-dot-n50 shape, B=32:
        # 19.4 MiB while the caches lived to the end of the step and the
        # primitives built temporaries, about 8.2 MiB without.
        model = vit.init_model(TRAIN_DOT_N50, 1)
        rng = np.random.default_rng(33)
        images = rng.uniform(0, 1, size=(32, 1, 28, 28))
        labels = rng.integers(0, 2, size=32)
        tracemalloc.start()
        try:
            vit.backward(model, images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 2**20, peak

    @pytest.mark.parametrize("kind", ["dot", "linear", "qpa"])
    def test_backward_reads_exactly_the_cached_arrays(self, kind, monkeypatch):
        # `backward` pops each entry at its read, so the caches it is handed
        # end empty exactly when it read every array they held.
        config = vit.VitConfig(8, 1, 4, 2, 2, 8, 16, 2, scorer=kind, depth=4)
        model = vit.init_model(config, 8)
        images = np.random.default_rng(34).uniform(0, 1, size=(3, 1, 8, 8))
        filled = {}
        out = vit._forward(model, images, caches=filled)
        layers = list(filled["layers"])
        expected = LAYER_CACHE | ({"attn_probs"} if scorers.KINDS[kind].scores else set())
        expected |= {"scorer_saved"} if scorers.KINDS[kind].train_scores else set()
        assert [set(lc) for lc in layers] == [expected] * 2
        monkeypatch.setattr(vit, "_forward", lambda *_, caches: caches.update(filled) or out)
        vit.backward(model, images, np.array([0, 1, 0]))
        assert filled["layers"] == [] and layers == [{}, {}]

    def test_forward_working_memory_is_flat_in_depth(self):
        # Traced peak of one `dot` forward at the train-dot-n50 shape, B=32:
        # 7.75, 14.86 and 28.29 MiB at 1, 2 and 4 layers while the forward
        # built the backward's cache; one layer's arrays at a time, only
        # `backward` asks for a cache.
        images = np.random.default_rng(35).uniform(0, 1, size=(32, 1, 28, 28))
        peaks = {}
        for layers in (2, 4):
            model = vit.init_model(dataclasses.replace(TRAIN_DOT_N50, num_layers=layers), 1)
            vit.forward(model, images)  # warm call
            tracemalloc.start()
            try:
                vit.forward(model, images)
                peaks[layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[4] - peaks[2]) <= 0.25 * 2**20, peaks
        assert peaks[4] < 10.5 * 2**20, peaks

    @pytest.mark.parametrize("scorer", ["dot", "qpa"])
    def test_second_layer_adds_no_working_memory(self, scorer):
        # Traced peak of one forward at B=32, N=50: with the first layer's
        # activations still bound while the second ran, 7.56 -> 9.62 MiB
        # (`dot`) and 24.07 -> 28.80 MiB (`qpa`) from one layer to two. The
        # last layer runs its query side on the CLS row alone and holds less
        # than a full one, so the second full layer is the one compared.
        images = np.random.default_rng(36).uniform(0, 1, size=(32, 1, 28, 28))
        peaks = {}
        for layers in (2, 3):
            config = dataclasses.replace(TRAIN_DOT_N50, num_layers=layers, scorer=scorer)
            model = vit.init_model(config, 1)
            vit.forward(model, images)  # warm call
            tracemalloc.start()
            try:
                vit.forward(model, images)
                peaks[layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] - peaks[2] < 2**20, peaks


class TestProperties:
    """Bounds and identities that hold for any parameters and inputs."""

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
        n=st.integers(1, 6),
        head_dim=st.integers(1, 5),
        depth_cut=st.integers(0, 4),
        scale=st.floats(0.01, 4.0),
        kind=st.sampled_from(["qpa", "qpa-ind"]),
        channel=st.sampled_from(sorted(qcore.CHANNELS)),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_score_bounds_softmax_rows_and_phase_flip(
        self, theta, n, head_dim, depth_cut, scale, kind, channel, gamma, seed
    ):
        rng = np.random.default_rng(seed)
        depth = max(1, head_dim - depth_cut)
        Q, K = rng.normal(0, scale, size=(2, 2, n, head_dim))
        A = scorers.KINDS[kind].scores(Q, K, {"qpa": np.array(theta)}, depth, None)
        p = QpaParams.from_array(np.array(theta))
        p = ablation(p) if kind == "qpa-ind" else p
        assert A.shape == (2, n, n)
        assert A.min() >= -1e-12 and A.max() <= depth + 1e-12
        for scores in (A, A * rng.uniform(1, 1e3)):
            assert np.abs(scorers.row_softmax(scores).sum(axis=-1) - 1).max() <= 1e-12

        qs, ks = Q[..., :, None, :depth], K[..., None, :, :depth]
        noisy = circuit.score_noisy_batch(qs, ks, p, channel, gamma)
        assert noisy.min() >= -1e-12 and noisy.max() <= 1 + 1e-12
        clean = circuit.score_batch(qs, ks, p)
        phase_flip = circuit.score_noisy_batch(qs, ks, p, "PF", gamma)
        assert np.abs(phase_flip - clean).max() <= 1e-12


@pytest.mark.parametrize("name", scorers.KINDS)
class TestKindTable:
    HEADS = 2

    def layer_params(self, name):
        return scorers.KINDS[name].init(np.random.default_rng(22), self.HEADS)

    def test_init_matches_shapes_and_param_spec(self, name):
        from qpattn import vit

        kind = scorers.KINDS[name]
        p = self.layer_params(name)
        shapes = kind.shapes(self.HEADS)
        assert {k: v.shape for k, v in p.items()} == shapes
        config = vit.VitConfig(8, 1, 4, 2, self.HEADS, 8, 16, 2, scorer=name, depth=4)
        spec = vit.param_spec(config)
        for layer in range(2):
            prefix = f"layers.{layer}.scorer."
            layer_spec = {k.removeprefix(prefix): v for k, v in spec.items() if k.startswith(prefix)}
            assert list(layer_spec.items()) == list(shapes.items())

    def test_scores_and_backward_cover_every_param(self, name):
        kind = scorers.KINDS[name]
        if kind.scores is None:  # linear attention: no score matrix, no softmax
            assert kind.backward is None and not kind.shapes(self.HEADS)
            return
        rng = np.random.default_rng(23)
        Q, K = rng.normal(size=(2, 1, self.HEADS, 3, 4))
        dA = rng.normal(size=(1, self.HEADS, 3, 3))
        p = self.layer_params(name)
        A = kind.scores(Q, K, p, 4, None)
        assert A.shape == dA.shape
        dQ, dK, grads = kind.backward(Q, K, p, 4, dA)
        assert dQ.shape == Q.shape and dK.shape == K.shape
        assert set(grads) == set(p)
        for key, g in grads.items():
            assert np.shape(g) == p[key].shape, key

    def test_circuit_params_are_the_stored_ones_with_the_pinned_at_zero(self, name):
        kind = scorers.KINDS[name]
        if name not in ("qpa", "qpa-ind"):
            assert kind.circuit_params is None and not kind.quantum
            return
        assert kind.quantum
        rng = np.random.default_rng(24)
        pinned = np.isin(circuit.PARAM_NAMES, ("gamma_d", "gamma_s"))
        for _ in range(3):
            p = {"qpa": rng.normal(size=5)}
            theta = kind.circuit_params(p).to_array()
            if name == "qpa":
                assert np.array_equal(theta, p["qpa"])
            else:
                assert np.array_equal(theta, np.where(pinned, 0.0, p["qpa"]))
                assert not theta[pinned].any()
            # The kind's scores are `qpa_scores` at those parameters, on a layer
            # of all N query rows and on a CLS row alike.
            for n_q in (3, 1):
                Q = rng.normal(size=(2, self.HEADS, n_q, 4))
                K = rng.normal(size=(2, self.HEADS, 3, 4))
                for noise in (None, ("AD", 0.1)):
                    A = scorers.qpa_scores(Q, K, kind.circuit_params(p), 4, noise)
                    assert np.array_equal(kind.scores(Q, K, p, 4, noise), A)
