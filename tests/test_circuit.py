"""Scoring circuit tests: closed forms, gradients, sampling, noise.

Statevector expectations are rebuilt from qcore gate primitives (or raw kron
products) so the scalar score path, the vectorised batch path, and the
analytic closed forms are checked against each other from independent routes.
"""

import dataclasses
import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from qpattn import circuit, qcore, scorers
from qpattn.circuit import QpaParams

ORIGIN_MU = 0.8535533905932737  # cos^2(pi/8)


def random_params(rng, scale=0.8):
    return QpaParams.from_array(rng.normal(0, scale, size=5))


def random_params_array(rng, shape, scale=0.8):
    # Parameters with one set per element of ``shape``.
    return QpaParams.from_array(rng.normal(0, scale, size=(5,) + shape))


def ablation(p):
    # The parameters at which the `qpa` circuit is the independent-encoding one.
    return dataclasses.replace(p, gamma_d=0.0, gamma_s=0.0)


def fast_path_params(p, independent):
    # Parameters at which the fast path computes what `score(..., independent)` does.
    return ablation(p) if independent else p


class TestQpaParams:
    def test_derived_quantities(self):
        p = QpaParams(0.5, 0.1, 0.2, 0.0, 0.0)
        assert p.lambda1 == pytest.approx(0.8, abs=1e-15)
        assert p.lambda2 == pytest.approx(0.1, abs=1e-15)
        assert p.omega_d == pytest.approx(0.7, abs=1e-15)
        assert p.omega_s == pytest.approx(0.9, abs=1e-15)

    def test_identity_lambda_omega(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = random_params(rng)
            assert p.lambda1 + p.lambda2 == pytest.approx(p.omega_s, abs=1e-12)
            assert p.lambda1 - p.lambda2 == pytest.approx(p.omega_d, abs=1e-12)

    def test_init_random(self):
        rng = np.random.default_rng(1)
        draws = [QpaParams.init_random(rng) for _ in range(300)]
        assert all(p.theta_s == 0.5 for p in draws)
        rest = np.array([[p.gamma_d, p.gamma_s, p.alpha, p.beta] for p in draws])
        assert abs(rest.mean()) < 0.02
        assert abs(rest.std() - 0.1) < 0.02

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QpaParams(np.nan, 0, 0, 0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "wrap",
        [float, np.float64, lambda v: np.array([0.1, v, 0.2]), lambda v: np.array(v)],
        ids=["float", "np-float64", "array", "0-d-array"],
    )
    def test_refuses_non_finite_in_every_field_and_kind(self, bad, wrap):
        # Float fields are checked without numpy, arrays with it: both refuse
        # alike, naming the field.
        for i, name in enumerate(circuit.PARAM_NAMES):
            values = [0.5, 0.1, -0.2, 0.3, 0.1]
            values[i] = wrap(bad)
            with pytest.raises(ValueError, match=f"^parameter {name} must be finite$"):
                QpaParams(*values)

    def test_accepts_finite_values_of_every_kind(self):
        for value in (0, 0.25, np.float64(-1e300), np.float32(2.0), np.array([0.1, -0.2]), True):
            assert QpaParams(value, 0.1, -0.2, 0.3, 0.1).theta_s is value

    def test_array_round_trip(self):
        p = QpaParams(0.5, -0.1, 0.2, 0.3, -0.4)
        assert QpaParams.from_array(p.to_array()) == p
        with pytest.raises(ValueError):
            QpaParams.from_array(np.zeros(4))

    def test_from_array_with_trailing_axes_gives_array_fields(self):
        values = np.random.default_rng(24).normal(size=(5, 3, 2))
        p = QpaParams.from_array(values)
        assert np.array_equal(p.to_array(), values)
        assert p.lambda1.shape == (3, 2)
        for bad in (np.zeros((4, 3)), np.float64(0.5)):
            with pytest.raises(ValueError, match="expected 5 parameters"):
                QpaParams.from_array(bad)

    def test_rejects_one_non_finite_element(self):
        values = np.zeros((5, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="parameter gamma_d must be finite"):
            QpaParams.from_array(values)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fourier_form_refuses_array_valued_parameters(self, n):
        p = random_params_array(np.random.default_rng(n), (n,))
        with pytest.raises(ValueError, match="one parameter set"):
            circuit.score_batch(np.zeros(n), np.zeros(n), p)
        with pytest.raises(ValueError, match="one parameter set"):
            circuit.score_noisy_batch(np.zeros(n), np.zeros(n), p, "AD", 0.1)


class TestEquivalentAngles:
    def test_origin_offset_only(self):
        p = QpaParams(0.5, 0.1, 0.2, 0.3, 0.4)
        assert circuit.equivalent_angles(0.0, 0.0, p) == (np.pi / 4, np.pi / 4)

    def test_single_scale(self):
        p = QpaParams(0.5, 0.0, 0.0, 0.0, 0.0)
        phi0, phi1 = circuit.equivalent_angles(1.0, 0.0, p)
        assert phi0 == pytest.approx(np.pi / 4 + 0.5, abs=1e-15)
        assert phi1 == pytest.approx(np.pi / 4, abs=1e-15)

    def test_swap_property(self):
        # Exchanging the inputs exchanges the two angles.
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_params(rng)
            q, k = rng.normal(0, 2, 2)
            phi0, phi1 = circuit.equivalent_angles(q, k, p)
            swapped = circuit.equivalent_angles(k, q, p)
            assert swapped == pytest.approx((phi1, phi0), abs=1e-12)

    def test_rejects_non_finite(self):
        p = QpaParams(0.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            circuit.equivalent_angles(np.inf, 0.0, p)

    def test_array_form_equals_scalar_calls(self):
        rng = np.random.default_rng(23)
        p = random_params(rng)
        qs, ks = rng.normal(0, 2, size=(6, 1)), rng.normal(0, 2, size=(1, 5))
        phi0, phi1 = circuit.equivalent_angles(qs, ks, p)
        assert phi0.shape == phi1.shape == (6, 5)
        for (i, j), _ in np.ndenumerate(phi0):
            scalar = circuit.equivalent_angles(qs[i, 0], ks[0, j], p)
            assert np.array([phi0[i, j], phi1[i, j]]).tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_any_non_finite_element(self, bad):
        p = QpaParams(0.5, 0, 0, 0, 0)
        qs = np.array([0.1, bad, 0.3])
        with pytest.raises(ValueError, match="q must be finite"):
            circuit.equivalent_angles(qs, 0.0, p)
        with pytest.raises(ValueError, match="k must be finite"):
            circuit.equivalent_angles(np.zeros(3), qs, p)


class TestBuildState:
    def test_all_zero_params_is_encoded_state_through_cnots(self):
        p = QpaParams(0.0, 0.0, 0.0, 0.0, 0.0)
        expected = qcore.apply_single(qcore.ZERO_STATE, qcore.ry(np.pi / 4), 0)
        expected = qcore.apply_single(expected, qcore.ry(np.pi / 4), 1)
        expected = qcore.apply_cnot(expected, 0, 1)
        expected = qcore.apply_cnot(expected, 1, 0)
        assert np.allclose(circuit.build_state(0.0, 0.0, p), expected, atol=1e-15)

    def test_norm_one_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = random_params(rng, 1.5)
            q, k = rng.normal(0, 3, 2)
            state = circuit.build_state(q, k, p)
            assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_origin_score_with_zero_mixer(self):
        # At q = k = 0 with beta = 0 the score is cos^2(pi/8) for any
        # encoding/entangling parameters (the entangling angle vanishes).
        rng = np.random.default_rng(4)
        for _ in range(20):
            ts, gd, gs, al = rng.normal(0, 1, 4)
            p = QpaParams(ts, gd, gs, al, 0.0)
            assert circuit.score(0.0, 0.0, p) == pytest.approx(ORIGIN_MU, abs=1e-12)


class TestScore:
    def test_bounded(self):
        rng = np.random.default_rng(5)
        qs, ks = rng.normal(0, 3, (2, 10_000))
        p = random_params(rng, 3.0)
        mu = circuit.score_batch(qs, ks, p)
        assert mu.min() >= -1e-12 and mu.max() <= 1 + 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        qs, ks = rng.normal(0, 2, (2, 50))
        batch = circuit.score_batch(qs, ks, p)
        for q, k, m in zip(qs, ks, batch):
            assert circuit.score(q, k, p) == pytest.approx(m, abs=1e-13)

    def test_degenerate_alpha_beta_zero_projects_qubit0(self):
        # With alpha = beta = 0 the score is cos^2(pi/8 + lambda1/2 q + lambda2/2 k):
        # constant in the input whose coefficient is lambda2 = 0 here.
        p = QpaParams(0.5, 0.0, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            q, k1, k2 = rng.normal(0, 2, 3)
            mu = circuit.score(q, k1, p)
            assert mu == pytest.approx(circuit.score(q, k2, p), abs=1e-12)
            assert mu == pytest.approx(np.cos(np.pi / 8 + 0.25 * q) ** 2, abs=1e-12)

    def test_degenerate_closed_form_general_params(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = QpaParams(*rng.normal(0, 0.8, 3), 0.0, 0.0)
            q, k = rng.normal(0, 2, 2)
            closed = np.cos(np.pi / 8 + p.lambda1 / 2 * q + p.lambda2 / 2 * k) ** 2
            assert circuit.score(q, k, p) == pytest.approx(closed, abs=1e-12)

    def test_swap_conjugation_structure(self):
        # The source of score asymmetry: swapping the qubits commutes with the
        # encoding (up to swapping inputs) and with the mixer, but not with
        # the entangler.
        swap = np.eye(4, dtype=complex)[:, [0, 2, 1, 3]]
        eye = np.eye(2, dtype=complex)
        cnot01 = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]
        cnot10 = np.eye(4, dtype=complex)[:, [0, 3, 2, 1]]
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)

            def u_enc(a, b):
                phi0, phi1 = circuit.equivalent_angles(a, b, p)
                return np.kron(qcore.ry(phi0), qcore.ry(phi1))

            assert np.allclose(swap @ u_enc(q, k) @ swap, u_enc(k, q), atol=1e-12)
            mixer = np.kron(qcore.rx(2 * p.beta), qcore.rx(2 * p.beta))
            assert np.allclose(swap @ mixer @ swap, mixer, atol=1e-12)
            u_ent = cnot10 @ np.kron(eye, qcore.ry(p.alpha * (q + k))) @ cnot01
            conj = swap @ u_ent @ swap
            if abs(p.alpha * (q + k)) > 1e-3:
                assert np.abs(conj - u_ent).max() > 1e-6

    def test_asymmetry_witness_exists(self):
        rng = np.random.default_rng(9)
        axis = np.linspace(-2, 2, 20)
        qq, kk = np.meshgrid(axis, axis, indexing="ij")
        for _ in range(10):
            while True:
                p = random_params(rng)
                if abs(p.alpha) > 0.05 and abs(p.lambda1 - p.lambda2) > 0.05:
                    break
            gap = np.abs(circuit.score_batch(qq, kk, p) - circuit.score_batch(kk, qq, p))
            assert gap.max() > 1e-6

    def test_non_monotone_in_distance(self):
        p = QpaParams(1.0, 0.0, 0.0, 0.1, 0.1)  # omega_d = omega_s = 1
        qs = np.arange(0.0, 12.0001, 0.05)
        mu = circuit.score_batch(qs, np.zeros_like(qs), p)
        found = any(
            mu[i] < mu[i - 1] and mu[i] < mu[i + 1] and mu[i:].max() - mu[i] >= 0.05
            for i in range(1, len(mu) - 1)
        )
        assert found


class TestEncodingOnly:
    def test_origin(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            assert circuit.score_encoding_only(0.0, 0.0, random_params(rng)) == 0.75

    def test_single_scale_value(self):
        p = QpaParams(0.5, 0.0, 0.0, 0.0, 0.0)  # omega_d = omega_s = 0.5
        expected = 0.5 + 0.25 * np.cos(0.5) - 0.25 * np.sin(0.5)
        assert circuit.score_encoding_only(1.0, 0.0, p) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.5995392558215424, abs=1e-12)

    def test_symmetric_in_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_params(rng)
            q, k = rng.normal(0, 2, 2)
            a = circuit.score_encoding_only(q, k, p)
            b = circuit.score_encoding_only(k, q, p)
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_encoding_state_simulation(self):
        # Independent route: joint measurement of the pre-entangler product state.
        rng = np.random.default_rng(12)
        for _ in range(500):
            p = random_params(rng)
            q, k = rng.normal(0, 2, 2)
            phi0, phi1 = circuit.equivalent_angles(q, k, p)
            state = qcore.apply_single(qcore.ZERO_STATE, qcore.ry(phi0), 0)
            state = qcore.apply_single(state, qcore.ry(phi1), 1)
            probs = qcore.measure_probs(state)
            assert circuit.score_encoding_only(q, k, p) == pytest.approx(
                probs[0] + probs[3], abs=1e-12
            )

    def test_array_form_equals_scalar_calls(self):
        rng = np.random.default_rng(24)
        p = random_params(rng)
        qs, ks = rng.normal(0, 2, size=(7, 1)), rng.normal(0, 2, size=(1, 6))
        mu = circuit.score_encoding_only(qs, ks, p)
        scalar = [[circuit.score_encoding_only(q, k, p) for k in ks[0]] for q in qs[:, 0]]
        assert mu.shape == (7, 6)
        assert mu.tobytes() == np.array(scalar).tobytes()

    def test_rejects_any_non_finite_element(self):
        p = QpaParams(0.5, 0.1, 0.2, 0, 0)
        with pytest.raises(ValueError, match="k must be finite"):
            circuit.score_encoding_only(np.zeros(3), np.array([0.0, np.nan, 1.0]), p)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-4
        for _ in range(60):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            g = circuit.score_gradient(q, k, p)
            exact = np.concatenate([g.param_array(), [g.d_q, g.d_k]])
            vec = np.concatenate([p.to_array(), [q, k]])
            for j in range(7):
                up, dn = vec.copy(), vec.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    circuit.score(up[5], up[6], QpaParams.from_array(up[:5]))
                    - circuit.score(dn[5], dn[6], QpaParams.from_array(dn[:5]))
                ) / (2 * h)
                assert abs(fd - exact[j]) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batch_rejects_non_finite_inputs_as_score_does(self, bad):
        p = QpaParams(0.5, 0.1, 0.2, 0.3, 0.4)
        for q, k in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError) as expected:
                circuit.score(q, k, p)
            with pytest.raises(ValueError) as got:
                circuit.score_grad_batch(np.array([0.0, q]), np.array([[0.0], [k]]), p)
            assert str(got.value) == str(expected.value)

    def test_independent_encoding_gradient(self):
        # At gamma_d = gamma_s = 0 the qpa gradient is the ablation's, checked
        # against the statevector independent encoding (which ignores gammas).
        rng = np.random.default_rng(14)
        h = 1e-4
        for _ in range(30):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            g = circuit.score_gradient(q, k, ablation(p))
            vec = np.concatenate([p.to_array(), [q, k]])
            exact = np.concatenate([g.param_array(), [g.d_q, g.d_k]])
            for j in (0, 3, 4, 5, 6):  # theta_s, alpha, beta, q, k
                up, dn = vec.copy(), vec.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    circuit.score(up[5], up[6], QpaParams.from_array(up[:5]), independent=True)
                    - circuit.score(dn[5], dn[6], QpaParams.from_array(dn[:5]), independent=True)
                ) / (2 * h)
                assert abs(fd - exact[j]) < 1e-6

    def test_zero_gradient_at_score_maximum(self):
        # phi0 = 0 at q = -pi/2 makes mu = 1 exactly (interior maximum).
        p = QpaParams(0.5, 0.0, 0.0, 0.0, 0.0)
        q, k = -np.pi / 2, 0.0
        assert circuit.score(q, k, p) == pytest.approx(1.0, abs=1e-14)
        g = circuit.score_gradient(q, k, p)
        norm = np.linalg.norm(np.concatenate([g.param_array(), [g.d_q, g.d_k]]))
        assert norm <= 1e-5

    def test_beta_gradient_vanishes_on_mixer_invariant_state(self):
        # phi0 = phi1 = pi/2 with a vanishing entangler leaves the pre-mixer
        # state in the equal superposition, an RX(x)RX eigenstate.
        p = QpaParams(0.5, 0.0, 0.0, 0.0, 0.3)
        q = k = np.pi / 2  # pi/4 + 0.5 * (pi/2) = pi/2
        mus = [circuit.score(q, k, QpaParams(0.5, 0, 0, 0, b)) for b in (-0.7, 0.0, 0.3, 1.1)]
        assert max(mus) - min(mus) < 1e-12
        g = circuit.score_gradient(q, k, p)
        assert abs(g.d_beta) < 1e-12


class TestFourierForm:
    @staticmethod
    def series(coeffs, q, k, params):
        x = np.tensordot(params.to_array(), circuit.ANGLE_JACOBIAN, 1) @ [q, k]
        return float((coeffs * np.exp(1j * (circuit.FOURIER_FREQS @ x))).sum().real)

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("beta", [0.0, 0.3, np.pi / 2, 7.0])
    def test_series_matches_statevector_score_and_beta_partial(self, independent, beta):
        rng = np.random.default_rng(40)
        c, dc = circuit.fourier_coefficients(beta)
        assert c[0] == pytest.approx(0.5, abs=1e-15)  # the constant term
        for _ in range(5):
            p = QpaParams(*rng.normal(0, 1, 4), beta)
            q, k = rng.normal(0, 2, size=2)
            mu = circuit.score(q, k, p, independent)
            fast = fast_path_params(p, independent)
            assert self.series(c, q, k, fast) == pytest.approx(mu, abs=1e-12)
            d_beta = circuit.score_gradient(q, k, fast).d_beta
            assert self.series(dc, q, k, fast) == pytest.approx(d_beta, abs=1e-12)

    def test_coefficients_span_a_plane_with_fixed_constant(self):
        # mu = 1/2 + a(beta) h_1(q, k) + b(beta) h_2(q, k) for fixed W: beta
        # only mixes two fixed Fourier shapes.
        rows = []
        for beta in np.linspace(-np.pi, np.pi, 61):
            c, dc = circuit.fourier_coefficients(beta)
            assert c[0] == 0.5 and dc[0] == 0
            assert abs(abs(c[3]) - abs(c[2])) <= 1e-15
            assert np.abs(np.abs(c[4:]) - abs(c[2]) / 2).max() <= 1e-15
            rows.append(np.concatenate([c[1:].real, c[1:].imag]))
        singular = np.linalg.svd(np.array(rows), compute_uv=False)
        assert singular[1] > 1.0 and singular[2] < 1e-13

    @pytest.mark.parametrize("independent", [False, True], ids=["qpa", "qpa-ind"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, np.pi / 2, 7.0])
    def test_score_batch_matches_real_amplitude(self, independent, beta):
        # The batch forward sums the series; the real-amplitude evaluator walks
        # the gates. Broadcast (50, 1, 16) x (1, 50, 16): 40000 pairs.
        rng = np.random.default_rng(42)
        p = fast_path_params(QpaParams(*rng.normal(0, 0.8, 4), beta), independent)
        qs = rng.normal(0, 1.5, size=(50, 1, 16))
        ks = rng.normal(0, 1.5, size=(1, 50, 16))
        mu = circuit.score_batch(qs, ks, p)
        ref = circuit.score_grad_batch(qs, ks, p)[0]
        assert mu.shape == ref.shape == (50, 50, 16)
        assert np.abs(mu - ref).max() <= 1e-13

    def test_angle_jacobian_reproduces_gate_angles(self):
        rng = np.random.default_rng(41)
        p = random_params(rng)
        q, k = rng.normal(size=2)
        x = np.tensordot(p.to_array(), circuit.ANGLE_JACOBIAN, 1) @ [q, k]
        phi0, phi1 = circuit.equivalent_angles(q, k, p)
        expected = [phi0 - circuit.ANGLE_OFFSET, phi1 - circuit.ANGLE_OFFSET, p.alpha * (q + k)]
        assert np.allclose(x, expected, atol=1e-14)
        # The ablation's encoding is the three-step one at gamma_d = gamma_s = 0.
        for _ in range(50):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, size=2)
            got = np.array(circuit.equivalent_angles(q, k, ablation(p)))
            assert got.tobytes() == np.array(circuit.independent_angles(q, k, p)).tobytes()


def real_amplitude_mu(qs, ks, p, noise=None):
    # The oracles: the real-amplitude evaluator walks the gates at every
    # pair; under a noise channel the density-matrix statevector path does.
    if noise is None:
        return circuit.score_grad_batch(qs, ks, p)[0]
    return np.asarray(circuit.score_noisy(qs, ks, p, *noise))


def pair_scores(qs, ks, p, noise=None):
    if noise is None:
        return circuit.score_batch(qs, ks, p)
    return circuit.score_noisy_batch(qs, ks, p, *noise)


#: Broadcast layouts of (q, k), outer and elementwise, including empty and
#: degenerate ones.
PAIR_LAYOUTS = {
    "attention": ((2, 3, 5, 1, 4), (2, 3, 1, 6, 4)),  # (B, H, N, 1, D) x (B, H, 1, N, D)
    "rows-by-columns": ((5, 1), (1, 6)),
    "scalars": ((), ()),
    "elementwise": ((3, 7), (3, 7)),
    "mixed-rank": ((6,), (4, 1)),
    "size-1-on-both-sides": ((1, 4, 1, 2), (1, 1, 3, 2)),
    "empty-rows": ((0, 1), (1, 3)),
    "empty-batch": ((2, 0, 3), (2, 1, 3)),
    "empty-elementwise": ((0,), (0,)),
}

NOISE = [None] + [(channel, 0.13) for channel in sorted(qcore.CHANNELS)]

#: (q shape, k shape) of large calls: elementwise, the CLS row against its
#: keys, and an outer layout (every query row against every key).
LARGE_LAYOUTS = {
    "elementwise-10000": ((10_000,), (10_000,)),
    "cls-row-n50": ((2, 2, 1, 1, 16), (2, 2, 1, 50, 16)),
    "attention-n197": ((1, 2, 197, 1, 16), (1, 2, 1, 197, 16)),
}


class TestPairGemm:
    """`score_batch` / `score_noisy_batch` on every broadcast layout.

    The name dates from when outer layouts took a feature GEMM; the circuit
    now has one evaluator, the per-pair sum, and this is its broadcast test.
    """

    @pytest.mark.parametrize("noise", NOISE, ids=lambda n: n[0] if n else "clean")
    @pytest.mark.parametrize("layout", PAIR_LAYOUTS)
    def test_matches_real_amplitude(self, layout, noise):
        rng = np.random.default_rng(43)
        p = random_params(rng)
        q_shape, k_shape = PAIR_LAYOUTS[layout]
        qs = rng.normal(0, 1.5, size=q_shape)
        ks = rng.normal(0, 1.5, size=k_shape)
        mu = pair_scores(qs, ks, p, noise)
        ref = real_amplitude_mu(qs, ks, p, noise)
        assert mu.shape == ref.shape == np.broadcast_shapes(q_shape, k_shape)
        assert np.abs(mu - ref).max(initial=0.0) <= 1e-13

    def test_python_floats_and_lists(self):
        p = random_params(np.random.default_rng(44))
        assert np.shape(circuit.score_batch(0.3, -1.2, p)) == ()
        assert float(circuit.score_batch(0.3, -1.2, p)) == pytest.approx(circuit.score(0.3, -1.2, p), abs=1e-13)
        got = circuit.score_batch([0.3, 0.1], [[-1.2], [0.4]], p)
        assert got.shape == (2, 2)
        assert got[1, 0] == pytest.approx(circuit.score(0.3, 0.4, p), abs=1e-13)

    @pytest.mark.parametrize("noise", NOISE, ids=lambda n: n[0] if n else "clean")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs_as_score_does(self, bad, noise):
        # One bad input among finite ones raises, on either side, instead of
        # scoring it NaN next to the others.
        p = QpaParams(0.5, 0.1, 0.2, 0.3, 0.4)
        for q, k in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError) as expected:
                circuit.score(q, k, p)
            with pytest.raises(ValueError) as got:
                pair_scores(np.array([q, 0.3]), np.array([[k], [0.0]]), p, noise)
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("layout", LARGE_LAYOUTS)
    def test_no_layout_builds_a_feature(self, layout, count_calls):
        # The circuit holds no tiling policy and no layout dispatch: however
        # many pairs it is given, in whatever layout, it sums each pair from
        # its base angles and builds no feature array. The attention forward
        # bounds its calls itself (`scorers.TILE_INPUTS`). The oracles check
        # 500 of the pairs.
        q_shape, k_shape = LARGE_LAYOUTS[layout]
        rng = np.random.default_rng(47)
        p = random_params(rng)
        qs = rng.normal(0, 1.5, size=q_shape)
        ks = rng.normal(0, 1.5, size=k_shape)
        shape = np.broadcast_shapes(q_shape, k_shape)
        pick = tuple(rng.integers(n, size=500) for n in shape)
        q_at, k_at = (np.broadcast_to(x, shape)[pick] for x in (qs, ks))
        calls = count_calls(circuit, "_angle_features")
        for n in NOISE:
            calls.clear()
            mu = pair_scores(qs, ks, p, n)
            assert not calls, n
            assert mu.shape == shape
            assert np.abs(mu[pick] - real_amplitude_mu(q_at, k_at, p, n)).max() <= 1e-13, n

    @pytest.mark.parametrize("noise", NOISE, ids=lambda n: n[0] if n else "clean")
    def test_direct_sum_and_gemm_agree_on_the_same_pairs(self, noise):
        # The circuit sums every layout pair by pair, so row 0 of an outer
        # call equals the CLS-row call on the same query, and its
        # elementwise form, bit for bit. The attention layers that score
        # all N query rows take one GEMM of the two sides' features
        # (`scorers._product_scores`); with one dimension per item it gives
        # the same pairs' scores to within rounding.
        rng = np.random.default_rng(50)
        p = random_params(rng)
        qs = rng.normal(0, 1.5, size=(2, 2, 5, 1, 16))
        ks = rng.normal(0, 1.5, size=(2, 2, 1, 50, 16))
        outer = pair_scores(qs, ks, p, noise)
        cls_row = pair_scores(qs[:, :, :1], ks, p, noise)
        elementwise = pair_scores(np.broadcast_to(qs[:, :, :1], ks.shape).copy(), ks, p, noise)
        assert np.array_equal(outer[:, :, :1], cls_row)
        assert np.array_equal(elementwise, cls_row)
        # (batch, head, dimension) items of 5 queries and 50 keys, D = 1.
        q_items, k_items = (np.moveaxis(x, -1, 2).reshape(-1, x.shape[2] * x.shape[3], 1) for x in (qs, ks))
        gemm = scorers._product_scores(q_items, k_items, p, circuit.score_coefficients(p, noise))
        assert np.abs(gemm - np.moveaxis(outer, -1, 2).reshape(gemm.shape)).max() <= 1e-13

    @pytest.mark.parametrize("noise", NOISE, ids=lambda n: n[0] if n else "clean")
    def test_odd_multiples_of_pi_and_large_inputs(self, noise):
        # Half-angle tangents blow up where a base angle (a, b, c) is an odd
        # multiple of pi; inputs up to 1e3 make angles of the same size.
        rng = np.random.default_rng(51)
        p = QpaParams(0.9, 0.2, -0.3, 1.4, 0.35)  # |dB/dq| >= 0.8 for each base angle
        W = np.tensordot(p.to_array(), circuit.ANGLE_JACOBIAN, 1)
        B = np.array([[1, 0, 0], [0, 1, 1], [0, 1, -1]]) @ W  # (a, b, c) per unit q and k
        ks = rng.uniform(-3, 3, size=(3, 40))
        odd = np.pi * (2 * rng.integers(-100, 100, size=(3, 40)) + 1)
        qs = (odd - B[:, 1:] * ks) / B[:, :1]  # base angle j of pair row j is odd
        large = rng.uniform(-1e3, 1e3, size=(2, 200))
        qs, ks = np.concatenate([qs.ravel(), large[0]]), np.concatenate([ks.ravel(), large[1]])
        assert np.abs(qs).max() <= 1e3
        ref = np.asarray(circuit.score(qs, ks, p) if noise is None else circuit.score_noisy(qs, ks, p, *noise))
        elementwise = pair_scores(qs, ks, p, noise)
        outer = pair_scores(qs[:, None], ks[None, :], p, noise).diagonal()
        assert np.isfinite(elementwise).all() and np.isfinite(outer).all()
        assert np.abs(elementwise - ref).max() <= 1e-12
        assert np.abs(outer - ref).max() <= 1e-12

    @pytest.mark.parametrize("layout", LARGE_LAYOUTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_before_any_tangent(self, layout, bad, count_calls):
        q_shape, k_shape = LARGE_LAYOUTS[layout]
        rng = np.random.default_rng(52)
        p = random_params(rng)
        tangents = count_calls(circuit, "_cos_sin")  # every tangent of the series
        for side in ("q", "k"):
            qs, ks = rng.normal(size=q_shape), rng.normal(size=k_shape)
            (qs if side == "q" else ks).flat[-1] = bad
            for n in NOISE:
                with pytest.raises(circuit.NonFiniteInputError, match=f"^{side} must be finite$"):
                    pair_scores(qs, ks, p, n)
        assert not tangents

    @settings(max_examples=80, deadline=None)
    @given(
        shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4, min_side=0, max_side=4),
        theta=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
        scale=st.floats(0.01, 4.0),
        noise=st.sampled_from(NOISE),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_any_broadcast_layout(self, shapes, theta, scale, noise, seed):
        rng = np.random.default_rng(seed)
        p = QpaParams.from_array(np.array(theta))
        qs = rng.normal(0, scale, size=shapes.input_shapes[0])
        ks = rng.normal(0, scale, size=shapes.input_shapes[1])
        mu = pair_scores(qs, ks, p, noise)
        assert mu.shape == shapes.result_shape
        assert np.abs(mu - real_amplitude_mu(qs, ks, p, noise)).max(initial=0.0) <= 1e-13


class TestFeatures:
    def test_phasors_match_complex_exp(self):
        theta = np.concatenate(
            [np.random.default_rng(45).normal(0, 30, 1000), np.pi * np.arange(-9, 10), [0.0, -0.0]]
        )
        assert np.abs(circuit.phasors(theta) - np.exp(1j * theta)).max() <= 1e-15
        with np.errstate(invalid="ignore"):
            assert np.isnan(circuit.phasors([np.inf, -np.inf, np.nan])).all()
        assert circuit.phasors(0.3).shape == ()
        assert abs(circuit.phasors(0.3) - np.exp(0.3j)) <= 1e-15

    def test_scalar_input(self):
        w = np.array([0.4, -1.1, 0.7])
        out = circuit.fourier_features(1.3, w)
        assert out.shape == (7,)
        expected = np.exp(1j * 1.3 * (circuit.FOURIER_FREQS[1:] @ w))
        assert np.abs(out - expected).max() <= 1e-14

    @pytest.mark.parametrize("side", [0, 1], ids=["query", "key"])
    def test_match_phasors_of_the_frequencies(self, side):
        rng = np.random.default_rng(46)
        p = random_params(rng)
        W = np.tensordot(p.to_array(), circuit.ANGLE_JACOBIAN, 1)
        w = W[:, side]
        freqs = (circuit.FOURIER_FREQS @ W)[1:, side]  # u_n (query) or v_n (key)
        x = rng.normal(0, 2, size=(3, 5))
        direct = circuit.phasors(x[..., None] * freqs)
        out = circuit.fourier_features(x, w)
        assert out.shape == x.shape + (7,)
        assert np.abs(out - direct).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (2, 3, 5, 4)], ids=str)
    def test_layout(self, shape):
        # The attention product and its backward read the result through
        # `.view(np.float64)`, which needs a C-contiguous complex array.
        x = np.random.default_rng(47).normal(0, 2, size=shape)
        out = circuit.fourier_features(x, np.array([0.4, -1.1, 0.7]))
        assert out.shape == shape + (7,)
        assert out.dtype == np.complex128 and out.flags.c_contiguous

    def test_out_takes_tiles_of_a_larger_array(self):
        # The training forward builds a layer's features tile by tile into
        # the array it hands to the backward.
        rng = np.random.default_rng(49)
        w, x = rng.normal(0, 1.5, size=3), rng.normal(0, 2, size=(5, 3, 4))
        whole = np.empty(x.shape + (7,), dtype=np.complex128)
        for tile in (slice(0, 2), slice(2, 5)):
            circuit.fourier_features(x[tile], w, out=whole[tile])
        assert np.array_equal(whole, circuit.fourier_features(x, w))
        # A strided, a real and a mis-shaped `out` would not receive the features.
        for xs, bad in [(x[:, :2], whole[:, :2]), (x, whole.real.copy()), (x, whole[:4])]:
            with pytest.raises(ValueError, match="out must be"):
                circuit.fourier_features(xs, w, out=bad)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (6, 1), (5, 50, 1), (1, 50, 1), (5, 50, 16), (3, 2, 9, 4), (0, 4, 3), (2, 0, 3)], ids=str
    )
    def test_feature_sums_equal_the_laid_out_sum_bit_for_bit(self, shape):
        # `scorers.score_sum_terms` reads these sums; the noise-sweep CSV
        # prints its mean score to 12 decimals. D = 1 would reduce the last
        # axis of complex planes, which numpy sums pairwise, not in order.
        rng = np.random.default_rng(50)
        for _ in range(5):
            w, x = rng.normal(0, 1.5, size=3), rng.normal(0, 2, size=shape)
            sums = circuit._feature_sums(x, w)
            assert sums.flags.c_contiguous
            assert np.array_equal(sums, circuit.fourier_features(x, w).sum(axis=-3))

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (2, 3, 5, 4)], ids=str)
    def test_negated_frequencies_give_conjugates_bit_for_bit(self, shape):
        # The property `fourier_features` states; it rests on an odd tangent.
        rng = np.random.default_rng(48)
        t = rng.normal(0, 3, size=10_000)
        assert np.array_equal(np.tan(-t), -np.tan(t)), "np.tan is not odd bit for bit on this build"
        for _ in range(10):
            w, x = rng.normal(0, 1.5, size=3), rng.normal(0, 2, size=shape)
            conj = np.conjugate(circuit.fourier_features(x, w))
            assert np.array_equal(circuit.fourier_features(x, -w), conj)


class TestSampled:
    def test_large_shot_limit(self):
        rng = np.random.default_rng(15)
        for i in range(20):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            mu = circuit.score(q, k, p)
            mu_hat = circuit.score_sampled(q, k, p, shots=1_000_000, seed=100 + i)
            assert abs(mu_hat - mu) <= 0.005

    def test_hundred_shot_standard_deviation(self):
        rng = np.random.default_rng(16)
        p = random_params(rng)
        q, k = rng.normal(0, 1.5, 2)
        estimates = np.array(
            [circuit.score_sampled(q, k, p, shots=100, seed=s) for s in range(1000)]
        )
        assert estimates.std(ddof=1) <= 0.05

    def test_zero_variance_at_certain_outcome(self):
        p = QpaParams(0.5, 0.0, 0.0, 0.0, 0.0)
        q = -np.pi / 2  # mu = 1 exactly
        for shots in (1, 7, 100):
            assert circuit.score_sampled(q, 0.0, p, shots=shots, seed=shots) == 1.0

    def test_reproducible_for_fixed_seed(self):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        a = circuit.score_sampled(0.3, -0.4, p, shots=500, seed=42)
        b = circuit.score_sampled(0.3, -0.4, p, shots=500, seed=42)
        assert a == b

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            circuit.score_sampled(0.0, 0.0, QpaParams(0.5, 0, 0, 0, 0), shots=0)

    @staticmethod
    def fresh_estimate(q, k, p, shots, seed):
        # The sampler with the statevector built on every call.
        probs = qcore.measure_probs(circuit.build_state(q, k, p))
        probs = probs / probs.sum()
        counts = np.random.Generator(np.random.Philox(seed)).multinomial(shots, probs)
        return float((counts[0] + counts[3]) / shots)

    def test_draws_match_a_fresh_statevector_bit_for_bit(self):
        rng = np.random.default_rng(19)
        p = random_params(rng)
        inputs = [(0.0, 0.7), (-0.0, 0.7), (0.7, -0.0), *rng.normal(0, 1.5, (4, 2))]
        for q, k in inputs:
            for seed in (0, 1, 7919, 2**31 + 3):
                for shots in (1, 25, 1600):
                    got = circuit.score_sampled(q, k, p, shots, seed=seed)
                    assert got == self.fresh_estimate(q, k, p, shots, seed)

    @pytest.mark.parametrize(
        "seed",
        [7, np.int64(7), True, np.uint64(2**64 - 1), 2**64, 2**200 + 3, [1, 2], (1, 2), np.array([1, 2])],
        ids=["int", "np-int64", "bool", "np-uint64-max", "2**64", "2**200+3", "list", "tuple", "array"],
    )
    def test_every_seed_a_fresh_generator_takes_draws_the_same(self, seed):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        for _ in range(2):  # the second call finds an integer seed's key memoized
            for shots in (1, 100, 1600):
                got = circuit.score_sampled(0.3, -0.4, p, shots, seed=seed)
                assert got == self.fresh_estimate(0.3, -0.4, p, shots, seed)
        if isinstance(seed, list):
            assert circuit.score_sampled(0.3, -0.4, p, 100, seed=seed) == 0.73

    @pytest.mark.parametrize(
        "seed, error",
        [(-1, ValueError), (np.int64(-3), ValueError), (7.0, TypeError), (np.float64(7.0), TypeError),
         ("7", TypeError), ([1, -2], ValueError), ([1, 2.0], TypeError)],
        ids=["negative", "np-negative", "float", "np-float", "str", "list-negative", "list-float"],
    )
    def test_every_seed_a_fresh_generator_refuses_is_refused_the_same(self, seed, error):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        for seven in (7, np.int64(7)):  # 7.0 == 7 must not find 7's key
            circuit.score_sampled(0.3, -0.4, p, 100, seed=seven)
        with pytest.raises(error):
            np.random.Philox(seed)
        for _ in range(2):
            with pytest.raises(error):
                circuit.score_sampled(0.3, -0.4, p, 100, seed=seed)

    def test_interleaved_seed_kinds_in_one_thread_take_fresh_draws(self):
        # Each kind of seed in turn, on one thread: integer seeds reset the
        # thread's generator through its one state template, the others build
        # their own generator, and none may see another's key or leave its
        # state behind.
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        seeds = [7, np.int64(8), True, 2**64, [1, 2], np.random.SeedSequence(9)]
        for _ in range(3):
            for q, k in ((0.3, -0.4), (-1.1, 0.6)):
                for seed in seeds:
                    for shots in (1, 100, 1600):
                        got = circuit.score_sampled(q, k, p, shots, seed=seed)
                        assert got == self.fresh_estimate(q, k, p, shots, seed)

    def test_threads_draw_from_their_own_generators(self):
        # Each thread resets and draws on its own generator: a reset from
        # another thread between this thread's reset and its draw would move
        # the draw off the fresh generator's. The switch interval is shortened
        # so that threads switch between those two steps.
        rng = np.random.default_rng(23)
        jobs = [(random_params(rng), *rng.normal(0, 1.5, 2), 100 + 1000 * t) for t in range(4)]

        def draw(job):
            p, q, k, first_seed = job
            return [circuit.score_sampled(q, k, p, 25, seed=first_seed + i) for i in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(draw, job) for job in jobs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (p, q, k, first_seed), estimates in zip(jobs, results):
            assert estimates == [
                self.fresh_estimate(q, k, p, 25, first_seed + i) for i in range(200)
            ]

    def test_no_generator_state_leaks_into_the_next_draw(self):
        # The same seed again after draws that leave the generator's counter
        # and buffer mid-block, or with another shot count's binomial set-up,
        # must still take a fresh generator's draws.
        rng = np.random.default_rng(29)
        p = random_params(rng)
        for seed in (11, 2**64 + 11):
            for q, k in rng.normal(0, 1.5, (2, 2)):
                for shots in (1600, 1, 25):
                    got = circuit.score_sampled(q, k, p, shots, seed=seed)
                    assert got == self.fresh_estimate(q, k, p, shots, seed)

    def test_one_statevector_per_distinct_input(self, count_calls):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        builds = count_calls(circuit, "build_state")
        for seed in range(50):
            circuit.score_sampled(0.3, -0.4, p, shots=100, seed=seed)
            circuit.score_sampled(np.float64(0.3), -0.4, p, shots=100, seed=seed)
        assert len(builds) == 1
        circuit.score_sampled(0.3, -0.4, dataclasses.replace(p, beta=0.2), shots=100)
        assert len(builds) == 2

    def test_cached_distribution_is_read_only(self):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        circuit.score_sampled(0.3, -0.4, p, shots=10)
        probs = circuit._sampling_probs(0.3, -0.4, p)
        assert circuit._sampling_probs.cache_info().currsize == 1
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0] = 1.0

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_on_every_call_and_caches_nothing(self, q):
        p = QpaParams(0.5, 0, 0, 0, 0)
        for seed in range(3):
            with pytest.raises(ValueError, match="q must be finite"):
                circuit.score_sampled(q, 0.0, p, shots=10, seed=seed)
        assert circuit._sampling_probs.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "shots", [2.5, 3.0, np.float64(2.0), "3", 2**63], ids=["2.5", "3.0", "np-2.0", "str", "2**63"]
    )
    def test_rejects_non_integral_or_huge_shots_before_any_work(self, shots):
        with pytest.raises(ValueError, match=re.escape(f"got {shots!r}")):
            circuit.score_sampled(0.3, -0.4, QpaParams(0.5, 0, 0, 0, 0), shots=shots)
        assert circuit._sampling_probs.cache_info().misses == 0

    def test_accepts_numpy_integer_and_the_largest_shot_count(self):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.1)
        assert circuit.score_sampled(0.3, -0.4, p, np.int64(100), seed=3) == (
            circuit.score_sampled(0.3, -0.4, p, 100, seed=3)
        )
        mu_hat = circuit.score_sampled(0.3, -0.4, p, circuit.MAX_SHOTS, seed=3)
        assert mu_hat == pytest.approx(circuit.score(0.3, -0.4, p), abs=1e-6)


class TestNoisy:
    def test_zero_strength_equals_noiseless(self):
        rng = np.random.default_rng(17)
        for channel in ("AD", "DP", "BF", "PF"):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            assert circuit.score_noisy(q, k, p, channel, 0.0) == pytest.approx(
                circuit.score(q, k, p), abs=1e-12
            )

    def test_phase_flip_never_changes_score(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            gamma = rng.uniform(0, 1)
            assert circuit.score_noisy(q, k, p, "PF", gamma) == pytest.approx(
                circuit.score(q, k, p), abs=1e-12
            )

    def test_bit_flip_closed_form(self):
        # mu' = mu (1-2g)^2 + 2g(1-g), from independent per-qubit flips.
        rng = np.random.default_rng(19)
        for gamma in np.arange(0.0, 0.1001, 0.02):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            mu = circuit.score(q, k, p)
            expected = mu * (1 - 2 * gamma) ** 2 + 2 * gamma * (1 - gamma)
            assert circuit.score_noisy(q, k, p, "BF", gamma) == pytest.approx(
                expected, abs=1e-10
            )

    def test_bit_flip_half_strength_gives_half(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            p = random_params(rng)
            q, k = rng.normal(0, 1.5, 2)
            assert circuit.score_noisy(q, k, p, "BF", 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_probability_map_matches_density_evolution(self):
        rng = np.random.default_rng(21)
        for independent, channel in itertools.product((False, True), ("AD", "DP", "BF", "PF")):
            for _ in range(25):
                p = random_params(rng)
                q, k = rng.normal(0, 1.5, 2)
                gamma = rng.uniform(0, 1)
                fast = circuit.score_noisy_batch(
                    np.array(q), np.array(k), fast_path_params(p, independent), channel, gamma
                )
                assert float(fast) == pytest.approx(
                    circuit.score_noisy(q, k, p, channel, gamma, independent), abs=1e-12
                )

    def test_validation(self):
        p = QpaParams(0.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            circuit.score_noisy(0, 0, p, "XX", 0.1)
        with pytest.raises(ValueError):
            circuit.score_noisy(0, 0, p, "BF", 1.5)

    @pytest.mark.parametrize("channel, gamma", [("XX", 0.1), ("BF", -0.1), ("BF", 1.5), ("BF", np.nan)])
    def test_batch_validation(self, channel, gamma):
        p = QpaParams(0.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            circuit.score_noisy_batch(np.zeros(3), np.zeros(3), p, channel, gamma)


class TestBatchedStatevector:
    """`build_state`, `score` and `score_noisy` broadcast over the inputs, the
    parameters and the noise strength; each element equals its scalar call."""

    CHANNELS = ("AD", "DP", "BF", "PF")

    @staticmethod
    def layout(name, rng):
        # (q, k, params, gamma) of each broadcast layout.
        p = random_params(rng)
        if name == "0-d":
            return np.array(0.4), np.array(-1.1), p, np.array(0.3)
        if name == "vector":
            return *rng.normal(0, 1.5, (2, 6)), p, rng.uniform(0, 1, 6)
        if name == "outer":
            return rng.normal(0, 1.5, (4, 1)), rng.normal(0, 1.5, (1, 3)), p, 0.25
        # One parameter set and one strength per point.
        return *rng.normal(0, 1.5, (2, 5)), random_params_array(rng, (5,)), rng.uniform(0, 1, 5)

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("seed, name", enumerate(["0-d", "vector", "outer", "per-element"]))
    def test_equals_scalar_calls(self, seed, name, independent):
        q, k, p, gamma = self.layout(name, np.random.default_rng(seed))
        shape = np.broadcast_shapes(np.shape(q), np.shape(k), np.shape(p.beta), np.shape(gamma))
        states = circuit.build_state(q, k, p, independent)
        mu = circuit.score(q, k, p, independent)
        noisy = {c: circuit.score_noisy(q, k, p, c, gamma, independent) for c in self.CHANNELS}
        assert states.shape == shape + (4,)
        assert np.shape(mu) == shape
        at = {f.name: np.broadcast_to(getattr(p, f.name), shape) for f in dataclasses.fields(p)}
        q, k, gamma = (np.broadcast_to(v, shape) for v in (q, k, gamma))
        for idx in np.ndindex(shape):
            params = QpaParams(**{n: float(v[idx]) for n, v in at.items()})
            point = float(q[idx]), float(k[idx]), params
            assert np.abs(states[idx] - circuit.build_state(*point, independent)).max() <= 1e-15
            assert abs(np.asarray(mu)[idx] - circuit.score(*point, independent)) <= 1e-15
            for c in self.CHANNELS:
                scalar = circuit.score_noisy(*point, c, float(gamma[idx]), independent)
                assert abs(np.asarray(noisy[c])[idx] - scalar) <= 1e-15

    def test_scalar_inputs_give_python_floats(self):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.4)
        assert type(circuit.score(0.3, -0.7, p)) is float
        assert type(circuit.score(np.float64(0.3), np.array(-0.7), p)) is float
        assert type(circuit.score_noisy(0.3, -0.7, p, "AD", 0.2)) is float
        assert circuit.build_state(0.3, -0.7, p).shape == (4,)

    def test_matches_the_raw_kronecker_oracle_on_a_grid(self):
        from test_acceptance import _kron_oracle_state

        rng = np.random.default_rng(26)
        p = random_params(rng)
        qs, ks = rng.normal(0, 1.5, (8, 1)), rng.normal(0, 1.5, (1, 9))
        states = circuit.build_state(qs, ks, p)
        mu = circuit.score(qs, ks, p)
        for i, j in np.ndindex(8, 9):
            expected = _kron_oracle_state(qs[i, 0], ks[0, j], p)
            assert np.abs(states[i, j] - expected).max() <= 1e-12
            assert abs(mu[i, j] - (abs(expected[0]) ** 2 + abs(expected[3]) ** 2)) <= 1e-12

    def test_runs_without_the_fourier_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the statevector path must not use the Fourier form")

        for name in ("fourier_features", "fourier_coefficients", "_series"):
            monkeypatch.setattr(circuit, name, refuse)
        q, k, p, gamma = self.layout("per-element", np.random.default_rng(27))
        assert circuit.build_state(q, k, p).shape == (5, 4)
        assert circuit.score(q, k, p).shape == (5,)
        assert circuit.score_noisy(q, k, p, "AD", gamma).shape == (5,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_input_in_a_batch_raises_the_scalar_error(self, bad):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.4)
        qs = np.array([[0.1, 0.2], [bad, 0.3]])
        noisy = lambda q, k, p: circuit.score_noisy(q, k, p, "BF", 0.1)  # noqa: E731
        for fn in (circuit.build_state, circuit.score, noisy):
            with pytest.raises(ValueError, match="q must be finite"):
                fn(qs, 0.0, p)
            with pytest.raises(ValueError, match="k must be finite"):
                fn(np.zeros(2), qs, p)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_one_bad_strength_in_a_batch_raises_the_scalar_error(self, bad):
        p = QpaParams(0.5, 0.1, -0.2, 0.3, 0.4)
        message = f"gamma_noise must lie in [0, 1], got {bad!r}"
        for gamma in (bad, np.array([0.0, 0.2, bad])):
            with pytest.raises(ValueError) as err:
                circuit.score_noisy(np.zeros(3), 0.1, p, "DP", gamma)
            assert str(err.value) == message

