"""Gate construction, state evolution, measurement and channel tests.

Brute-force oracles here build full 4x4 operators with np.kron independently
of the indexing tricks inside qpattn.qcore.
"""

import numpy as np
import pytest

from qpattn import qcore

I2 = np.eye(2, dtype=complex)


def kron_gate(gate, qubit):
    return np.kron(gate, I2) if qubit == 0 else np.kron(I2, gate)


def test_ry_zero_is_identity():
    assert np.allclose(qcore.ry(0.0), np.eye(2), atol=1e-15)


def test_ry_half_turn_flips_zero_state():
    out = qcore.ry(np.pi) @ np.array([1, 0], dtype=complex)
    assert np.allclose(out, [0, 1], atol=1e-12)


def test_ry_additivity():
    # RY(a) RY(b) = RY(a + b)
    a, b = 0.3, 0.7
    assert np.allclose(qcore.ry(a) @ qcore.ry(b), qcore.ry(a + b), atol=1e-12)


def test_rx_zero_is_identity():
    assert np.allclose(qcore.rx(0.0), np.eye(2), atol=1e-15)


def test_rx_half_turn():
    out = qcore.rx(np.pi) @ np.array([1, 0], dtype=complex)
    assert np.allclose(out, [0, -1j], atol=1e-12)
    assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_rx_small_angle_survival_probability():
    # |<0| RX(2*0.1) |0>|^2 = cos^2(0.1)
    amp = (qcore.rx(0.2) @ np.array([1, 0], dtype=complex))[0]
    assert abs(amp) ** 2 == pytest.approx(0.9900332889206209, abs=1e-12)


@pytest.mark.parametrize("gate_fn", [qcore.ry, qcore.rx])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotation_rejects_non_finite(gate_fn, bad):
    with pytest.raises(ValueError):
        gate_fn(bad)


def test_rotations_are_unitary_for_random_angles():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-20, 20, size=1000):
        assert qcore.is_unitary(qcore.ry(theta))
        assert qcore.is_unitary(qcore.rx(theta))


def test_apply_single_identity_is_noop():
    rng = np.random.default_rng(1)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    for qubit in (0, 1):
        assert np.allclose(qcore.apply_single(state, I2, qubit), state, atol=1e-15)


def test_apply_single_matches_hand_product():
    # RY(pi/2) on qubit 0 of |00>: amplitudes (cos pi/4, 0, sin pi/4, 0)
    out = qcore.apply_single(qcore.ZERO_STATE, qcore.ry(np.pi / 2), 0)
    expected = [np.cos(np.pi / 4), 0, np.sin(np.pi / 4), 0]
    assert np.allclose(out, expected, atol=1e-12)


def test_apply_single_matches_kron_oracle():
    rng = np.random.default_rng(2)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    for qubit in (0, 1):
        gate = qcore.ry(rng.uniform(-3, 3)) @ qcore.rx(rng.uniform(-3, 3))
        expected = kron_gate(gate, qubit) @ state
        assert np.allclose(qcore.apply_single(state, gate, qubit), expected, atol=1e-12)


def test_apply_single_rejects_bad_qubit():
    with pytest.raises(ValueError):
        qcore.apply_single(qcore.ZERO_STATE, I2, 2)


def test_norm_preserved_over_random_gate_sequences():
    rng = np.random.default_rng(3)
    state = qcore.ZERO_STATE
    for _ in range(50):
        gate = qcore.ry(rng.uniform(-6, 6)) if rng.random() < 0.5 else qcore.rx(rng.uniform(-6, 6))
        state = qcore.apply_single(state, gate, int(rng.integers(2)))
        if rng.random() < 0.3:
            c = int(rng.integers(2))
            state = qcore.apply_cnot(state, c, 1 - c)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "control,target,basis_in,basis_out",
    [
        (0, 1, 2, 3),  # CNOT(0->1) |10> -> |11>
        (1, 0, 1, 3),  # CNOT(1->0) |01> -> |11>
        (0, 1, 0, 0),  # CNOT(0->1) |00> -> |00>
        (0, 1, 3, 2),
        (1, 0, 3, 1),
    ],
)
def test_cnot_truth_table(control, target, basis_in, basis_out):
    state = np.zeros(4, dtype=complex)
    state[basis_in] = 1.0
    out = qcore.apply_cnot(state, control, target)
    expected = np.zeros(4, dtype=complex)
    expected[basis_out] = 1.0
    assert np.array_equal(out, expected)


def test_cnot_rejects_equal_control_target():
    with pytest.raises(ValueError):
        qcore.apply_cnot(qcore.ZERO_STATE, 1, 1)


def test_measure_probs_basis_and_superposition():
    assert np.array_equal(qcore.measure_probs(qcore.ZERO_STATE), [1, 0, 0, 0])
    equal = np.full(4, 0.5, dtype=complex)
    assert np.allclose(qcore.measure_probs(equal), 0.25, atol=1e-15)


def test_measure_probs_product_of_small_rotations():
    # P(|00>) of RY(pi/4)|0> x RY(pi/4)|0> = cos^4(pi/8)
    state = qcore.apply_single(qcore.ZERO_STATE, qcore.ry(np.pi / 4), 0)
    state = qcore.apply_single(state, qcore.ry(np.pi / 4), 1)
    probs = qcore.measure_probs(state)
    assert probs[0] == pytest.approx(0.7285533905932737, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["AD", "DP", "BF", "PF"])
def test_channel_identity_at_zero_strength(name):
    rng = np.random.default_rng(4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = qcore.state_to_density(psi)
    for qubit in (0, 1):
        out = qcore.apply_channel(rho, qcore.CHANNELS[name](0.0), qubit)
        assert np.allclose(out, rho, atol=1e-14)


def test_bit_flip_full_strength_is_deterministic_flip():
    rho = qcore.state_to_density(qcore.ZERO_STATE)  # |00><00|
    out = qcore.apply_channel(rho, qcore.bit_flip(1.0), 0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0  # |10><10|
    assert np.allclose(out, expected, atol=1e-14)


def test_depolarizing_full_strength_both_qubits_gives_maximally_mixed():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = qcore.state_to_density(psi)
    for qubit in (0, 1):
        rho = qcore.apply_channel(rho, qcore.depolarizing(1.0), qubit)
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_channels_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(6)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = qcore.state_to_density(psi)
    for name, factory in qcore.CHANNELS.items():
        for gamma in np.linspace(0, 1, 20):
            for qubit in (0, 1):
                out = qcore.apply_channel(rho, factory(gamma), qubit)
                assert abs(np.trace(out) - 1) < 1e-10, name
                assert np.allclose(out, out.conj().T, atol=1e-10), name
                eig = np.linalg.eigvalsh(out)
                assert eig.min() > -1e-10, name


def test_apply_channel_rejects_incomplete_kraus():
    bad = [np.sqrt(0.5) * I2]  # sums to I/2, not I
    with pytest.raises(ValueError):
        qcore.apply_channel(np.eye(4, dtype=complex) / 4, bad, 0)


def test_channel_strength_validation():
    for factory in qcore.CHANNELS.values():
        with pytest.raises(ValueError):
            factory(-0.1)
        with pytest.raises(ValueError):
            factory(1.1)


def test_density_evolution_matches_statevector():
    # Evolving rho = U rho U^dagger through random gate sequences reproduces
    # the statevector probabilities exactly.
    rng = np.random.default_rng(7)
    for _ in range(100):
        psi = qcore.ZERO_STATE
        rho = qcore.state_to_density(psi)
        for _ in range(6):
            gate = qcore.ry(rng.uniform(-3, 3)) if rng.random() < 0.5 else qcore.rx(rng.uniform(-3, 3))
            qubit = int(rng.integers(2))
            psi = qcore.apply_single(psi, gate, qubit)
            full = kron_gate(gate, qubit)
            rho = full @ rho @ full.conj().T
            if rng.random() < 0.4:
                c = int(rng.integers(2))
                psi = qcore.apply_cnot(psi, c, 1 - c)
                perm = np.zeros((4, 4), dtype=complex)
                for i in range(4):
                    e = np.zeros(4, dtype=complex)
                    e[i] = 1
                    perm[:, i] = qcore.apply_cnot(e, c, 1 - c)
                rho = perm @ rho @ perm.conj().T
        mu_state = qcore.measure_probs(psi)[[0, 3]].sum()
        mu_rho = (rho[0, 0] + rho[3, 3]).real
        assert mu_rho == pytest.approx(mu_state, abs=1e-12)


class TestBatched:
    """Every entry point broadcasts over leading axes, each element equal to
    its scalar call; a scalar call is the zero-dimensional case."""

    @staticmethod
    def random_states(rng, shape):
        psi = rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))
        return psi / np.linalg.norm(psi, axis=-1, keepdims=True)

    @pytest.mark.parametrize("gate_fn", [qcore.ry, qcore.rx])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_rotations_equal_scalar_calls(self, gate_fn, shape):
        theta = np.random.default_rng(8).uniform(-10, 10, size=shape)
        gates = gate_fn(theta)
        assert gates.shape == shape + (2, 2)
        for idx in np.ndindex(shape):
            assert np.abs(gates[idx] - gate_fn(float(theta[idx]))).max() <= 1e-15
        assert qcore.is_unitary(gates)

    def test_is_unitary_checks_every_gate_of_a_batch(self):
        gates = qcore.ry(np.linspace(-3, 3, 5))
        gates[2] *= 1.01
        assert not qcore.is_unitary(gates)

    @pytest.mark.parametrize("qubit", [0, 1])
    @pytest.mark.parametrize(
        "state_shape, gate_shape", [((), (5,)), ((5,), ()), ((5,), (5,)), ((4, 1), (1, 3))]
    )
    def test_apply_single_equals_scalar_calls(self, qubit, state_shape, gate_shape):
        rng = np.random.default_rng(9)
        states = self.random_states(rng, state_shape)
        gates = qcore.ry(rng.uniform(-3, 3, gate_shape)) @ qcore.rx(rng.uniform(-3, 3, gate_shape))
        out = qcore.apply_single(states, gates, qubit)
        shape = np.broadcast_shapes(state_shape, gate_shape)
        assert out.shape == shape + (4,)
        states = np.broadcast_to(states, shape + (4,))
        gates = np.broadcast_to(gates, shape + (2, 2))
        for idx in np.ndindex(shape):
            expected = qcore.apply_single(states[idx], gates[idx], qubit)
            assert np.abs(out[idx] - expected).max() <= 1e-15
            assert np.abs(out[idx] - kron_gate(gates[idx], qubit) @ states[idx]).max() <= 1e-12

    def test_cnot_measure_and_density_equal_scalar_calls(self):
        states = self.random_states(np.random.default_rng(10), (3, 2))
        for control in (0, 1):
            out = qcore.apply_cnot(states, control, 1 - control)
            for idx in np.ndindex(3, 2):
                assert np.array_equal(out[idx], qcore.apply_cnot(states[idx], control, 1 - control))
        probs, rho = qcore.measure_probs(states), qcore.state_to_density(states)
        assert probs.shape == (3, 2, 4) and rho.shape == (3, 2, 4, 4)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(probs[idx], qcore.measure_probs(states[idx]))
            assert np.array_equal(rho[idx], np.outer(states[idx], states[idx].conj()))

    @pytest.mark.parametrize("name", ["AD", "DP", "BF", "PF"])
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_channels_equal_scalar_calls(self, name, qubit):
        # Per-element strengths against a batch of states, and one strength
        # array broadcast against one state.
        rng = np.random.default_rng(11)
        gammas = rng.uniform(0, 1, size=(6, 1))
        kraus = qcore.CHANNELS[name](gammas)
        assert all(K.shape == (6, 1, 2, 2) for K in kraus)
        rho = qcore.state_to_density(self.random_states(rng, (1, 3)))
        out = qcore.apply_channel(rho, kraus, qubit)
        assert out.shape == (6, 3, 4, 4)
        for i, j in np.ndindex(6, 3):
            single = qcore.CHANNELS[name](float(gammas[i, 0]))
            assert all(np.abs(K[i, 0] - S).max() <= 1e-15 for K, S in zip(kraus, single))
            expected = qcore.apply_channel(rho[0, j], single, qubit)
            assert np.abs(out[i, j] - expected).max() <= 1e-15

    @pytest.mark.parametrize("gate_fn", [qcore.ry, qcore.rx])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_angle_in_a_batch_raises_the_scalar_error(self, gate_fn, bad):
        theta = np.zeros((3, 4))
        theta[2, 1] = bad
        with pytest.raises(ValueError) as scalar:
            gate_fn(bad)
        with pytest.raises(ValueError) as batch:
            gate_fn(theta)
        assert str(batch.value) == str(scalar.value)
        assert str(batch.value) == f"rotation angle must be finite, got {bad!r}"

    @pytest.mark.parametrize("name", ["AD", "DP", "BF", "PF"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_one_bad_strength_in_a_batch_raises_the_scalar_error(self, name, bad):
        gammas = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(ValueError) as scalar:
            qcore.CHANNELS[name](bad)
        with pytest.raises(ValueError) as batch:
            qcore.CHANNELS[name](gammas)
        assert str(batch.value) == str(scalar.value)
        assert str(batch.value) == f"channel strength must lie in [0, 1], got {bad!r}"

    def test_a_batch_with_one_incomplete_kraus_set_is_refused(self):
        k0, k1 = qcore.bit_flip(np.full(5, 0.2))
        k1[3] *= 0.5  # set 3 no longer sums to the identity
        rho = np.eye(4, dtype=complex) / 4
        for qubit in (0, 1):
            with pytest.raises(ValueError, match="trace-preservation"):
                qcore.apply_channel(rho, [k0, k1], qubit)
        k1[3] *= 2.0
        assert qcore.apply_channel(rho, [k0, k1], 0).shape == (5, 4, 4)
