"""Exact two-qubit linear algebra: gates, statevector evolution, measurement,
density matrices, and Kraus noise channels.

Conventions
-----------
Basis states are ordered ``|00>, |01>, |10>, |11>`` with qubit 0 as the most
significant bit of the basis index. Pure states are complex arrays of shape
``(..., 4)``; density matrices are ``(..., 4, 4)``. Every function broadcasts
over the leading axes: rotation angles and channel strengths may be arrays,
giving one gate or Kraus operator per element, and a scalar call is the
zero-dimensional case of the same code. All operations are pure functions on
value types and thread-safe.
"""

from __future__ import annotations

import numpy as np

ATOL_UNITARY = 1e-12
ATOL_CHANNEL = 1e-10

ZERO_STATE = np.array([1, 0, 0, 0], dtype=complex)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Basis-index permutations for CNOT with (control, target) on qubits (0, 1):
# flipping the target amplitude pairing whenever the control bit is 1.
_CNOT_PERM = {
    (0, 1): np.array([0, 1, 3, 2]),
    (1, 0): np.array([0, 3, 2, 1]),
}


def _all(ok) -> bool:
    # ok.all() for a numpy bool or bool array. numpy returns its np.True_
    # singleton for a scalar, which skips the reduction: that costs more
    # than the rest of a scalar gate's arithmetic.
    return ok is np.True_ or bool(ok.all())


def _first_failure(values: np.ndarray, ok) -> float:
    # The first element of ``values`` that failed a check, for the error message.
    return float(np.asarray(values)[~ok].flat[0])


def _gate(a, b, c, d) -> np.ndarray:
    # The complex 2x2 matrices [[a, b], [c, d]] for entries of one shape S,
    # as an S + (2, 2) array.
    g = np.array([[a, b], [c, d]], dtype=complex)
    return g.transpose((*range(2, g.ndim), 0, 1)) if g.ndim > 2 else g


def _rotation(theta, upper, lower) -> np.ndarray:
    # [[cos(t/2), upper sin(t/2)], [lower sin(t/2), cos(t/2)]] for every angle
    # t of ``theta`` after checking them all.
    half = theta * 0.5
    ok = np.isfinite(half)
    if not _all(ok):
        raise ValueError(f"rotation angle must be finite, got {_first_failure(theta, ok)!r}")
    c, s = np.cos(half), np.sin(half)
    return _gate(c, upper * s, lower * s, c)


def ry(theta) -> np.ndarray:
    """Single-qubit Y rotation ``[[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]``.

    Real-valued convention, so RY(a) @ RY(b) == RY(a + b) exactly. An angle
    array gives one gate per element, shape ``theta.shape + (2, 2)``.
    """
    return _rotation(theta, -1, 1)


def rx(theta) -> np.ndarray:
    """Single-qubit X rotation ``[[cos(t/2), -i sin(t/2)], [-i sin(t/2), cos(t/2)]]``.

    Broadcasts over angle arrays like `ry`.
    """
    return _rotation(theta, -1j, -1j)


def _check_qubit(qubit: int) -> int:
    if qubit not in (0, 1):
        raise ValueError(f"qubit index must be 0 or 1, got {qubit!r}")
    return qubit


def apply_single(state: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a two-qubit state.

    Equivalent to ``(gate (x) I) @ state`` for qubit 0 and ``(I (x) gate) @ state``
    for qubit 1. ``state`` (..., 4) and ``gate`` (..., 2, 2) broadcast over
    their leading axes.
    """
    _check_qubit(qubit)
    m = np.asarray(state, dtype=complex)
    m = m.reshape(m.shape[:-1] + (2, 2))
    m = gate @ m if qubit == 0 else m @ gate.swapaxes(-1, -2)
    return m.reshape(m.shape[:-2] + (4,))


def apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """Apply CNOT with the given control/target qubits: a permutation of the last axis."""
    _check_qubit(control)
    _check_qubit(target)
    if control == target:
        raise ValueError("CNOT control and target must differ")
    state = np.asarray(state, dtype=complex)
    return state.take(_CNOT_PERM[(control, target)], axis=-1)


def measure_probs(state: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities ``|amplitude_i|^2`` for the four outcomes."""
    state = np.asarray(state, dtype=complex)
    return np.abs(state) ** 2


def state_to_density(state: np.ndarray) -> np.ndarray:
    """Pure-state density matrix ``|psi><psi|``, shape (..., 4, 4) for states (..., 4)."""
    state = np.asarray(state, dtype=complex)
    return state[..., :, None] * state[..., None, :].conj()


def is_unitary(gate: np.ndarray, atol: float = ATOL_UNITARY) -> bool:
    """Whether every gate in ``gate`` (..., n, n) satisfies G^dagger G = I within ``atol``."""
    gate = np.asarray(gate, dtype=complex)
    identity = np.eye(gate.shape[-1])
    return bool(np.allclose(gate.swapaxes(-1, -2).conj() @ gate, identity, atol=atol))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of the trailing 2x2 matrices, broadcast over the leading axes.
    a, b = np.asarray(a), np.asarray(b)
    full = a[..., :, None, :, None] * b[..., None, :, None, :]
    return full.reshape(full.shape[:-4] + (4, 4))


def apply_channel(rho: np.ndarray, kraus: list[np.ndarray], qubit: int) -> np.ndarray:
    """Apply a single-qubit Kraus channel to one qubit of a two-qubit density matrix.

    ``rho' = sum_i (K_i (x) I) rho (K_i (x) I)^dagger`` (qubit 0), analogously for
    qubit 1. The Kraus set must satisfy ``sum_i K_i^dagger K_i = I`` within 1e-10.
    ``rho`` (..., 4, 4) and each K_i (..., 2, 2) broadcast over their leading
    axes: a batch of Kraus sets is one set of K_i arrays, and every set in it
    must be complete.
    """
    _check_qubit(qubit)
    rho = np.asarray(rho, dtype=complex)
    completeness = sum(K.swapaxes(-1, -2).conj() @ K for K in kraus)
    if not np.allclose(completeness, _I2, atol=ATOL_CHANNEL):
        raise ValueError("Kraus operators do not satisfy the trace-preservation condition")
    fulls = (_kron(K, _I2) if qubit == 0 else _kron(_I2, K) for K in kraus)
    return sum(full @ rho @ full.swapaxes(-1, -2).conj() for full in fulls)


def _check_strength(gamma):
    gamma = np.asarray(gamma, dtype=float)
    ok = (0.0 <= gamma) & (gamma <= 1.0)
    if not _all(ok):
        raise ValueError(
            f"channel strength must lie in [0, 1], got {_first_failure(gamma, ok)!r}"
        )
    return gamma


def amplitude_damping(gamma) -> list[np.ndarray]:
    """Kraus operators for amplitude damping: |1> decays to |0> with probability gamma.

    A strength array gives a batch of Kraus sets: each operator has shape
    ``gamma.shape + (2, 2)``. So do the other channels.
    """
    gamma = _check_strength(gamma)
    zero = np.zeros_like(gamma)
    return [
        _gate(zero + 1, zero, zero, np.sqrt(1 - gamma)),
        _gate(zero, np.sqrt(gamma), zero, zero),
    ]


def depolarizing(gamma) -> list[np.ndarray]:
    """Kraus operators for the depolarizing channel ``rho -> (1-gamma) rho + gamma I/2``.

    Pauli weights sqrt(1 - 3g/4), sqrt(g/4) each, so gamma = 1 fully depolarizes
    (both-qubit application sends any state to I/4).
    """
    gamma = _check_strength(gamma)
    return [
        np.multiply.outer(np.sqrt(1 - 3 * gamma / 4), _I2),
        np.multiply.outer(np.sqrt(gamma / 4), _X),
        np.multiply.outer(np.sqrt(gamma / 4), _Y),
        np.multiply.outer(np.sqrt(gamma / 4), _Z),
    ]


def bit_flip(gamma) -> list[np.ndarray]:
    """Kraus operators for the bit-flip channel: X applied with probability gamma."""
    gamma = _check_strength(gamma)
    return [np.multiply.outer(np.sqrt(1 - gamma), _I2), np.multiply.outer(np.sqrt(gamma), _X)]


def phase_flip(gamma) -> list[np.ndarray]:
    """Kraus operators for the phase-flip channel: Z applied with probability gamma.

    Z is diagonal in the computational basis, so this channel never changes
    measurement probabilities.
    """
    gamma = _check_strength(gamma)
    return [np.multiply.outer(np.sqrt(1 - gamma), _I2), np.multiply.outer(np.sqrt(gamma), _Z)]


CHANNELS = {
    "AD": amplitude_damping,
    "DP": depolarizing,
    "BF": bit_flip,
    "PF": phase_flip,
}
