"""The two-qubit attention scoring circuit.

The score mu(q, k) is the probability that a joint computational-basis
measurement finds both qubits in the same state, P(|00>) + P(|11>), after:

1. encoding   RY(phi0) (x) RY(phi1), where the three-step encoding collapses to
              phi0 = pi/4 + lambda1*q + lambda2*k, phi1 = pi/4 + lambda2*q + lambda1*k
              (`equivalent_angles`; it broadcasts, and the statevector and
              real-amplitude paths and the lab all read it)
2. entangling CNOT(0->1), then RY(alpha*(q+k)) on qubit 1, then CNOT(1->0)
3. mixing     RX(2*beta) on both qubits

The statevector entry points (`build_state`, `score`, `score_noisy`) walk
the circuit through the generic gate machinery in :mod:`qpattn.qcore`. They
broadcast over the inputs, the parameters (`QpaParams` fields may be arrays)
and the noise strength, so the lab checks a batch of points in one call; a
scalar call is the zero-dimensional case and returns a float. They read
nothing of the Fourier form below, whose oracle they are.
`score_gradient` runs the real-amplitude parameter-shift evaluator described
below. The finite-shot sampler (`score_sampled`) builds one statevector per
distinct input and draws every repetition from that input's memoized
distribution, found for a repeated input by the identity of its parameter
object, without hashing it. It hashes each integer seed into its Philox key
once (a memo of at most 4096 seeds) and resets one generator per thread to
that key through one state template, so an estimate costs 2.4-2.7 µs: a
reset and a multinomial draw, which take 1.4-1.6 µs, and little else. Its
draws are the same as when each call built its own statevector and generator.
The fast path goes through the circuit's exact Fourier form: mu is a
15-term Fourier series in (q, k) whose coefficients depend on beta alone
(`fourier_coefficients`, `FOURIER_FREQS`, `ANGLE_JACOBIAN`): a constant c_0
plus seven terms, each a query feature times a key feature
(`fourier_features`, seven per input). In the base angles
(a, b, c) = (x0, x1 + xe, x1 - xe) the seven frequencies are a, b, c,
a+b, a+c, a-c and a-b, so three phasors, one tangent each, give them all.
`score_batch` and `score_noisy_batch` evaluate the series at every
broadcast input pair they are given, each pair summed directly from the
cosines and sines of its three base angles, with no feature array and no
layout dispatch: the lab's elementwise calls, the ViT's CLS row against its
keys at inference, and any outer layout the tests give. That sum has a
noise-free half, which turns the half-angle tangents of each pair's base
angles (`_pair_tangents`) into their cosine and sine planes
(`_tangent_planes`), and a weighing of those six planes by the
coefficients (`_plane_series`). `scorers.pair_planes` runs the first half
alone and keeps a batch's planes, and `scorers.plane_scores` weighs them
for each noise setting, the first included. The attention
layers that score all N query rows, in training and at inference alike,
build each side's features once with `fourier_features` and sum the series
over the D dimensions inside one GEMM of the two
(`scorers.quantum_scores_with_features`, `scorers.qpa_scores`); the
training step's last layer builds the features at each CLS-key pair's
angles instead. The backward differentiates the same series on those
features; c_0 = 1/2 does not enter it. None of these holds a tiling
policy: the scorers (`scorers.qpa_scores`,
`scorers.quantum_scores_with_features`, `scorers.quantum_scores_backward`)
bound their own temporaries with tiles sized from `scorers.TILE_INPUTS`.
The coefficients are closed forms in beta: the mixer only weights the fixed
Fourier coefficients of <ZZ> and <YY> on the state before it, and a noise
channel adds those of <ZI> + <IZ>. A real-amplitude walk of the circuit that
computes mu alone, with the exact parameter-shift rule on every rotation
gate (`score_grad_batch`, `score_gradient`), is the gradient's oracle and
that of the series; the density-matrix `score_noisy` is the noisy series'.

The independent-encoding ablation (`qpa-ind`) is this circuit at gamma_d =
gamma_s = 0. Only the statevector path (`build_state`, `score`, `score_noisy`)
keeps an ``independent`` flag, as the reference the ablation is checked against.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from . import qcore

_SQRT2 = np.sqrt(2.0)

#: Offset that keeps the encoding away from the linear response region of RY.
ANGLE_OFFSET = np.pi / 4

@dataclass(frozen=True)
class QpaParams:
    """The five trainable circuit parameters.

    theta_s: initial encoding scale, gamma_d / gamma_s: difference / sum
    encoding strengths, alpha: entanglement strength, beta: mixer angle.
    Each field is a float or, for the statevector path (`build_state`,
    `score`, `score_noisy`) and `score_grad_batch`, a broadcastable array.
    """

    theta_s: float
    gamma_d: float
    gamma_s: float
    alpha: float
    beta: float

    @property
    def lambda1(self) -> float:
        """Self-coefficient of the collapsed encoding: theta_s + gamma_d + gamma_s."""
        return self.theta_s + self.gamma_d + self.gamma_s

    @property
    def lambda2(self) -> float:
        """Cross-coefficient of the collapsed encoding: gamma_s - gamma_d."""
        return self.gamma_s - self.gamma_d

    @property
    def omega_d(self) -> float:
        """Frequency along the (q - k) direction: theta_s + 2*gamma_d."""
        return self.theta_s + 2 * self.gamma_d

    @property
    def omega_s(self) -> float:
        """Frequency along the (q + k) direction: theta_s + 2*gamma_s."""
        return self.theta_s + 2 * self.gamma_s

    @classmethod
    def init_random(cls, rng: np.random.Generator) -> "QpaParams":
        """Training initialisation: theta_s = 0.5, the rest drawn from N(0, 0.1^2)."""
        g = rng.normal(0.0, 0.1, size=4)
        return cls(0.5, g[0], g[1], g[2], g[3])

    @classmethod
    def from_array(cls, values: np.ndarray) -> "QpaParams":
        """Parameters from an array of shape (5, ...) in `PARAM_NAMES` order.

        Shape (5,) gives one parameter set; trailing axes give array-valued
        fields, one set per element, which the statevector path broadcasts.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == 0 or values.shape[0] != 5:
            raise ValueError(f"expected 5 parameters, got shape {values.shape}")
        return cls(*values)

    def to_array(self) -> np.ndarray:
        return np.array([self.theta_s, self.gamma_d, self.gamma_s, self.alpha, self.beta])

    def __post_init__(self):
        # A float field (np.float64 among them) is checked without numpy,
        # whose call would cost more than the rest of the constructor.
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
                raise ValueError(f"parameter {name} must be finite")


PARAM_NAMES = ("theta_s", "gamma_d", "gamma_s", "alpha", "beta")


@dataclass(frozen=True)
class ScoreGradient:
    """Exact partial derivatives of mu at a single (q, k) point."""

    d_theta_s: float
    d_gamma_d: float
    d_gamma_s: float
    d_alpha: float
    d_beta: float
    d_q: float
    d_k: float

    def param_array(self) -> np.ndarray:
        """Partials in (theta_s, gamma_d, gamma_s, alpha, beta) order."""
        return np.array(
            [self.d_theta_s, self.d_gamma_d, self.d_gamma_s, self.d_alpha, self.d_beta]
        )


class NonFiniteInputError(ValueError):
    """An input q or k is NaN or infinite."""


def _check_finite(q, k) -> None:
    for name, v in (("q", q), ("k", k)):
        if not qcore._all(np.isfinite(v)):
            raise NonFiniteInputError(f"{name} must be finite")


def equivalent_angles(q, k, params: QpaParams):
    """Collapsed single-layer RY angles of the three-step encoding.

    phi0 = pi/4 + lambda1*q + lambda2*k on qubit 0 and the coefficient-swapped
    phi1 = pi/4 + lambda2*q + lambda1*k on qubit 1, so each qubit also senses
    the other side's input. ``q`` and ``k``: floats or broadcastable arrays.
    """
    _check_finite(q, k)
    l1, l2 = params.lambda1, params.lambda2
    return ANGLE_OFFSET + l1 * q + l2 * k, ANGLE_OFFSET + l2 * q + l1 * k


def independent_angles(q, k, params: QpaParams):
    """Single-parameter ablation encoding: each qubit senses only its own input.

    Broadcasts like `equivalent_angles`.
    """
    return ANGLE_OFFSET + params.theta_s * q, ANGLE_OFFSET + params.theta_s * k


def _apply_entangler(state: np.ndarray, angle: float) -> np.ndarray:
    # Bidirectional CNOTs flanking the input-adaptive RY on qubit 1.
    state = qcore.apply_cnot(state, 0, 1)
    state = qcore.apply_single(state, qcore.ry(angle), 1)
    return qcore.apply_cnot(state, 1, 0)


def build_state(q, k, params: QpaParams, independent: bool = False) -> np.ndarray:
    """Prepare the full circuit state by statevector evolution, shape (..., 4).

    ``q``, ``k`` and the fields of ``params`` are floats or broadcastable
    arrays; the state has their broadcast shape plus the amplitude axis.
    """
    angles = independent_angles if independent else equivalent_angles
    phi0, phi1 = angles(q, k, params)
    state = qcore.ZERO_STATE
    state = qcore.apply_single(state, qcore.ry(phi0), 0)
    state = qcore.apply_single(state, qcore.ry(phi1), 1)
    state = _apply_entangler(state, params.alpha * (q + k))
    mixer = qcore.rx(2 * params.beta)
    state = qcore.apply_single(state, mixer, 0)
    state = qcore.apply_single(state, mixer, 1)
    return state


def score(q, k, params: QpaParams, independent: bool = False):
    """Joint-measurement score mu = P(|00>) + P(|11>), always in [0, 1].

    Broadcasts like `build_state`; scalar inputs give a Python float.
    """
    p = qcore.measure_probs(build_state(q, k, params, independent))
    return _scalar_or_array(p[..., 0] + p[..., 3])


def _scalar_or_array(mu: np.ndarray):
    # A Python float for a single point, else the array.
    return float(mu) if mu.ndim == 0 else mu


def score_encoding_only(q, k, params: QpaParams):
    """Closed form of mu for the encoding layer alone (no entangler, no mixer).

    mu = 1/2 + 1/4 cos(omega_d (q-k)) - 1/4 sin(omega_s (q+k)), which is
    symmetric in (q, k) and carries the two independently tunable frequencies.
    Broadcasts like `equivalent_angles`, each element equal to its scalar call.
    """
    _check_finite(q, k)
    return (
        0.5
        + 0.25 * np.cos(params.omega_d * (q - k))
        - 0.25 * np.sin(params.omega_s * (q + k))
    )


# ---------------------------------------------------------------------------
# Real-amplitude circuit evaluation: the oracle of the Fourier form and its
# gradient (`score_grad_batch`).
#
# All amplitudes stay real until the mixer, so this path tracks the four real
# amplitudes through encoding/entangling and folds the two RX gates in
# analytically. mu matches the complex statevector path to machine precision.
# ---------------------------------------------------------------------------


def _mu_cs(c0, s0, c1, s1, ce, se, cb0, sb0, cb1, sb1):
    """mu = P(|00>) + P(|11>) from half-angle cosines/sines of the five gates.

    (c0, s0), (c1, s1): encoding RYs; (ce, se): entangling RY; (cbX, sbX):
    the RX mixers on qubits 0 and 1 (kept separate so each can be shifted
    independently by the parameter-shift rule).
    """
    # Encoding product state, with the CNOT(0->1) permutation folded in (2 <-> 3).
    a0, a1, a2, a3 = c0 * c1, c0 * s1, s0 * s1, s0 * c1
    # RY on qubit 1 rotates the (0,1) and (2,3) amplitude pairs.
    b0 = ce * a0 - se * a1
    b1 = se * a0 + ce * a1
    b2 = ce * a2 - se * a3
    b3 = se * a2 + ce * a3
    # CNOT(1->0) permutes 1 <-> 3.
    f0, f1, f2, f3 = b0, b3, b2, b1
    # RX(x)RX on the real vector f: psi = (R + iM) f with
    # R = cb0*cb1*I - sb0*sb1*(XX), M = -(cb0*sb1*(IX) + sb0*cb1*(XI)).
    cc = cb0 * cb1
    ss = sb0 * sb1
    cs = cb0 * sb1
    sc = sb0 * cb1
    p00 = (cc * f0 - ss * f3) ** 2 + (cs * f1 + sc * f2) ** 2
    p11 = (cc * f3 - ss * f0) ** 2 + (cs * f2 + sc * f1) ** 2
    return p00 + p11


def _gate_cs(phi0, phi1, ent, beta) -> list:
    # Half-angle cosines and sines of the five gates in `_mu_cs` order:
    # both RX mixers turn by 2*beta.
    cs = []
    for angle in (phi0, phi1, ent, 2 * beta):
        half = np.asarray(angle, dtype=float) / 2
        cs += [np.cos(half), np.sin(half)]
    return cs + cs[-2:]


def _shift(c, s, sign):
    # cos/sin of (half-angle +- pi/4): a +-pi/2 shift of the full gate angle.
    if sign > 0:
        return (c - s) / _SQRT2, (s + c) / _SQRT2
    return (c + s) / _SQRT2, (s - c) / _SQRT2


# ---------------------------------------------------------------------------
# Exact Fourier form.
#
# Each gate angle enters mu with trigonometric degree at most 1, so in the
# shifted angles x = (phi0 - pi/4, phi1 - pi/4, ent) mu is a Fourier series
# over the 27 frequencies {-1, 0, 1}^3. Whatever beta, at most 15 terms are
# nonzero: the constant and seven conjugate pairs, one of each listed below.
# ---------------------------------------------------------------------------

#: Frequencies (n0, n1, ne) of the terms exp(i (n0 x0 + n1 x1 + ne xe)) of mu:
#: the constant, then one of each conjugate pair.
FOURIER_FREQS = np.array(
    [(0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1), (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
)

#: The shifted angles are linear in the parameters and in (q, k):
#: x = W @ (q, k) with W = tensordot(params.to_array(), ANGLE_JACOBIAN, 1)
#: = [[lambda1, lambda2], [lambda2, lambda1], [alpha, alpha]]. Shape (5, 3, 2):
#: one d W / d parameter per row of (theta_s, gamma_d, gamma_s, alpha, beta).
#: At gamma_d = gamma_s = 0 (the `qpa-ind` ablation) W = [[theta_s, 0],
#: [0, theta_s], [alpha, alpha]]. Beta does not enter W.
ANGLE_JACOBIAN = np.array(
    [
        [[1, 0], [0, 1], [0, 0]],
        [[1, -1], [-1, 1], [0, 0]],
        [[1, 1], [1, 1], [0, 0]],
        [[0, 0], [0, 0], [1, 1]],
        [[0, 0], [0, 0], [0, 0]],
    ],
    dtype=float,
)

_JACOBIAN_ROWS = ANGLE_JACOBIAN.reshape(5, 6)


def _angle_map(params: QpaParams) -> np.ndarray:
    # W = params . ANGLE_JACOBIAN, shape (3, 2), for one parameter set, by
    # one small matrix product (a tensordot costs several times as much).
    return (params.to_array() @ _JACOBIAN_ROWS).reshape(3, 2)


#: The base angles (a, b, c) = (x0, x1 + xe, x1 - xe) as a map on the shifted
#: angles x. In them FOURIER_FREQS[1:] are a, b, c, a+b, a+c, a-c and a-b, so
#: three phasors give every feature: the base angles of the inputs (q, k) are
#: _BASE_ANGLES @ W @ (q, k).
_BASE_ANGLES = np.array([[1, 0, 0], [0, 1, 1], [0, 1, -1]], dtype=float)


# The circuit measures mu = (1 + <ZZ>) / 2. Before the mixer the state is
# real, so <ZY>, <YZ> and each <Y> vanish there, and the two RX(2 beta) gates
# turn <ZZ> into cos^2(2 beta) <ZZ> + sin^2(2 beta) <YY> and each <Z> into
# cos(2 beta) <Z>. The coefficients of mu are therefore fixed vectors weighted
# by functions of beta alone.
_R = np.exp(1j * np.pi / 4)

#: Folded Fourier coefficients on FOURIER_FREQS[1:] of <ZZ>, <YY> and
#: <ZI> + <IZ> on the state before the mixer; none has a constant term.
_ZZ = np.array([_R, 0, 0, 0, 0, 0, 0])
_YY = np.array([0, 1j * _R / 2, -1j * _R / 2, -1 / 4, -1 / 4, -1j / 4, -1j / 4])
_ZS = np.array([0, _R, 0, 1j / 2, 0, 0, 1 / 2])


def fourier_coefficients(beta: float):
    """Coefficients of mu = Re sum_n c_n exp(i FOURIER_FREQS[n] . x), and dc_n/dbeta.

    ``x`` is the shifted angle vector (phi0 - pi/4, phi1 - pi/4, ent); each
    conjugate pair is folded into one term with twice the coefficient. In
    closed form c_0 = 1/2 and c_n = (cos^2(2 beta) ZZ_n + sin^2(2 beta) YY_n) / 2,
    so dc_0/dbeta = 0 and dc_n/dbeta = sin(4 beta) (YY_n - ZZ_n): every c(beta)
    lies in the real plane of two fixed vectors. The real-amplitude evaluator
    (`score_grad_batch`) is their oracle. Returns two complex arrays of
    shape (8,).
    """
    c = np.zeros(8, dtype=np.complex128)
    dc = np.zeros(8, dtype=np.complex128)
    c[0] = 0.5
    c[1:] = (np.cos(2 * beta) ** 2 * _ZZ + np.sin(2 * beta) ** 2 * _YY) / 2
    dc[1:] = np.sin(4 * beta) * (_YY - _ZZ)
    return c, dc


def phasors(theta, out=None) -> np.ndarray:
    """exp(i theta) = (1 - t^2 + 2 i t) / (1 + t^2) with t = tan(theta / 2).

    Within a few 1e-16 of cos + i sin wherever theta is finite (|t| stays
    far below overflow for every float64 theta). One tangent replaces a
    cosine and a sine: numpy vectorises float64 tan but not cos and sin, and
    on an AVX-512 x86-64 host the whole phasor costs 7 ns per element
    against 17-20 ns for each of cos and sin.
    """
    t = np.multiply(theta, 0.5, out=np.empty(np.shape(theta)))  # an array even when 0-d
    if out is None:
        out = np.empty(t.shape, dtype=np.complex128)
    _cos_sin(t, out.real, out.imag)
    return out


def _cos_sin(half, cos, sin) -> None:
    # cos and sin of the angles 2 * half by the identity of `phasors`, one
    # tangent each, written into ``cos`` and ``sin``. ``half`` is overwritten
    # and may itself be ``sin``.
    t = np.tan(half, out=half)
    _tangent_cos_sin(t, cos, sin, np.empty_like(t))  # an array even when 0-d


def _tangent_cos_sin(t, cos, sin, r) -> None:
    # cos and sin of the angles whose half-angle tangents are ``t``, written
    # into ``cos`` and ``sin``; ``r`` holds 2 / (1 + t^2) on the way and may
    # be ``cos`` itself, and ``sin`` may be ``t``.
    np.multiply(t, t, out=r)
    r += 1.0
    np.divide(2.0, r, out=r)  # 2 / (1 + t^2) = 1 + cos
    np.multiply(t, r, out=sin)
    np.subtract(r, 1.0, out=cos)


def fourier_features(x, w, out=None) -> np.ndarray:
    """The features exp(i FOURIER_FREQS[n] . w x), n = 1..7, as an x.shape + (7,) array.

    ``w`` is one column of the angle map W = params . `ANGLE_JACOBIAN`:
    (lambda1, lambda2, alpha) gives the query features exp(i u_n q), and
    (lambda2, lambda1, alpha) the key features exp(i v_n k), with
    (u_n, v_n) = FOURIER_FREQS[n] @ W. The constant feature (n = 0) is 1 and
    is left out. They are `_angle_features` at the base angles of w x. The
    tangent is odd, so the features of -w are the complex conjugates of
    those of w, bit for bit. ``out``, if given, is the C-contiguous complex
    x.shape + (7,) array the features are written into, such as a tile of a
    larger feature array.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape + (7,), dtype=np.complex128)
    elif out.shape != x.shape + (7,) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex128 array of shape x.shape + (7,)")
    return _angle_features(np.multiply.outer(_BASE_ANGLES @ w, x), out)


def _pair_features(q: np.ndarray, k: np.ndarray, W: np.ndarray, out=None) -> np.ndarray:
    # The features at each broadcast (q, k) pair's angle vector W @ (q, k),
    # exp(i FOURIER_FREQS[n] . W (q, k)) = F_n(q) G_n(k), as a broadcast
    # shape + (7,) array: the training step's last layer builds them for its
    # CLS row q (items, 1, D) against keys k (items, N_k, D). q and k have
    # the same number of axes.
    return _angle_features(_pair_angles(q, k, _BASE_ANGLES @ W), out)


def _pair_angles(q: np.ndarray, k: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    # The angles B @ (q, k) of every broadcast pair of q and k, which have
    # the same number of axes, as a (3,) + broadcast shape array, written
    # into ``out`` if given.
    theta = np.empty((3,) + np.broadcast_shapes(q.shape, k.shape)) if out is None else out
    np.multiply(B[:, 1].reshape((3,) + (1,) * k.ndim), k, out=theta)
    theta += np.multiply.outer(B[:, 0], q)
    return theta


def _feature_planes(theta) -> np.ndarray:
    # The features at base angles theta = (a, b, c) of shape (3, ...), as
    # contiguous planes of shape (7,) + theta.shape[1:]. The three base
    # phasors, one `phasors` call, are features 1-3; each of the other four
    # is one complex product of two of them. They are formed in contiguous
    # planes, since numpy's complex multiply into a strided slot costs
    # several times a contiguous one.
    planes = np.empty((7,) + theta.shape[1:], dtype=np.complex128)
    flat = planes.reshape(7, -1)
    a, b, c = phasors(theta.reshape(3, -1), out=flat[:3])
    np.multiply(a, b, out=flat[3])  # a + b
    np.multiply(a, c, out=flat[4])  # a + c
    np.multiply(a, np.conjugate(c, out=flat[5]), out=flat[5])  # a - c
    np.multiply(a, np.conjugate(b, out=flat[6]), out=flat[6])  # a - b
    return planes


def _angle_features(theta, out=None) -> np.ndarray:
    # The features at base angles theta of `_feature_planes`, as a
    # theta.shape[1:] + (7,) array, written into ``out`` if given
    # (C-contiguous complex128, unchecked) by one transposing copy.
    if out is None:
        out = np.empty(theta.shape[1:] + (7,), dtype=np.complex128)
    out.reshape(-1, 7)[...] = _feature_planes(theta).reshape(7, -1).T  # a view: out is C-contiguous
    return out


def _feature_sums(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # `fourier_features(x, w).sum(axis=-3)` bit for bit, for x (..., N, D):
    # each feature summed over N, as a C-contiguous (..., D, 7) array. The
    # planes are summed before any layout, so only the sums are transposed.
    # Both sums add the N terms of each slot one after another, because
    # each reduces a middle axis over a contiguous inner one; the planes are
    # summed as their (re, im) floats so that the inner axis has two or more
    # entries even at D = 1.
    planes = _feature_planes(np.multiply.outer(_BASE_ANGLES @ w, x))  # (7, ..., N, D)
    sums = np.einsum("p...nk->p...k", planes.view(np.float64)).view(np.complex128)
    return np.ascontiguousarray(np.moveaxis(sums, 0, -1))


def _series(qs, ks, params: QpaParams, c: np.ndarray) -> np.ndarray:
    # The series c_0 + Re sum_{n>=1} c_n F_n(q) G_n(k) at every broadcast
    # (q, k) pair, for the coefficients c on FOURIER_FREQS, summed pair by
    # pair with no feature array: the tangents of its half base angles
    # (`_pair_tangents`) become the cosine and sine planes of its base angles
    # (`_tangent_planes`), which `_plane_series` weighs by c. It holds eight
    # floats per pair: the three sines, written over the tangents, the
    # three cosines, two scratch planes, and cos a's plane receives the
    # result. Callers that must bound the size of a call split it themselves
    # (`scorers.TILE_INPUTS`).
    qs = np.asarray(qs, dtype=float)
    ks = np.asarray(ks, dtype=float)
    _check_finite(qs, ks)
    ndim = max(qs.ndim, ks.ndim)  # `_pair_angles` takes sides with the same number of axes
    qs, ks = (x.reshape((1,) * (ndim - x.ndim) + x.shape) for x in (qs, ks))
    t = _pair_tangents(qs, ks, params)
    cos_a, work = np.empty(t.shape[1:]), np.empty((4,) + t.shape[1:])
    planes = [*(t[j, ...] for j in range(3)), cos_a, work[0, ...], work[1, ...]]  # views, arrays even when 0-d
    _tangent_planes(planes)
    return _plane_series(planes, c, (work[2, ...], work[3, ...], cos_a))


def _pair_tangents(qs: np.ndarray, ks: np.ndarray, params: QpaParams, out=None) -> np.ndarray:
    # The tangents of the half base angles (a, b, c) / 2 of every broadcast
    # pair of float arrays qs and ks, which have the same number of axes and
    # are finite (the caller checks them), as a (3,) + broadcast shape array,
    # written into ``out`` if given. No noise channel changes them.
    half = _pair_angles(qs, ks, 0.5 * (_BASE_ANGLES @ _angle_map(params)), out)
    return np.tan(half, out=half)


def _tangent_planes(planes) -> None:
    # The noise-free half of `_series`: ``planes`` are six arrays of one
    # shape, of which the first three hold the half-angle tangents of a, b
    # and c (`_pair_tangents`) and become their sines in place, and the last
    # three receive their cosines. These are the planes `_plane_series` weighs.
    for t, cos in zip(planes[:3], planes[3:]):
        _tangent_cos_sin(t, cos, t, cos)


def _plane_series(planes, c: np.ndarray, work) -> np.ndarray:
    # The series of `_series` from the planes sin a, sin b, sin c, cos a,
    # cos b and cos c of `_tangent_planes`, six arrays of one shape:
    #   mu = c_0 + Re(c_2 e^{ib}) + Re(c_3 e^{ic}) + Re(e^{ia} z),
    #   z = c_1 + (c_4 + c_7) cos b + i (c_4 - c_7) sin b
    #           + (c_5 + c_6) cos c + i (c_5 - c_6) sin c,
    # where Re z, Im z and the rest of mu are weighted sums of the b and c
    # planes. ``work`` is three arrays of that shape: a z sum, the products
    # of every sum after its first, and mu, which is returned and may be
    # cos a, since cos a is last read before mu is first written. The
    # planes are otherwise only read, so one set serves any coefficients.
    sin_a, sin_b, sin_c, cos_a, cos_b, cos_c = planes
    z_sum, scratch, mu = work
    c0, c1, c2, c3, c4, c5, c6, c7 = c.tolist()
    z = [(c4 + c7, cos_b), (1j * (c4 - c7), sin_b), (c5 + c6, cos_c), (1j * (c5 - c6), sin_c)]

    def plane_sum(const, terms, total):
        # const + the sum of weight * plane over the (weight, plane) terms,
        # written into ``total``; each product after the first goes into
        # ``scratch``.
        (w0, p0), *rest = terms
        np.multiply(p0, w0, out=total)
        for weight, plane in rest:
            total += np.multiply(plane, weight, out=scratch)
        total += const
        return total

    plane_sum(c1.real, [(w.real, plane) for w, plane in z], z_sum)
    np.multiply(cos_a, z_sum, out=z_sum)  # cos a's last read
    plane_sum(c0.real, [(c2.real, cos_b), (-c2.imag, sin_b), (c3.real, cos_c), (-c3.imag, sin_c)], mu)
    mu += z_sum
    plane_sum(c1.imag, [(w.imag, plane) for w, plane in z], z_sum)
    mu -= np.multiply(sin_a, z_sum, out=z_sum)
    return mu


def _check_one_set(params: QpaParams) -> None:
    # The Fourier form takes one parameter set; array fields are for the
    # statevector path.
    if any(np.ndim(getattr(params, name)) for name in PARAM_NAMES):
        raise ValueError("the Fourier form takes one parameter set, not arrays of parameters")


def score_batch(qs, ks, params: QpaParams) -> np.ndarray:
    """Vectorised mu over broadcastable arrays of inputs, from the Fourier form.

    Returns one score per broadcast (q, k) pair, each summed on its own
    from three half-angle tangents, with no feature array, whatever the
    layout. An outer layout (many queries against many keys) costs one sum
    per pair, slower than the product of the two sides' features that the
    attention layers that score all N query rows take
    (`scorers.qpa_scores`), but fine for the lab and the tests. A
    non-finite input raises `ValueError`, as in `score`, before any tangent
    is taken; so do array-valued parameters.
    """
    _check_one_set(params)
    return _series(qs, ks, params, fourier_coefficients(params.beta)[0])


def score_grad_batch(qs, ks, params: QpaParams):
    """Vectorised mu and its parameter-shift partials at every input pair.

    Returns ``(mu, d_q, d_k, d_params)`` where ``d_params`` has shape
    ``(5,) + mu.shape`` in (theta_s, gamma_d, gamma_s, alpha, beta) order.
    Real-amplitude evaluation throughout: each gate-angle partial is the
    shift quotient (f(x + pi/2) - f(x - pi/2)) / 2, and the beta partial sums
    those of both RX gates, each turning by 2*beta. The oracle for the
    Fourier form and its gradient. A non-finite input raises `ValueError`,
    as in `score`.
    """
    qs = np.asarray(qs, dtype=float)
    ks = np.asarray(ks, dtype=float)
    phi0, phi1 = equivalent_angles(qs, ks, params)
    base = _gate_cs(phi0, phi1, params.alpha * (qs + ks), params.beta)
    mu = _mu_cs(*base)

    def d_gate(idx):
        # (f(x + pi/2) - f(x - pi/2)) / 2 for the gate whose cos/sin sit at idx.
        plus, minus = list(base), list(base)
        plus[idx : idx + 2] = _shift(base[idx], base[idx + 1], +1)
        minus[idx : idx + 2] = _shift(base[idx], base[idx + 1], -1)
        return (_mu_cs(*plus) - _mu_cs(*minus)) / 2

    g0, g1, ge = d_gate(0), d_gate(2), d_gate(4)
    gb = 2 * (d_gate(6) + d_gate(8))

    d_theta = qs * g0 + ks * g1
    d_gd = (qs - ks) * (g0 - g1)
    d_gs = (qs + ks) * (g0 + g1)
    d_alpha = (qs + ks) * ge
    d_params = np.stack([d_theta, d_gd, d_gs, d_alpha, np.broadcast_to(gb, mu.shape)])
    d_q = params.lambda1 * g0 + params.lambda2 * g1 + params.alpha * ge
    d_k = params.lambda2 * g0 + params.lambda1 * g1 + params.alpha * ge
    return mu, d_q, d_k, d_params


def score_gradient(q: float, k: float, params: QpaParams) -> ScoreGradient:
    """Exact parameter-shift gradient of mu w.r.t. the circuit parameters and inputs."""
    _, d_q, d_k, d_params = score_grad_batch(q, k, params)
    return ScoreGradient(*(float(v) for v in d_params), float(d_q), float(d_k))


# ---------------------------------------------------------------------------
# Finite-shot estimation and noise.
# ---------------------------------------------------------------------------


#: Largest shot count `score_sampled` accepts: the multinomial draw counts in int64.
MAX_SHOTS = 2**63 - 1


@functools.lru_cache(maxsize=64)
def _sampling_probs(q: float, k: float, params: QpaParams) -> np.ndarray:
    """Exact outcome distribution of one input, read-only, built once per key.

    Memoized on (q, k, params) alone, so it assumes the circuit's code is
    fixed: code that patches a gate must call `_clear_sampling_memos`.
    Only the sampler reads it; `build_state` itself is not memoized.
    """
    probs = qcore.measure_probs(build_state(q, k, params))
    probs = probs / probs.sum()
    probs.flags.writeable = False
    return probs


#: The last input `score_sampled` drew from, as (params, q, k, probs). A
#: repeated input is found by the identity of its parameter object, which
#: the entry keeps alive, and two float comparisons, without hashing the
#: dataclass as `_sampling_probs` does. Rebinding a tuple is atomic, so
#: threads that share it read one whole entry.
_last_input: tuple = (None, None, None, None)


@functools.lru_cache(maxsize=4096)
def _philox_key(seed: int) -> tuple[int, int]:
    """The 128-bit key ``np.random.Philox(seed)`` starts from, as two ints.

    Hashing the seed through `np.random.SeedSequence` is most of what building
    a generator costs, so each integer seed is hashed once. A tuple is
    immutable, and the generator's state setter reads Python ints faster than
    numpy scalars.
    """
    return tuple(np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist())


def _clear_sampling_memos() -> None:
    """Forget every memoized distribution and seed key of `score_sampled`."""
    global _last_input
    _last_input = (None, None, None, None)
    _sampling_probs.cache_clear()
    _philox_key.cache_clear()


_THREAD = threading.local()


def _thread_philox() -> tuple:
    """This thread's bit generator, its generator and its state template.

    Philox is counter-based: its whole state is a key, a counter and an output
    buffer. The template holds counter 0 and an empty buffer; a reset writes
    the seed's key into it and hands it to the state setter, which copies it,
    so one dict serves every reset of the thread.
    """
    bit_generator = np.random.Philox(0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # past the 4-word buffer: the first draw computes a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    _THREAD.philox = philox = (bit_generator, np.random.Generator(bit_generator), state)
    return philox


def _seeded_generator(seed) -> np.random.Generator:
    """A generator in the state ``np.random.Generator(np.random.Philox(seed))``
    starts in, so it draws the same numbers bit for bit.

    Each thread keeps one generator and resets it to the seed's key (see
    `_thread_philox`). Seeds other than integers (sequences of ints, None,
    seed sequences) are rare and build their own generator, so every seed is
    accepted or refused exactly as by the constructor.
    """
    # A plain int skips the ABC check, which costs about 0.5 µs.
    if type(seed) is int:
        key = _philox_key(seed)
    elif isinstance(seed, numbers.Integral):
        key = _philox_key(int(seed))
    else:
        return np.random.Generator(np.random.Philox(seed))
    try:
        bit_generator, rng, state = _THREAD.philox
    except AttributeError:
        bit_generator, rng, state = _thread_philox()
    state["state"]["key"] = key
    bit_generator.state = state
    return rng


def score_sampled(
    q: float, k: float, params: QpaParams, shots: int, seed: int = 0
) -> float:
    """Estimate mu from a finite number of measurement shots.

    Draws ``shots`` outcomes from the exact distribution with a counter-based
    (Philox) generator so results are reproducible bit-for-bit given the seed:
    the draws are those of ``np.random.Generator(np.random.Philox(seed))``.
    Var(mu_hat) = mu(1-mu)/shots <= 1/(4*shots). The statevector is built
    once per distinct input, and each integer seed is hashed into its Philox
    key once (memoized, at most 4096 seeds). A repeated input and seed then
    cost one reset of this thread's generator and one multinomial draw:
    2.4-2.7 µs a call, of which the reset and the draw take 1.4-1.6 µs, where
    building a generator per call would cost 13-14 µs (2-vCPU x86-64 host,
    numpy 2.4).
    """
    global _last_input
    if not (type(shots) is int or isinstance(shots, numbers.Integral)) or not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots!r}")
    q, k = float(q), float(k)
    last_params, last_q, last_k, probs = _last_input
    if params is not last_params or q != last_q or k != last_k:
        probs = _sampling_probs(q, k, params)
        _last_input = (params, q, k, probs)
    zero_zero, _, _, one_one = _seeded_generator(seed).multinomial(shots, probs).tolist()
    return (zero_zero + one_one) / int(shots)


def score_noisy(
    q,
    k,
    params: QpaParams,
    channel: str,
    gamma_noise,
    independent: bool = False,
):
    """mu under a noise channel applied to each qubit after the full unitary.

    ``channel`` is one of "AD", "DP", "BF", "PF". The channel acts once per
    qubit immediately before measurement, the placement under which the
    phase-flip channel provably cannot change the score. Broadcasts like
    `build_state`, with ``gamma_noise`` a float or an array too; scalar
    inputs give a Python float.
    """
    if channel not in qcore.CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {sorted(qcore.CHANNELS)}")
    gamma_noise = np.asarray(gamma_noise, dtype=float)
    outside = gamma_noise[~((0.0 <= gamma_noise) & (gamma_noise <= 1.0))]
    if outside.size:
        raise ValueError(f"gamma_noise must lie in [0, 1], got {float(outside.flat[0])!r}")
    rho = qcore.state_to_density(build_state(q, k, params, independent))
    kraus = qcore.CHANNELS[channel](gamma_noise)
    for qubit in (0, 1):
        rho = qcore.apply_channel(rho, kraus, qubit)
    return _scalar_or_array((rho[..., 0, 0] + rho[..., 3, 3]).real)


#: How each channel acts on one qubit's <Z> expectation, <Z> -> t + s <Z>, as
#: (t, s) at strength gamma. Every Kraus operator in `qcore.CHANNELS` is
#: diagonal or antidiagonal, so the channels act on measured expectations alone.
_Z_MAPS = {
    "AD": lambda gamma: (gamma, 1 - gamma),
    "DP": lambda gamma: (0.0, 1 - gamma),
    "BF": lambda gamma: (0.0, 1 - 2 * gamma),
    "PF": lambda gamma: (0.0, 1.0),
}


def score_coefficients(params: QpaParams, noise=None) -> np.ndarray:
    """The coefficients c on `FOURIER_FREQS` of the score, clean or under ``noise``.

    ``noise`` is None or a channel ``(name, gamma)``. With <Z> -> t + s <Z>
    on each qubit, <ZZ> becomes t^2 + t s (<ZI> + <IZ>) + s^2 <ZZ>, so the
    noisy mu stays on the Fourier support of the clean one:
    c_0 = (1 + t^2) / 2 and c_n = s^2 c_n(clean) + (t s / 2) cos(2 beta) ZS_n.
    BF, DP and PF have t = 0 and only scale mu about 1/2:
    mu -> 1/2 + s^2 (mu - 1/2). `score_noisy_batch` and
    `scorers.quantum_score_sum` both read it. Returns a complex array of
    shape (8,).
    """
    c, _ = fourier_coefficients(params.beta)
    if noise is None:
        return c
    channel, gamma = noise
    if channel not in _Z_MAPS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {sorted(_Z_MAPS)}")
    gamma = float(gamma)
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    t, s = _Z_MAPS[channel](gamma)
    c[0] = (1 + t * t) / 2
    c[1:] = s * s * c[1:] + t * s / 2 * np.cos(2 * params.beta) * _ZS
    return c


def score_noisy_batch(qs, ks, params: QpaParams, channel: str, gamma: float) -> np.ndarray:
    """Vectorised noisy score over broadcastable input arrays.

    The series of `score_batch`, summed pair by pair as there, with the
    noisy coefficients of `score_coefficients`. The density-matrix
    `score_noisy` is its oracle. A non-finite input raises `ValueError`, as
    in `score`, before any tangent is taken.
    """
    _check_one_set(params)
    return _series(qs, ks, params, score_coefficients(params, (channel, gamma)))
