"""Numerical verification of the scoring circuit's analytic structure.

Covers the encoding kernels and their (non-)separability, the two-frequency
closed form, boundedness / asymmetry / non-monotonicity of the score, the
effective-degrees-of-freedom rank bounds, gradient exactness, noise-channel
behaviour and the shot-noise bound. `run_claims` executes every check and
returns machine-readable results for the ``verify`` CLI subcommand.
The encoding angles come from `circuit.equivalent_angles` alone. The closed
forms, the statevector oracle and the parameter-shift gradients broadcast
over arrays, array-valued `QpaParams` included, so a claim checks all its
points in one call per evaluator; the points are drawn one by one, in the
order of a loop over them (`_draw_points`). Five claims keep a loop:
property1-boundedness and property2-asymmetry score with the Fourier form,
which takes one parameter set per call; lemma1-nonseparability's log stencil
is scalar `math.log`, and `np.log` would move its witnesses;
theorem1-encoding-rank takes one Jacobian per draw; shots-variance-bound
makes one sampler call per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np
from scipy.special import chdtri

from . import circuit
from .circuit import QpaParams, PARAM_NAMES


class NearSingularKernelError(ValueError):
    """The kernel is too close to zero for the log-derivative stencil."""


@dataclass(frozen=True)
class KernelPoint:
    """Displacement between two (q, k) input pairs."""

    delta_q: float
    delta_k: float


@dataclass
class RankReport:
    singular_values: list[float]
    numerical_rank: int
    tolerance: float


@dataclass
class ClaimResult:
    claim_id: str
    passed: bool
    tolerance: float
    witness: dict = field(default_factory=dict)


#: What a claim function returns: (passed, tolerance, witness). `run_claims`
#: adds the claim id from `_CLAIMS`.
Verdict = tuple[bool, float, dict]


def kernel_enc3(x1, x2, params: QpaParams):
    """Fidelity kernel of the three-step encoding (product state, pre-entangler).

    cos^2(l1' dq + l2' dk) * cos^2(l2' dq + l1' dk) with l' = lambda/2; the
    cross terms make it non-separable whenever lambda1 != 0 and lambda2 != 0.
    A point is a pair (q, k) of floats or broadcastable arrays. np.square keeps
    each element equal to its scalar call: a float's ``** 2`` calls pow.
    """
    dq = x2[0] - x1[0]
    dk = x2[1] - x1[1]
    l1h, l2h = params.lambda1 / 2, params.lambda2 / 2
    return np.square(np.cos(l1h * dq + l2h * dk)) * np.square(np.cos(l2h * dq + l1h * dk))


def kernel_enc1(x1, x2, scale: float):
    """Separable kernel of the single-parameter encoding: cos^2(E dq/2) cos^2(E dk/2).

    Broadcasts over (q, k) pairs of arrays like `kernel_enc3`.
    """
    dq = x2[0] - x1[0]
    dk = x2[1] - x1[1]
    return np.square(np.cos(scale * dq / 2)) * np.square(np.cos(scale * dk / 2))


def mixed_partial_log(
    fn: Callable[[float, float], float], dq: float, dk: float, h: float = 1e-4
) -> float:
    """Central-difference estimate of d^2 ln f / (d dq)(d dk) at (dq, dk).

    Raises NearSingularKernelError if f <= 1e-8 anywhere on the stencil. A
    separable f(dq)g(dk) has identically zero mixed log-partial.
    """
    vals = [
        fn(dq + sq * h, dk + sk * h)
        for sq, sk in ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
    ]
    if min(vals) <= 1e-8:
        raise NearSingularKernelError(
            f"kernel value {min(vals):.3e} too small for log stencil at ({dq}, {dk})"
        )
    lpp, lpm, lmp, lmm = (math.log(v) for v in vals)
    return (lpp - lpm - lmp + lmm) / (4 * h * h)


def mixed_partial_log_kernel(
    params: QpaParams, point: KernelPoint, h: float = 1e-4
) -> float:
    """Mixed log-partial of the three-step encoding kernel at a displacement point."""
    return mixed_partial_log(
        lambda dq, dk: kernel_enc3((0.0, 0.0), (dq, dk), params),
        point.delta_q,
        point.delta_k,
        h,
    )


def _mixed_partial_log_kernel_exact(params: QpaParams, point: KernelPoint) -> float:
    # -2 l1' l2' [sec^2(l1' dq + l2' dk) + sec^2(l2' dq + l1' dk)]
    l1h, l2h = params.lambda1 / 2, params.lambda2 / 2
    a = l1h * point.delta_q + l2h * point.delta_k
    b = l2h * point.delta_q + l1h * point.delta_k
    return float(-2 * l1h * l2h * (1 / np.cos(a) ** 2 + 1 / np.cos(b) ** 2))


def _rank_from_singular_values(sv: np.ndarray, tolerance: float) -> RankReport:
    sv = np.sort(np.asarray(sv, dtype=float))[::-1]
    cut = tolerance * sv[0] if sv.size and sv[0] > 0 else tolerance
    rank = int(np.sum(sv > cut))
    return RankReport(singular_values=sv.tolist(), numerical_rank=rank, tolerance=tolerance)


def encoding_jacobian(params: QpaParams, h: float = 0.5) -> np.ndarray:
    """Jacobian of (omega_d, omega_s) w.r.t. (theta_s, gamma_d, gamma_s).

    The map is linear, so central differences recover the constant matrix
    [[1, 2, 0], [1, 0, 2]] exactly for any step size.
    """
    base = params.to_array()
    jac = np.zeros((2, 3))
    for j in range(3):
        up, dn = base.copy(), base.copy()
        up[j] += h
        dn[j] -= h
        pu, pd = QpaParams.from_array(up), QpaParams.from_array(dn)
        jac[:, j] = np.array([pu.omega_d - pd.omega_d, pu.omega_s - pd.omega_s]) / (2 * h)
    return jac


def encoding_jacobian_rank(params: QpaParams, tolerance: float = 1e-8) -> RankReport:
    """Numerical rank of the encoding-parameter Jacobian (always 2)."""
    sv = np.linalg.svd(encoding_jacobian(params), compute_uv=False)
    return _rank_from_singular_values(sv, tolerance)


def default_probe_grid(half_width: float = 1.5, n: int = 5) -> np.ndarray:
    """Uniform n x n probe grid over [-half_width, half_width]^2 (LayerNorm scale)."""
    axis = np.linspace(-half_width, half_width, n)
    qq, kk = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([qq.ravel(), kk.ravel()])


def full_circuit_rank(
    params: QpaParams,
    probe_grid: np.ndarray | None = None,
    tolerance: float = 1e-8,
    param_names: tuple[str, ...] = PARAM_NAMES,
) -> RankReport:
    """Numerical rank of the |grid| x |params| score Jacobian.

    Rows are exact parameter-shift gradients of mu at each probe point, so the
    reported rank is an empirical bound check, not corrupted by finite
    differences. ``param_names`` restricts the Jacobian columns (e.g. to the
    encoding parameters on the alpha = beta = 0 slice).
    """
    grid = default_probe_grid() if probe_grid is None else np.asarray(probe_grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 2 or grid.shape[0] < 5:
        raise ValueError("probe_grid must contain at least 5 (q, k) points")
    if np.all(grid == grid[0]):
        raise ValueError("probe_grid is degenerate: all points identical")
    unknown = set(param_names) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown parameter names: {sorted(unknown)}")
    _, _, _, d_params = circuit.score_grad_batch(grid[:, 0], grid[:, 1], params)
    cols = [PARAM_NAMES.index(name) for name in param_names]
    jac = d_params[cols].T
    sv = np.linalg.svd(jac, compute_uv=False)
    return _rank_from_singular_values(sv, tolerance)


# ---------------------------------------------------------------------------
# Claim suite.
# ---------------------------------------------------------------------------


def _encoding_state_batch(qs, ks, params: QpaParams) -> np.ndarray:
    # Product-state amplitudes of the encoding layer, shape (..., 4).
    phi0, phi1 = circuit.equivalent_angles(qs, ks, params)
    c0, s0 = np.cos(phi0 / 2), np.sin(phi0 / 2)
    c1, s1 = np.cos(phi1 / 2), np.sin(phi1 / 2)
    return np.stack([c0 * c1, c0 * s1, s0 * c1, s0 * s1], axis=-1)


def _random_params(rng: np.random.Generator) -> QpaParams:
    return QpaParams.from_array(rng.normal(0.0, 0.8, size=5))


def _param_values(rng: np.random.Generator) -> np.ndarray:
    return _random_params(rng).to_array()


def _draw_points(rng: np.random.Generator, n: int, *draws: Callable) -> list[np.ndarray]:
    """``n`` rounds of ``draws``, each called on ``rng`` in the order given.

    Returns one array per draw with the rounds on the last axis: a draw of
    shape (m,) gives (m, n). The random numbers are those of a loop that
    makes the draws point by point.
    """
    rounds = [[draw(rng) for draw in draws] for _ in range(n)]
    return [np.array(column).T for column in zip(*rounds)]


def _claim_lemma2_closed_form(rng: np.random.Generator) -> Verdict:
    # Ten parameter sets, each on its own row of 1000 (q, k) points.
    n = 10_000
    qs, ks = rng.normal(0, 1.5, (2, 10, n // 10))
    (values,) = _draw_points(rng, 10, _param_values)
    p = QpaParams.from_array(values[..., None])
    states = _encoding_state_batch(qs, ks, p)
    sim = states[..., 0] ** 2 + states[..., 3] ** 2
    worst = float(np.max(np.abs(sim - circuit.score_encoding_only(qs, ks, p))))
    return worst <= 1e-12, 1e-12, {"max_abs_err": worst, "n": n}


def _claim_kernel_equivalence(rng: np.random.Generator) -> Verdict:
    # Ten parameter sets, each on its own row of 1000 pairs of (q, k) points.
    n = 10_000
    q1, k1, q2, k2 = rng.normal(0, 1.5, (10, n // 10, 4)).transpose(2, 0, 1)
    (values,) = _draw_points(rng, 10, _param_values)
    p = QpaParams.from_array(values[..., None])
    s1 = _encoding_state_batch(q1, k1, p)
    s2 = _encoding_state_batch(q2, k2, p)
    sim = np.sum(s1 * s2, axis=-1) ** 2  # amplitudes are real
    worst = float(np.max(np.abs(sim - kernel_enc3((q1, k1), (q2, k2), p))))
    return worst <= 1e-12, 1e-12, {"max_abs_err": worst, "n": n}


def _claim_nonseparability(rng: np.random.Generator) -> Verdict:
    # Strictly negative mixed log-partial when lambda1*lambda2 > 0; ~0 in the
    # separable cases (lambda2 = 0 and the single-parameter kernel).
    witness: dict = {}
    ok = True
    for _ in range(50):
        while True:
            p = _random_params(rng)
            if p.lambda1 * p.lambda2 > 0.01:
                break
        point = KernelPoint(*rng.uniform(-0.3, 0.3, 2))
        try:
            num = mixed_partial_log_kernel(p, point)
        except NearSingularKernelError:
            continue
        exact = _mixed_partial_log_kernel_exact(p, point)
        ok &= num < 0 and abs(num - exact) < 1e-4 * max(1.0, abs(exact))
    sep_worst = 0.0
    for _ in range(50):
        theta = rng.normal(0, 0.8)
        p = QpaParams(theta, 0.3, 0.3, 0.0, 0.0)  # gamma_d == gamma_s -> lambda2 = 0
        point = KernelPoint(*rng.uniform(-0.3, 0.3, 2))
        sep_worst = max(sep_worst, abs(mixed_partial_log_kernel(p, point)))
        scale = rng.normal(0, 0.8)
        enc1 = mixed_partial_log(
            lambda dq, dk: kernel_enc1((0.0, 0.0), (dq, dk), scale), *rng.uniform(-0.3, 0.3, 2)
        )
        sep_worst = max(sep_worst, abs(enc1))
    ok &= sep_worst < 1e-6
    witness.update({"max_separable_abs": sep_worst})
    return ok, 1e-6, witness


def _claim_frequency_identities(rng: np.random.Generator) -> Verdict:
    (values,) = _draw_points(rng, 100, _param_values)
    p = QpaParams.from_array(values)
    l1, l2 = p.lambda1, p.lambda2
    worst = float(np.max(np.abs([l1 + l2 - p.omega_s, l1 - l2 - p.omega_d])))
    return worst <= 1e-12, 1e-12, {"max_abs_err": worst}


def _claim_boundedness(rng: np.random.Generator) -> Verdict:
    n = 100_000
    qs, ks = rng.normal(0, 3.0, (2, n))
    lo, hi = 1.0, 0.0
    for i in range(0, n, 10_000):
        p = QpaParams.from_array(rng.normal(0, 3.0, size=5))
        mu = circuit.score_batch(qs[i : i + 10_000], ks[i : i + 10_000], p)
        lo, hi = min(lo, float(mu.min())), max(hi, float(mu.max()))
    ok = -1e-12 <= lo and hi <= 1 + 1e-12
    return ok, 1e-12, {"min": lo, "max": hi, "n": n}


def _claim_asymmetry(rng: np.random.Generator) -> Verdict:
    axis = np.linspace(-2, 2, 20)
    qq, kk = np.meshgrid(axis, axis, indexing="ij")
    # Both orders in one call: mu(q, k) on the first slice, mu(k, q) on the second.
    qs, ks = np.stack([qq, kk]), np.stack([kk, qq])
    worst_param_best = np.inf
    for _ in range(50):
        while True:
            p = _random_params(rng)
            if abs(p.alpha) > 0.05 and abs(p.lambda1 - p.lambda2) > 0.05:
                break
        mu = circuit.score_batch(qs, ks, p)
        gap = np.abs(mu[0] - mu[1])
        worst_param_best = min(worst_param_best, float(gap.max()))
    ok = worst_param_best > 1e-6
    return ok, 1e-6, {"min_over_params_of_max_gap": worst_param_best}


def _claim_nonmonotonicity(_: np.random.Generator) -> Verdict:
    # omega_d = omega_s = 1 with small generic entangler/mixer angles.
    p = QpaParams(1.0, 0.0, 0.0, 0.1, 0.1)
    qs = np.arange(0.0, 12.0 + 1e-9, 0.05)
    mu = circuit.score_batch(qs, np.zeros_like(qs), p)
    found = False
    rise = 0.0
    for i in range(1, len(mu) - 1):
        if mu[i] < mu[i - 1] and mu[i] < mu[i + 1]:
            rise = float(mu[i:].max() - mu[i])
            if rise >= 0.05:
                found = True
                break
    return found, 0.05, {"rise_after_min": rise}


def _claim_encoding_rank(rng: np.random.Generator) -> Verdict:
    ok = True
    witness: dict = {}
    for _ in range(20):
        p = _random_params(rng)
        jac = encoding_jacobian(p)
        report = encoding_jacobian_rank(p)
        minor = float(np.linalg.det(jac[:, :2]))
        ok &= report.numerical_rank == 2
        ok &= bool(np.allclose(jac, [[1, 2, 0], [1, 0, 2]], atol=1e-12))
        ok &= abs(minor + 2.0) < 1e-12
        witness = {"rank": report.numerical_rank, "leading_minor_det": minor}
    return ok, 1e-8, witness


def _claim_full_rank_bounds(rng: np.random.Generator) -> Verdict:
    # The `full_circuit_rank` of each draw on the default grid, and of its
    # alpha = beta = 0 slice over the encoding parameters, from one gradient
    # call and one stacked SVD: rows 0-99 hold the draws, rows 100-199 their
    # slices. A slice's alpha and beta columns are zeroed, which adds zero
    # singular values and leaves its rank that of the three encoding columns.
    n = 100
    (drawn,) = _draw_points(rng, n, _param_values)
    sliced = drawn.copy()
    sliced[3:] = 0.0
    params = QpaParams.from_array(np.concatenate([drawn, sliced], axis=1)[..., None])
    grid = default_probe_grid()
    _, _, _, d_params = circuit.score_grad_batch(grid[:, 0], grid[:, 1], params)
    jac = d_params.transpose(1, 2, 0)
    jac[n:, :, 3:] = 0.0
    ranks = [
        _rank_from_singular_values(sv, 1e-8).numerical_rank
        for sv in np.linalg.svd(jac, compute_uv=False)
    ]
    max_rank = max(ranks[:n])
    slice_ok = all(r == 2 for r in ranks[n:])
    ok = 2 <= max_rank <= 4 and slice_ok
    return ok, 1e-8, {"max_full_rank": max_rank, "restricted_slice_rank_always_2": slice_ok}


def _claim_degenerate_projection(rng: np.random.Generator) -> Verdict:
    # With alpha = beta = 0 the entangler collapses to fixed CNOTs and the
    # joint measurement reduces to a qubit-0 projection cos^2(phi0 / 2).
    enc, (q, k) = _draw_points(
        rng, 500, lambda r: r.normal(0, 0.8, 3), lambda r: r.normal(0, 2.0, 2)
    )
    p = QpaParams(*enc, 0.0, 0.0)
    sim = circuit.score(q, k, p)
    closed = np.cos(np.pi / 8 + p.lambda1 / 2 * q + p.lambda2 / 2 * k) ** 2
    worst = float(np.max(np.abs(sim - closed)))
    origin = circuit.score(0.0, 0.0, QpaParams(0.5, 0.1, -0.2, 0.0, 0.0))
    origin_err = abs(origin - 0.8535533905932737)
    ok = worst <= 1e-12 and origin_err <= 1e-9
    return ok, 1e-12, {"max_abs_err": worst, "origin_err": origin_err}


def _claim_gradient(rng: np.random.Generator) -> Verdict:
    # Central differences err by O(h^2); at h = 1e-4 that alone reaches 1e-6.
    # Coordinates (theta_s, gamma_d, gamma_s, alpha, beta, q, k) of the points
    # run down the first axis; each point's 14 shifted copies move coordinate
    # j by +h (copy 2j) and by -h (copy 2j + 1).
    h = 1e-5
    values, qk = _draw_points(rng, 200, _param_values, lambda r: r.normal(0, 1.5, 2))
    _, d_q, d_k, d_params = circuit.score_grad_batch(*qk, QpaParams.from_array(values))
    exact = np.concatenate([d_params, [d_q, d_k]]).T
    shifted = np.repeat(np.concatenate([values, qk])[..., None], 14, axis=-1)
    for j in range(7):
        shifted[j, :, 2 * j] += h
        shifted[j, :, 2 * j + 1] -= h
    mu = circuit.score(shifted[5], shifted[6], QpaParams.from_array(shifted[:5]))
    fd = (mu[:, 0::2] - mu[:, 1::2]) / (2 * h)
    worst = float(np.max(np.abs(fd - exact)))
    return worst <= 1e-6, 1e-6, {"max_abs_err": worst}


def _claim_pf_invariance(rng: np.random.Generator) -> Verdict:
    values, (q, k), gamma = _draw_points(
        rng, 200, _param_values, lambda r: r.normal(0, 1.5, 2), lambda r: r.uniform(0, 1)
    )
    p = QpaParams.from_array(values)
    noisy = circuit.score_noisy(q, k, p, "PF", gamma)
    worst = float(np.max(np.abs(noisy - circuit.score(q, k, p))))
    return worst <= 1e-12, 1e-12, {"max_abs_err": worst}


def _claim_bf_closed_form(rng: np.random.Generator) -> Verdict:
    # Points on the rows, strengths on the columns.
    gammas = np.arange(0.0, 0.1001, 0.02)
    values, qk = _draw_points(rng, 50, _param_values, lambda r: r.normal(0, 1.5, 2))
    q, k = qk[..., None]
    p = QpaParams.from_array(values[..., None])
    mu = circuit.score(q, k, p)
    noisy = circuit.score_noisy(q, k, p, "BF", gammas)
    closed = mu * (1 - 2 * gammas) ** 2 + 2 * gammas * (1 - gammas)
    worst = float(np.max(np.abs(noisy - closed)))
    return worst <= 1e-10, 1e-10, {"max_abs_err": worst}


#: False-alarm rate of the two-sided variance test in `shots-variance-bound`,
#: per seed: a sweep over 200 seeds then fails by chance with probability
#: 2e-4. The band is about +-4.9 standard errors, +-22% of the variance.
SHOT_FALSE_ALARM = 1e-6


def _claim_shot_bound(rng: np.random.Generator) -> Verdict:
    # An S-shot estimate is a Binomial(S, mu) count over S: its variance is
    # mu(1-mu)/S, which mu(1-mu) <= 1/4 bounds by 1/(4S). The bound is checked
    # on the exact mu. The sample variance of `reps` estimates is then tested
    # against the exact variance with a two-sided scaled chi-square interval
    # whose degrees of freedom nu match the sample variance's exact variance,
    # 2 var^2 / nu = var^2 (2 / (reps - 1) + kappa / reps), kappa being the
    # binomial excess kurtosis (nu = reps - 1 for normal samples).
    shots = 100
    reps = 1000
    p = _random_params(rng)
    q, k = rng.normal(0, 1.5, 2)
    base_seed = int(rng.integers(0, 2**31))
    estimates = np.array(
        [circuit.score_sampled(q, k, p, shots, seed=base_seed + i) for i in range(reps)]
    )
    sample_var = float(estimates.var(ddof=1))
    mu = circuit.score(q, k, p)
    spread = mu * (1 - mu)
    var = spread / shots
    interval = [0.0, 0.0]
    if spread > 0:
        kappa = (1 - 6 * spread) / (shots * spread)
        nu = 2 / (2 / (reps - 1) + kappa / reps)
        tails = [1 - SHOT_FALSE_ALARM / 2, SHOT_FALSE_ALARM / 2]
        interval = (var * chdtri(nu, tails) / nu).tolist()
    ok = var <= 1 / (4 * shots) and interval[0] <= sample_var <= interval[1]
    witness = {
        "mu": mu,
        "exact_var": var,
        "bound_var": 1 / (4 * shots),
        "sample_var": sample_var,
        "interval": interval,
        "empirical_std": math.sqrt(sample_var),
        "shots": shots,
        "reps": reps,
    }
    return ok, SHOT_FALSE_ALARM, witness


_CLAIMS: list[tuple[str, Callable[[np.random.Generator], Verdict]]] = [
    ("lemma2-closed-form", _claim_lemma2_closed_form),
    ("lemma1-kernel-equivalence", _claim_kernel_equivalence),
    ("lemma1-nonseparability", _claim_nonseparability),
    ("lemma2-frequency-identities", _claim_frequency_identities),
    ("property1-boundedness", _claim_boundedness),
    ("property2-asymmetry", _claim_asymmetry),
    ("property3-nonmonotonicity", _claim_nonmonotonicity),
    ("theorem1-encoding-rank", _claim_encoding_rank),
    ("theorem2-rank-bounds", _claim_full_rank_bounds),
    ("degenerate-projection", _claim_degenerate_projection),
    ("gradient-parameter-shift", _claim_gradient),
    ("noise-pf-invariance", _claim_pf_invariance),
    ("noise-bf-closed-form", _claim_bf_closed_form),
    ("shots-variance-bound", _claim_shot_bound),
]


def claim_ids() -> list[str]:
    return [cid for cid, _ in _CLAIMS]


def run_claims(seed: int = 0, only: str | None = None) -> list[ClaimResult]:
    """Run the verification suite, optionally filtered by claim-id substring."""
    results = []
    for index, (cid, fn) in enumerate(_CLAIMS):
        if only is not None and only not in cid:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        results.append(ClaimResult(cid, *fn(rng)))
    return results


def _jsonify(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def claims_report(results: list[ClaimResult], seed: int) -> dict:
    """JSON-serialisable verification report."""
    return {
        "schema_version": 1,
        "seed": seed,
        "all_passed": bool(all(r.passed for r in results)),
        "claims": [_jsonify(asdict(r)) for r in results],
    }
