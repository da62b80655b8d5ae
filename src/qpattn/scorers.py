"""Attention score functions and the row softmax.

Seven interchangeable scorers share one contract: given per-head query/key
matrices ``Q, K`` of shape ``(..., N, d_h)`` they produce an ``(..., N, N)``
score matrix fed to a row softmax (the linear-attention variant skips the
softmax and returns outputs directly). The quantum scorers score every
(query, key) pair dimension-by-dimension with the two-qubit circuit and sum
the first ``D`` per-dimension scores, so their entries always lie in
``[0, D]`` with no extra scaling.

Each scorer with trainable parameters also exposes a ``*_backward`` companion
returning input and parameter gradients given the upstream score gradient.
Both directions of the quantum scorers use the circuit's exact Fourier form
(`circuit.score_batch`, `circuit.fourier_features`), a constant plus seven
products of a query feature with a key feature. The training step scores a
layer as a feature map followed by a product: `quantum_scores_with_features`
builds the seven features of every input of Q and K once, forms the score
matrix by one real GEMM of inner size 14 D per (batch, head) item, and
returns the features, which the step keeps in its layer cache and hands to
`quantum_scores_backward` (at B=32, N=17 / 50 / 197: 3.9 / 11.5 / about
45 MB for a layer that scores all N query rows). The ViT's last layer
scores the CLS row alone, so each (key, dimension) of an item is one pair:
there the forward builds the seven features at each pair's angles
(`circuit._pair_features`), the products of its query and key features,
reads each score as a row sum over them and returns them alone
(1.9 / 5.7 / 22.6 MB). The backward costs two
GEMMs per item on the features, or one on the pair features, whose rows
also give each key's gradient once scaled by its score gradient; it
reduces the products as real arrays of 14 floats per input. The series'
constant c_0 = 1/2 depends on no parameter and does not reach it.
Inference (`qpa_scores`) runs the same product (`_product_scores`) on every
layer that scores all N query rows, with the clean or noisy coefficients
of `circuit.score_coefficients`, and keeps one tile's features at a time.
Only the last layer's CLS row, one query per (image, head, dimension),
keeps per-tile circuit calls, which the benchmark's correctness hooks
read: the circuit sums each pair directly from three half-angle tangents
and builds no features. The mean score of
a layer whose query side is the CLS row alone comes from the series'
separable form, which sums the per-pair scores of all N query rows from
the sums of their features over N, taken plane by plane before any layout
(`circuit._feature_sums`). Its feature products depend on no noise channel
(`score_sum_terms`), so a noise sweep builds them once and weighs them by
each setting's coefficients (`quantum_score_sum`); in the same way it
turns the CLS row's pair tangents into the cosine and sine planes of each
pair's base angles once, scoring its first setting on the way
(`pair_planes`), and weighs the planes for each later setting
(`plane_scores`), bit for bit the per-tile circuit calls' scores: a later
setting takes no tangent, cosine or sine. The circuit evaluates
whatever it is given in one call, so the tiling policy lives here: every
direction runs on tiles of `TILE_INPUTS` inputs per side, so its
temporaries do not grow with the batch. The one exception is a
`qpa_scores` call with one query row (or one key row), which the circuit
sums pair by pair with no feature array: its tiles hold up to
7 `TILE_INPUTS` pairs, as many as the complex features of one block of
`TILE_INPUTS` inputs (17 images of N=50 at two heads and D=16).
There `qpa_scores` calls the circuit once per tile of whole images and
sums that tile's per-pair scores over D into its slice of the score matrix
before the next tile; the product writes each tile's scores (and, in
training, its features), and the backward each tile's rows of dQ and dK.
The MLP baselines score each (query, key, dimension) pair with a small MLP
whose affine first layer splits into a per-query and a per-key term; both
directions run on tiles of query rows under the same `TILE_INPUTS` budget,
and the backward runs each tile's forward again. Both kinds take the layout
the ViT passes: Q (..., N_q, d_h) and K (..., N_k, d_h) with the same leading
axes, e.g. (B, H, N, d_h), and a score gradient (..., N_q, N_k); any other
layout raises ``ValueError``. One rule (`_tiles`) cuts every tile.
The `KINDS` table at the end names the seven kinds and gives, for each, what a
ViT layer needs: parameter shapes, seeded initialisation, forward and backward.
The `qpa-ind` ablation is the `qpa` kind with gamma_d = gamma_s held at 0: the
circuit sees those two stored parameters as 0, and their gradient is 0.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import circuit
from .circuit import QpaParams

COSINE_SCALE_CAP = 100.0
COSINE_NORM_EPS = 1e-12
LINEAR_ATTN_EPS = 1e-6

#: Inputs per side in one tile of the quantum scorer's forward and backward
#: and of the MLP scorers' query-row tiles (seven times as many pairs in a
#: `qpa_scores` tile that the circuit sums pair by pair): bounds their
#: temporaries to a few MB whatever the batch. `_tiles` is its only reader.
TILE_INPUTS = 4096


def _check_depth(d_h: int, depth: int) -> None:
    if not 1 <= depth <= d_h:
        raise ValueError(f"aggregation depth {depth} must satisfy 1 <= D <= head dim {d_h}")


def _pair_inputs(Q, K, depth: int, *d_scores):
    # Q (..., N_q, d_h), K (..., N_k, d_h) and any score gradient
    # (..., N_q, N_k) as float arrays with the same leading axes, as the ViT
    # passes them.
    Q, K, *d_scores = (np.asarray(x, dtype=float) for x in (Q, K, *d_scores))
    _check_depth(Q.shape[-1], depth)
    scores_shape = Q.shape[:-1] + K.shape[-2:-1]
    if Q.shape[:-2] != K.shape[:-2] or any(d.shape != scores_shape for d in d_scores):
        shapes = ", ".join(str(x.shape) for x in (Q, K, *d_scores))
        raise ValueError(
            "pairwise scorers take Q (..., N_q, d_h) and K (..., N_k, d_h) with the same "
            f"leading axes and scores (..., N_q, N_k); got shapes {shapes}"
        )
    return Q, K, *d_scores


def _flat_pairs(Q, K, depth: int, *d_scores):
    # `_pair_inputs` with the leading axes flattened into items: the sizes
    # (items, N_q, N_k), the first `depth` dimensions qs and ks, and with a
    # score gradient also dA, zero dQ and dK, and dq and dk: views of their
    # first `depth` dimensions laid out as qs and ks, written in place.
    Q, K, *d_scores = _pair_inputs(Q, K, depth, *d_scores)
    items, n_q, n_k = math.prod(Q.shape[:-2]), Q.shape[-2], K.shape[-2]
    qs = Q[..., :depth].reshape(items, n_q, depth)
    ks = K[..., :depth].reshape(items, n_k, depth)
    if not d_scores:
        return (items, n_q, n_k), qs, ks
    dQ, dK = np.zeros(Q.shape), np.zeros(K.shape)
    dq = dQ.reshape(items, n_q, Q.shape[-1])[..., :depth]
    dk = dK.reshape(items, n_k, K.shape[-1])[..., :depth]
    return (items, n_q, n_k), qs, ks, d_scores[0].reshape(items, n_q, n_k), dQ, dK, dq, dk


def _tiles(units: int, per_unit: int, scale: int = 1) -> list[slice]:
    # Slices of whole units holding at most `scale * TILE_INPUTS` entries (by
    # default inputs per side), of which a unit holds `per_unit`, and at
    # least one unit.
    step = max(1, scale * TILE_INPUTS // max(per_unit, 1))
    return [slice(start, start + step) for start in range(0, units, step)]


def qpa_scores(
    Q: np.ndarray, K: np.ndarray, params: QpaParams, depth: int, noise=None
) -> np.ndarray:
    """Sum of per-dimension circuit scores: A[i, j] = sum_d mu(Q[i, d], K[j, d]).

    ``noise`` optionally puts a channel ``(name, gamma)`` on the circuit,
    through the coefficients of `circuit.score_coefficients`. Q and K share
    their leading axes. With several query and several key rows (a ViT
    layer that scores all N query rows) A is the training forward's product
    of query features with key features (`_product_scores`), bit for bit
    the A of `quantum_scores_with_features` on clean inputs, and only one
    tile's features are alive at a time. With one query row (the ViT's last
    layer) or one key row the circuit scores each pair on its own
    (`circuit.score_batch`, `circuit.score_noisy_batch`), one tile of whole
    images (slices of the first leading axis) per call, and each tile's
    per-pair scores (tile, ..., N_q, N_k, D) are summed over D into its
    slice of A at once, so no per-pair array of the whole batch is built.
    The tile size cannot change such a score: a tile holds at most
    7 `TILE_INPUTS` pairs (4 calls for 64 images at N=50, two heads and
    D=16), and at least one image. Q and K with no leading axis are one
    tile.
    """
    Q, K = _pair_inputs(Q, K, depth)
    # Checked once, before the tiles, so that a batch of no images refuses
    # what the circuit refuses: array-valued parameters, an unknown channel
    # or a strength outside [0, 1].
    circuit._check_one_set(params)
    c = circuit.score_coefficients(params, noise)
    lead, n_q, n_k = Q.shape[:-2], Q.shape[-2], K.shape[-2]
    if min(n_q, n_k) > 1:
        _, qs, ks = _flat_pairs(Q, K, depth)
        circuit._check_finite(qs, ks)
        return _product_scores(qs, ks, params, c).reshape(lead + (n_q, n_k))
    qs, ks, tiles = _pair_tiles(Q, K, depth)
    A = np.empty(lead + (n_q, n_k))
    for tile in tiles:
        if noise is None:
            mu = circuit.score_batch(qs[tile], ks[tile], params)
        else:
            mu = circuit.score_noisy_batch(qs[tile], ks[tile], params, *noise)
        mu.sum(axis=-1, out=A[tile])
        del mu  # one tile's scores alive at a time
    return A


def _pair_tiles(Q, K, depth: int):
    # The per-pair layout of a `qpa_scores` call with one query row or one
    # key row: qs (..., N_q, 1, D), ks (..., 1, N_k, D) and the tiles of the
    # first leading axis the circuit scores them in. A tile holds as many
    # pairs as a block of TILE_INPUTS inputs holds features, seven per input.
    lead, n_q, n_k = Q.shape[:-2], Q.shape[-2], K.shape[-2]
    qs, ks = Q[..., :, None, :depth], K[..., None, :, :depth]
    tiles = _tiles(lead[0], math.prod(lead[1:]) * n_q * n_k * depth, 7) if lead else [slice(None)]
    return qs, ks, tiles


class PairPlanes(NamedTuple):
    """The noise-free half of a `qpa_scores` call with one query row (`pair_planes`).

    ``shape`` is the score matrix's; ``tiles`` pairs each tile of
    `qpa_scores` (a slice of the first leading axis) with the sine and
    cosine planes of its pairs' base angles, a (6, tile, ..., N_q, N_k, D)
    block of one buffer that holds the whole batch: sin a, sin b, sin c,
    cos a, cos b and cos c.
    """

    shape: tuple
    tiles: list


def pair_planes(Q: np.ndarray, K: np.ndarray, params: QpaParams, depth: int, noise=None):
    """``qpa_scores(Q, K, params, depth, noise)`` with one query row, and each pair's planes kept.

    The circuit scores a pair by weighing the cosines and sines of its
    three base angles, which no noise channel changes, by the setting's
    coefficients (`circuit.score_coefficients`). This scores every pair of
    the CLS row against its keys tile by tile as `qpa_scores` does, by the
    same operations, and returns ``(A, planes)``: the score matrix, bit for
    bit `qpa_scores`', and the `PairPlanes` that `plane_scores` weighs for
    any other setting. Each tile's half-angle tangents go into the first
    three rows of its block of one (6,) + pairs buffer (4.9 MB for 64
    images at N=50, two heads and D=16) and become the sines there, the
    cosines go into the other three, and the tile is weighed while its
    block is still in cache. The inputs are checked tile by tile as
    `qpa_scores` checks them, so a non-finite input raises the same
    `ValueError` before any tangent is taken. Q and K share their leading
    axes, with one query row or one key row.
    """
    Q, K = _pair_inputs(Q, K, depth)
    circuit._check_one_set(params)
    c = circuit.score_coefficients(params, noise)
    lead, n_q, n_k = Q.shape[:-2], Q.shape[-2], K.shape[-2]
    if min(n_q, n_k) > 1:
        raise ValueError(f"pair planes take one query row or one key row, got {n_q} and {n_k}")
    qs, ks, tiles = _pair_tiles(Q, K, depth)
    for tile in tiles:
        circuit._check_finite(qs[tile], ks[tile])
    shapes = [np.broadcast_shapes(qs[tile].shape, ks[tile].shape) for tile in tiles]
    buffer = np.empty(6 * sum(math.prod(shape) for shape in shapes))
    A = np.empty(lead + (n_q, n_k))
    work = np.empty((3, max((math.prod(shape) for shape in shapes), default=0)))
    blocks, start = [], 0
    for tile, shape in zip(tiles, shapes):
        block = buffer[start : start + 6 * math.prod(shape)].reshape((6,) + shape)  # contiguous
        start += block.size
        circuit._pair_tangents(qs[tile], ks[tile], params, out=block[:3])
        circuit._tangent_planes([block[j, ...] for j in range(6)])
        _weigh_planes(block, c, work, A[tile])
        blocks.append((tile, block))
    return A, PairPlanes(A.shape, blocks)


def plane_scores(planes: PairPlanes, params: QpaParams, noise=None) -> np.ndarray:
    """``qpa_scores(Q, K, params, depth, noise)`` from ``pair_planes(Q, K, params, depth)[1]``.

    Each tile's per-pair scores are its planes weighed by the clean or
    noisy coefficients of `circuit.score_coefficients`, bit for bit those of
    `circuit.score_batch` and `circuit.score_noisy_batch`, and are summed
    over D into the tile's slice of A. No tangent, cosine or sine is taken
    and the planes are only read, so one set serves every noise setting;
    the weighing's three scratch planes of one tile are allocated once per
    call.
    """
    circuit._check_one_set(params)
    c = circuit.score_coefficients(params, noise)
    A = np.empty(planes.shape)
    work = np.empty((3, max((block[0].size for _, block in planes.tiles), default=0)))
    for tile, block in planes.tiles:
        _weigh_planes(block, c, work, A[tile])
    return A


def _weigh_planes(block: np.ndarray, c: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    # A tile's per-pair scores from its (6,) + pairs block of planes for the
    # coefficients c, summed over D into ``out``, through three scratch
    # planes at the head of the rows of ``work``.
    size = block[0].size
    scratch = [w[:size].reshape(block.shape[1:]) for w in work]
    circuit._plane_series([block[j, ...] for j in range(6)], c, scratch).sum(axis=-1, out=out)


def _product_scores(qs, ks, params: QpaParams, c: np.ndarray, saved=None) -> np.ndarray:
    # The score matrices (items, N_q, N_k) of (items, N_q, D) qs against
    # (items, N_k, D) ks for the coefficients c on `circuit.FOURIER_FREQS`:
    # A = D c_0 + Re F'(q) G(k)^T with F' = conj(c F), one real GEMM of inner
    # size 14 D per item over the (re, im) pairs of the features F and G
    # that `circuit.fourier_features` builds at W[:, 0] and W[:, 1];
    # Re(c F G) = Re F' Re G + Im F' Im G. The items run in tiles (`_tiles`).
    # Each tile's features are written into its slice of ``saved``, the
    # (F, G) arrays the training step keeps, or dropped with the tile.
    items, n_q, depth = qs.shape
    n_k = ks.shape[1]
    W = circuit._angle_map(params)
    A = np.empty((items, n_q, n_k))
    for tile in _tiles(items, max(n_q, n_k) * depth):
        F, G = (None, None) if saved is None else (saved[0][tile], saved[1][tile])
        F = circuit.fourier_features(qs[tile], W[:, 0], out=F)
        G = circuit.fourier_features(ks[tile], W[:, 1], out=G)
        Fc = np.multiply(F, c[1:])
        np.conjugate(Fc, out=Fc)  # F'
        np.matmul(_real_rows(Fc), np.swapaxes(_real_rows(G), -1, -2), out=A[tile])
        A[tile] += depth * c[0].real
        del F, G, Fc  # one tile's features alive at a time
    return A


def quantum_scores_with_features(Q: np.ndarray, K: np.ndarray, params: QpaParams, depth: int):
    """`qpa_scores` as the training step computes it: ``(A, (F, G))``, or ``(A, P)``.

    The series of `circuit.fourier_coefficients` makes a layer's score matrix
    a product of query features with key features:
    A = D c_0 + Re F'(Q) G(K)^T with F' = conj(c F), one real GEMM of inner
    size 14 D per flattened (batch, head) item over the (re, im) pairs of
    the D x 7 features of each input (`_product_scores`, which `qpa_scores`
    runs too). F and G, the features `circuit.fourier_features` builds at
    W[:, 0] and W[:, 1], are returned laid out (items, N, D, 7) for
    `quantum_scores_backward`, which then builds none of its own. They are
    the only arrays that grow with the batch besides A (at B=32, H=2, D=16
    and N = 17 / 50 / 197 query and key rows, 3.9 / 11.5 / about 45 MB);
    F' is one tile's temporary.

    With one query row (the ViT's last layer, which scores the CLS row
    alone) each (item, key, dimension) is one pair, so the call builds P,
    laid out like G (items, N_k, D, 7): the seven features at each pair's
    angle vector theta = W[:, 0] q_d + W[:, 1] k_jd,
    P_n = exp(i FOURIER_FREQS[n] . theta) = F_n(q_d) G_n(k_jd), and reads
    A = D c_0 + Re sum_{d,n} c_n P_jdn by a row sum per key. It returns P
    alone (1.9 / 5.7 / 22.6 MB at B=32, H=2, D=16 and N_k = 17 / 50 / 197)
    and builds neither F nor G. That A equals the per-pair `qpa_scores` of
    the CLS row to within rounding.

    The items run in the backward's tiles (`_tiles`). Inputs are checked as
    in `circuit.score_batch`, before any feature is built.
    """
    circuit._check_one_set(params)
    (items, n_q, n_k), qs, ks = _flat_pairs(Q, K, depth)
    circuit._check_finite(qs, ks)
    c = circuit.fourier_coefficients(params.beta)[0]
    if n_q == 1:
        # Re(c z) is the dot product of z's (re, im) with conj(c)'s, for each
        # of the D x 7 features of a pair row.
        weights = np.tile(np.conjugate(c[1:]).view(np.float64), depth)
        W = circuit._angle_map(params)
        A = np.empty((items, n_q, n_k))
        P = np.empty(ks.shape + (7,), dtype=np.complex128)
        for tile in _tiles(items, max(n_q, n_k) * depth):
            circuit._pair_features(qs[tile], ks[tile], W, out=P[tile])
            rows = _real_rows(P[tile]).reshape(-1, len(weights))
            # Row by row, without BLAS, so a row's sum does not depend on the tile.
            np.einsum("mk,k->m", rows, weights, out=A[tile].reshape(-1))
            A[tile] += depth * c[0].real
        return A.reshape(np.shape(Q)[:-1] + (n_k,)), P
    saved = tuple(np.empty(x.shape + (7,), dtype=np.complex128) for x in (qs, ks))
    A = _product_scores(qs, ks, params, c, saved)
    return A.reshape(np.shape(Q)[:-1] + (n_k,)), saved


class ScoreSumTerms(NamedTuple):
    """The noise-independent terms of a separable score sum (`score_sum_terms`).

    ``pairs`` counts the (query, key, dimension) triples; ``products`` holds
    the seven complex sums over items and dimensions of
    (sum_i F_n(q_id)) (sum_j G_n(k_jd)).
    """

    pairs: int
    products: np.ndarray


def score_sum_terms(Q: np.ndarray, K: np.ndarray, params: QpaParams, depth: int) -> ScoreSumTerms:
    """The terms of the sum of every entry of `qpa_scores`, which no noise channel changes.

    mu = c_0 + Re sum_n c_n F_n(q) G_n(k) makes the sum over all N_q N_k
    pairs of one (item, dimension) a product of sums, and every channel of
    `circuit.score_coefficients` keeps the clean Fourier support: only c
    changes. So the sum is N_q N_k c_0 + Re sum_n c_n (sum_i F_n(q_id))
    (sum_j G_n(k_jd)) per (item, dimension), and these terms are its pair
    count and its seven feature products, for `quantum_score_sum` to weigh
    by each setting's c. They cost the features of each input, no per-pair
    work, and the features of one tile of `TILE_INPUTS` inputs per side at a
    time (`_tiles`). Each tile sums its features over N in the contiguous
    planes they are built in, and lays out only the (tile, D, 7) sums
    (`circuit._feature_sums`); each sum adds its N terms in order, bit for
    bit as the laid-out features would. A tile copies its own items of Q
    and K, so a layout whose leading axes do not flatten without a copy
    (the ViT's heads split from the hidden axis) is never copied whole.
    `vit.forward_with_stats` reads them for the last layer, whose query side
    runs on the CLS row alone.
    """
    Q, K = _pair_inputs(Q, K, depth)
    circuit._check_one_set(params)
    lead, n_q, n_k = Q.shape[:-2] or (1,), Q.shape[-2], K.shape[-2]
    qs, ks = (X[..., :depth].reshape(lead + (X.shape[-2], depth)) for X in (Q, K))  # views
    circuit._check_finite(qs, ks)
    items = math.prod(lead)
    W = circuit._angle_map(params)
    products = np.zeros(7, dtype=np.complex128)
    for tile in _tiles(items, max(n_q, n_k) * depth):
        rows = np.unravel_index(np.arange(items)[tile], lead)  # the tile's items, as (tile, N, D) copies
        F = circuit._feature_sums(qs[rows], W[:, 0])  # (tile, D, 7)
        G = circuit._feature_sums(ks[rows], W[:, 1])
        F *= G
        products += F.reshape(-1, 7).sum(axis=0)
        del F, G  # one tile's features alive at a time
    return ScoreSumTerms(items * n_q * n_k * depth, products)


def quantum_score_sum(terms: ScoreSumTerms, params: QpaParams, noise=None) -> float:
    """The sum of all entries of ``qpa_scores(Q, K, params, depth, noise)``.

    ``terms`` is ``score_sum_terms(Q, K, params, depth)``; this weighs them
    by the clean or noisy coefficients of `circuit.score_coefficients`, so
    one set of terms serves every noise setting.
    """
    circuit._check_one_set(params)
    c = circuit.score_coefficients(params, noise)
    return float(terms.pairs * c[0].real + (c[1:] @ terms.products).real)


def _real_rows(H: np.ndarray) -> np.ndarray:
    # Complex (..., N, D, M) as real (..., N, 2 D M) rows of (re, im) pairs.
    return H.reshape(*H.shape[:-2], math.prod(H.shape[-2:])).view(np.float64)


def quantum_scores_backward(
    Q: np.ndarray,
    K: np.ndarray,
    params: QpaParams,
    depth: int,
    d_scores: np.ndarray,
    features=None,
):
    """Backward pass of `qpa_scores`.

    Returns ``(dQ, dK, d_params)`` with ``d_params`` a length-5 array. This is
    the exact backward of the circuit's Fourier form
    (`circuit.fourier_coefficients`): mu(q, k) = c_0 + Re sum_n c_n F_n(q) G_n(k)
    over the seven features F_n(q) = exp(i u_n q) and G_n(k) = exp(i v_n k)
    that the forward reads (`circuit.fourier_features`), where the
    frequencies u, v are linear in the parameters through the angle map
    (`circuit.ANGLE_JACOBIAN`) and c depends on beta alone. The constant
    c_0 = 1/2 has no feature and no beta derivative, so it adds nothing to
    any gradient. Two batched GEMMs, ``dA @ G(K)`` and ``dA^T @ F(Q)``,
    carry every other gradient. With one query row (the ViT's last layer,
    which scores the CLS row alone) the pair features P = F(q) G(K) of
    `quantum_scores_with_features` take the place of both: one GEMM
    ``dA @ P`` per item gives the query side, and P's rows, scaled by dA_j
    after their reduction, give dK and the key sum, with no outer product.
    The products with the features are reduced as real
    (inputs, 14) arrays of (re, im) pairs: dQ and dK by a dot product per
    row, so each row's value does not depend on the tiling, and the
    parameter sums by one small matrix product per tile. Q, K
    and ``d_scores`` share their leading axes, which are flattened into
    items; the items run in tiles of at most `TILE_INPUTS` inputs per side:
    each tile writes its rows of dQ and dK and adds to the parameter sums,
    so only the outputs grow with the batch. ``features``, the ``(F, G)``
    or P that `quantum_scores_with_features` returned on the same Q, K and
    parameters, are read in place of building them, as the training step
    does; without it each tile builds its own, bit for bit the same.
    `circuit.score_grad_batch` (parameter shift)
    is its oracle in the tests.
    """
    (items, n_q, n_k), qs, ks, dA, dQ, dK, dq, dk = _flat_pairs(Q, K, depth, d_scores)
    c, dc = circuit.fourier_coefficients(params.beta)
    W = circuit._angle_map(params)
    freqs = circuit.FOURIER_FREQS[1:]  # the constant c_0 has no feature
    u, v = (freqs @ W).T
    # Re(z a) is the dot product of z's (re, im) with conj(a)'s: the weights
    # that turn a feature row's 14 floats into dmu/dq and dmu/dk.
    q_weights = np.conjugate(1j * u * c[1:]).view(np.float64)
    k_weights = np.conjugate(1j * v * c[1:]).view(np.float64)
    q_fh, k_gh, sum_fh = (np.zeros(len(freqs), dtype=np.complex128) for _ in range(3))
    for tile in _tiles(items, max(n_q, n_k) * depth):
        if n_q == 1:
            # The last layer's CLS row: the pair features P_jdn = F_n(q_d) G_n(k_jd)
            # carry both sides, so FH = dA P, and each key row's dA_j scales
            # its reduction of P.
            GH = circuit._pair_features(qs[tile], ks[tile], W) if features is None else features[tile]
            FH, k_scale = _complex_matmul(dA[tile], GH), np.swapaxes(dA[tile], -1, -2)
        else:
            if features is None:
                F = circuit.fourier_features(qs[tile], W[:, 0])  # (items, N, D, 7)
                G = circuit.fourier_features(ks[tile], W[:, 1])
            else:
                F, G = features[0][tile], features[1][tile]
            FH = _complex_matmul(dA[tile], G)  # sum_j dA[i, j] F_n(q_id) G_n(k_jd)
            FH *= F
            # A scale of 1.0 leaves every value bit for bit as it is.
            GH, k_scale = _complex_matmul(np.swapaxes(dA[tile], -1, -2), F), 1.0
            GH *= G
            del F, G
        # As real (inputs, 14) arrays of (re, im) pairs.
        FH, GH = (H.view(np.float64).reshape(-1, 2 * len(freqs)) for H in (FH, GH))
        # Row by row, without BLAS, so a row's sum does not depend on the tile.
        dq[tile] = np.einsum("mk,k->m", FH, q_weights).reshape(qs[tile].shape)
        dk_rows = np.einsum("mk,k->m", GH, k_weights).reshape(ks[tile].shape)
        np.multiply(dk_rows, k_scale, out=dk[tile])
        del dk_rows  # before the key sum's scaled copy of the keys
        # One product gives both sum_id q_id FH and sum FH.
        q_sums = (np.stack([qs[tile].reshape(-1), np.ones(len(FH))]) @ FH).view(np.complex128)
        q_fh += q_sums[0]
        sum_fh += q_sums[1]
        k_gh += ((ks[tile] * k_scale).reshape(-1) @ GH).view(np.complex128)
        del FH, GH  # one tile's arrays alive at a time
    d_u = (1j * c[1:] * q_fh).real  # dL/du_n
    d_v = (1j * c[1:] * k_gh).real
    jac = circuit.ANGLE_JACOBIAN  # (5, 3, 2): d W / d parameter
    d_params = jac[:, :, 0] @ (freqs.T @ d_u) + jac[:, :, 1] @ (freqs.T @ d_v)
    d_params[4] = (dc[1:] @ sum_fh).real  # beta, through c
    return dQ, dK, d_params


def _complex_matmul(real: np.ndarray, cplx: np.ndarray) -> np.ndarray:
    # real (..., N, N) @ complex (..., N, D, M) as one real GEMM over the
    # interleaved (re, im) columns, without upcasting `real` to complex.
    out = real @ _real_rows(cplx)
    return out.view(np.complex128).reshape(out.shape[:-1] + cplx.shape[-2:])


def dot_scores(Q: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Classical scaled dot product A = Q K^T / sqrt(d_h)."""
    Q = np.asarray(Q, dtype=float)
    K = np.asarray(K, dtype=float)
    S = Q @ np.swapaxes(K, -1, -2)
    S /= np.sqrt(Q.shape[-1])
    return S


def dot_scores_backward(Q: np.ndarray, K: np.ndarray, d_scores: np.ndarray):
    scale = 1.0 / np.sqrt(Q.shape[-1])
    dQ = d_scores @ K
    dQ *= scale
    dK = np.swapaxes(d_scores, -1, -2) @ Q
    dK *= scale
    return dQ, dK


# ---------------------------------------------------------------------------
# MLP scorers: each (query, key, dimension) scalar pair (q, k) goes through a
# small tanh MLP with a sigmoid head over the features [q, k, q-k, q+k]. The
# first layer is affine in (q, k): w1 @ [q, k, q-k, q+k] = a q + b k with
# a = w1[:, 0] + w1[:, 2] + w1[:, 3] and b = w1[:, 1] - w1[:, 2] + w1[:, 3],
# so its pre-activation is q a + b1 per query plus k b per key, and no
# feature tensor is built. Both directions run on tiles of query rows that
# hold at most `TILE_INPUTS` (pair, dimension) entries (or one row,
# where a row holds more), so the per-pair hidden activations stay a fixed
# size whatever the batch and N.
# ---------------------------------------------------------------------------


_MLP_SHAPES = {
    "mlp49": {"w1": (8, 4), "b1": (8,), "w_out": (8,), "b_out": ()},
    "mlp585": {
        "w1": (64, 4),
        "b1": (64,),
        "w2": (4, 64),
        "b2": (4,),
        "w_out": (4,),
        "b_out": (),
    },
}


def init_mlp_params(variant: str, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) weights of an MLP scorer variant, by name.

    ``mlp49``: w1 (8, 4), b1 (8,), w_out (8,), b_out () -> 49 scalars.
    ``mlp585``: w1 (64, 4), b1 (64,), w2 (4, 64), b2 (4,), w_out (4,), b_out ()
    -> 585 scalars. A weight's fan-in is its last axis; biases start at 0.
    """
    if variant not in _MLP_SHAPES:
        raise ValueError(f"unknown MLP scorer variant {variant!r}")
    arrays = {}
    for name, shape in _MLP_SHAPES[variant].items():
        if name.startswith("w"):
            bound = 1 / np.sqrt(shape[-1])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[name] = np.zeros(shape)
    return arrays


def _sigmoid(x):
    return 0.5 * (1 + np.tanh(x / 2))


def _first_layer(w1: np.ndarray):
    # (a, b) with w1 @ [q, k, q-k, q+k] = a q + b k.
    return w1[:, 0] + w1[:, 2] + w1[:, 3], w1[:, 1] - w1[:, 2] + w1[:, 3]


def _mlp_forward(q: np.ndarray, k: np.ndarray, p: dict[str, np.ndarray]):
    # One tile: query rows q (..., R, D) against keys k (..., N, D). Returns
    # the hidden activations h1 and h2 (None for mlp49), each
    # (..., R, N, D, hidden), and the per-pair scores s (..., R, N, D).
    a, b = _first_layer(p["w1"])
    h1 = (q[..., :, None, :, None] * a + p["b1"]) + k[..., None, :, :, None] * b
    np.tanh(h1, out=h1)
    h2 = None
    if "w2" in p:
        h2 = np.tanh(h1 @ p["w2"].T + p["b2"])
    top = h1 if h2 is None else h2
    return h1, h2, _sigmoid(top @ p["w_out"] + p["b_out"])


def _query_tiles(items: int, n_q: int, per_row: int):
    # (item slice, query-row slice) tiles of (items, N_q) query rows that hold
    # `per_row` inputs each: whole items while a tile's rows cover one, else
    # row blocks of one item.
    return [(it, rt) for it in _tiles(items, n_q * per_row) for rt in _tiles(n_q, per_row)]


def mlp_scores(
    Q: np.ndarray, K: np.ndarray, p: dict[str, np.ndarray], depth: int
) -> np.ndarray:
    """Per-dimension MLP scores summed over the first `depth` dimensions.

    ``p`` holds the variant's weights by name, as `init_mlp_params` returns.
    """
    (items, n_q, n_k), qs, ks = _flat_pairs(Q, K, depth)
    A = np.empty((items, n_q, n_k))
    for it, rt in _query_tiles(items, n_q, n_k * depth):
        A[it, rt] = _mlp_forward(qs[it, rt], ks[it], p)[2].sum(axis=-1)
    return A.reshape(np.shape(Q)[:-1] + (n_k,))


def mlp_scores_backward(
    Q: np.ndarray,
    K: np.ndarray,
    p: dict[str, np.ndarray],
    depth: int,
    d_scores: np.ndarray,
):
    """Backward pass of `mlp_scores`: returns ``(dQ, dK, grads)``.

    ``grads`` holds one gradient per key of ``p``. Each tile runs the forward
    of `mlp_scores` again and backpropagates it: it writes its rows of dQ and
    adds to dK and to the weight sums. w1 gets its gradient through the first
    layer's a and b: dw1 = [da, db, da - db, da + db].
    """
    (items, n_q, n_k), qs, ks, dA, dQ, dK, dq, dk = _flat_pairs(Q, K, depth, d_scores)
    a, b = _first_layer(p["w1"])
    grads = {name: np.zeros_like(w) for name, w in p.items()}  # w1's is set last
    d_a, d_b = np.zeros_like(a), np.zeros_like(b)
    for it, rt in _query_tiles(items, n_q, n_k * depth):
        q, k = qs[it, rt], ks[it]
        h1, h2, s = _mlp_forward(q, k, p)
        ds = dA[it, rt][..., None] * s * (1 - s)  # (..., R, N, D)
        top = h1 if h2 is None else h2
        grads["w_out"] += ds.reshape(-1) @ top.reshape(-1, top.shape[-1])
        grads["b_out"] += ds.sum()
        d_h = ds[..., None] * p["w_out"]
        if h2 is not None:
            d_h *= 1 - h2**2  # through the second tanh
            flat = d_h.reshape(-1, d_h.shape[-1])
            grads["w2"] += flat.T @ h1.reshape(-1, h1.shape[-1])
            grads["b2"] += flat.sum(axis=0)
            d_h = d_h @ p["w2"]
        np.square(h1, out=h1)  # h1 is not read again: d_h *= 1 - h1**2 in its buffer
        np.subtract(1.0, h1, out=h1)
        d_h *= h1  # gradient of the first layer's pre-activation q a + b1 + k b
        d_qa = d_h.sum(axis=-3)  # over keys: (..., R, D, hidden)
        d_kb = d_h.sum(axis=-4)  # over query rows: (..., N, D, hidden)
        dq[it, rt] = d_qa @ a
        dk[it] += d_kb @ b
        d_a += np.tensordot(q, d_qa, axes=q.ndim)
        d_b += np.tensordot(k, d_kb, axes=k.ndim)
        grads["b1"] += d_qa.reshape(-1, d_qa.shape[-1]).sum(axis=0)
        del h1, h2, d_h, d_kb  # one tile's arrays alive at a time
    grads["w1"] = np.stack([d_a, d_b, d_a - d_b, d_a + d_b], axis=1)
    return dQ, dK, grads


# ---------------------------------------------------------------------------
# Cosine scorer (bounded by construction, learnable temperature).
# ---------------------------------------------------------------------------


def _safe_norms(M: np.ndarray):
    n = np.linalg.norm(M, axis=-1, keepdims=True)
    return n, n + COSINE_NORM_EPS


def cosine_multiplier(tau) -> np.ndarray:
    """exp(min(log tau, log 100)): the temperature multiplier with its cap."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    return np.exp(np.minimum(np.log(tau), np.log(COSINE_SCALE_CAP)))


def cosine_scores(Q: np.ndarray, K: np.ndarray, tau) -> np.ndarray:
    """Cosine similarity of row pairs scaled by the capped temperature.

    ``tau`` is a positive scalar or an array that broadcasts against the score
    matrix (e.g. shape (H, 1, 1) for per-head temperatures).
    """
    Q = np.asarray(Q, dtype=float)
    K = np.asarray(K, dtype=float)
    _, qden = _safe_norms(Q)
    _, kden = _safe_norms(K)
    cos = (Q / qden) @ np.swapaxes(K / kden, -1, -2)
    return cos * cosine_multiplier(tau)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def cosine_scores_backward(Q: np.ndarray, K: np.ndarray, tau, d_scores: np.ndarray):
    """Backward pass of `cosine_scores`: returns (dQ, dK, d_log_tau).

    ``d_log_tau`` is the gradient w.r.t. log(tau) reduced to tau's shape; it
    vanishes wherever the cap is active.
    """
    Q = np.asarray(Q, dtype=float)
    K = np.asarray(K, dtype=float)
    qn, qden = _safe_norms(Q)
    kn, kden = _safe_norms(K)
    U = Q / qden
    V = K / kden
    cos = U @ np.swapaxes(V, -1, -2)
    mult = cosine_multiplier(tau)

    g = np.asarray(d_scores) * mult
    # Exact gradient of u = Q / (|Q| + eps): the |Q|-direction term carries a
    # 1/|Q| factor; it vanishes identically for zero rows.
    qn_safe = np.maximum(qn, COSINE_NORM_EPS)
    kn_safe = np.maximum(kn, COSINE_NORM_EPS)
    gV = g @ V
    dQ = gV / qden - Q * (Q * gV).sum(axis=-1, keepdims=True) / (qden**2 * qn_safe)
    gU = np.swapaxes(g, -1, -2) @ U
    dK = gU / kden - K * (K * gU).sum(axis=-1, keepdims=True) / (kden**2 * kn_safe)

    tau_arr = np.asarray(tau, dtype=float)
    uncapped = (tau_arr < COSINE_SCALE_CAP).astype(float)
    d_log_tau = _unbroadcast(np.asarray(d_scores) * cos * mult, tau_arr.shape) * uncapped
    if tau_arr.ndim == 0:
        d_log_tau = float(d_log_tau)
    return dQ, dK, d_log_tau


# ---------------------------------------------------------------------------
# Linear attention (kernelised, no learnable parameters, no softmax).
# ---------------------------------------------------------------------------


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """Kernel feature map phi(x) = elu(x) + 1, strictly positive."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _elu_plus_one_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def linear_attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Kernelised attention phi(Q)(phi(K)^T V) / (phi(Q) . sum_j phi(k_j) + eps).

    Exploits matrix associativity, so the cost is O(N d_h^2) instead of
    O(N^2 d_h); equals explicit normalised kernel attention row by row.
    """
    P = elu_plus_one(Q)
    R = elu_plus_one(K)
    context = np.swapaxes(R, -1, -2) @ np.asarray(V, dtype=float)
    num = P @ context
    den = (P * R.sum(axis=-2, keepdims=True)).sum(axis=-1, keepdims=True) + LINEAR_ATTN_EPS
    return num / den


def linear_attention_backward(
    Q: np.ndarray, K: np.ndarray, V: np.ndarray, d_out: np.ndarray
):
    """Backward pass of `linear_attention`: returns (dQ, dK, dV)."""
    Q = np.asarray(Q, dtype=float)
    K = np.asarray(K, dtype=float)
    V = np.asarray(V, dtype=float)
    P = elu_plus_one(Q)
    R = elu_plus_one(K)
    context = np.swapaxes(R, -1, -2) @ V  # (..., d, d)
    s = R.sum(axis=-2, keepdims=True)  # (..., 1, d)
    num = P @ context
    den = (P * s).sum(axis=-1, keepdims=True) + LINEAR_ATTN_EPS
    out = num / den

    d_num = np.asarray(d_out) / den
    d_den = -(np.asarray(d_out) * out).sum(axis=-1, keepdims=True) / den

    dP = d_num @ np.swapaxes(context, -1, -2) + d_den * s
    d_context = np.swapaxes(P, -1, -2) @ d_num
    d_s = (d_den * P).sum(axis=-2, keepdims=True)
    dR = V @ np.swapaxes(d_context, -1, -2) + d_s
    dV = R @ d_context

    return dP * _elu_plus_one_grad(Q), dR * _elu_plus_one_grad(K), dV


def row_softmax(A: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in one array the size of ``A``."""
    A = np.asarray(A, dtype=float)
    e = A - A.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def row_softmax_backward(P: np.ndarray, dP: np.ndarray) -> np.ndarray:
    """Gradient through a row softmax given its output P and upstream dP."""
    dA = dP * P
    inner = dA.sum(axis=-1, keepdims=True)
    np.subtract(dP, inner, out=dA)
    dA *= P
    return dA


# ---------------------------------------------------------------------------
# The scorer-kind table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScorerKind:
    """Everything a ViT layer needs to know about one scorer kind.

    ``p`` is the layer's own ``{name: array}`` scorer parameters with the names
    of ``shapes(heads)``. ``scores(Q, K, p, depth, noise)`` returns the score
    matrix (only ``quantum`` kinds accept a noise channel; their entries are
    sums of ``depth`` per-pair circuit scores). ``backward(Q, K, p, depth, dA)``
    returns ``(dQ, dK, grads)`` with one gradient per key of ``p``. A kind
    with ``train_scores(Q, K, p, depth)`` scores the training step's forward
    by it instead: it returns ``(A, saved)``, and the step hands ``saved`` to
    ``backward`` as a sixth argument. A ``quantum`` kind's
    ``score_sum(score_sum_terms(Q, K, p, depth), p, noise)`` is the sum of
    every per-pair score of ``scores`` without the score matrix; the terms
    depend on no noise channel. Likewise, with one query row,
    ``pair_planes(Q, K, p, depth, noise)`` returns ``(A, planes)``, A being
    ``scores(Q, K, p, depth, noise)`` bit for bit, and
    ``plane_scores(planes, p, other)`` is ``scores(Q, K, p, depth, other)``
    bit for bit: the planes (the cosines and sines of each pair's base
    angles) depend on no noise channel. Linear attention has no ``scores``: it
    skips the softmax and runs `linear_attention` instead. ``pinned`` names
    the circuit parameters that a quantum kind holds at 0 and does not train.
    """

    shapes: Callable[[int], dict[str, tuple]]
    init: Callable[[np.random.Generator, int], dict[str, np.ndarray]]
    scores: Callable | None = None
    backward: Callable | None = None
    train_scores: Callable | None = None
    score_sum_terms: Callable | None = None
    score_sum: Callable | None = None
    pair_planes: Callable | None = None
    plane_scores: Callable | None = None
    uses_depth: bool = False
    quantum: bool = False
    pinned: tuple[str, ...] = ()


def _no_params(*_):
    return {}


def _quantum_kind(pinned: tuple[str, ...] = ()) -> ScorerKind:
    # Parameters named in `pinned` enter the circuit as 0 and get zero gradient.
    free = np.isin(circuit.PARAM_NAMES, pinned, invert=True)

    def params(p):
        return QpaParams.from_array(np.where(free, p["qpa"], 0.0))

    def scores(Q, K, p, depth, noise):
        return qpa_scores(Q, K, params(p), depth, noise)

    def train_scores(Q, K, p, depth):
        return quantum_scores_with_features(Q, K, params(p), depth)

    def terms(Q, K, p, depth):
        return score_sum_terms(Q, K, params(p), depth)

    def score_sum(terms, p, noise):
        return quantum_score_sum(terms, params(p), noise)

    def planes(Q, K, p, depth, noise):
        return pair_planes(Q, K, params(p), depth, noise)

    def scores_from_planes(planes, p, noise):
        return plane_scores(planes, params(p), noise)

    def backward(Q, K, p, depth, dA, features=None):
        dQ, dK, d_theta = quantum_scores_backward(Q, K, params(p), depth, dA, features)
        return dQ, dK, {"qpa": np.where(free, d_theta, 0.0)}

    return ScorerKind(
        shapes=lambda heads: {"qpa": (5,)},
        init=lambda rng, heads: {"qpa": QpaParams.init_random(rng).to_array()},
        scores=scores,
        backward=backward,
        train_scores=train_scores,
        score_sum_terms=terms,
        score_sum=score_sum,
        pair_planes=planes,
        plane_scores=scores_from_planes,
        uses_depth=True,
        quantum=True,
        pinned=pinned,
    )


def _mlp_kind(variant: str) -> ScorerKind:
    return ScorerKind(
        shapes=lambda heads: dict(_MLP_SHAPES[variant]),
        init=lambda rng, heads: init_mlp_params(variant, rng),
        scores=lambda Q, K, p, depth, noise: mlp_scores(Q, K, p, depth),
        backward=mlp_scores_backward,
        uses_depth=True,
    )


def _dot_backward(Q, K, p, depth, dA):
    return (*dot_scores_backward(Q, K, dA), {})


def _cosine_tau(p):
    return np.exp(p["log_tau"])[:, None, None]  # one temperature per head


def _cosine_backward(Q, K, p, depth, dA):
    dQ, dK, d_log_tau = cosine_scores_backward(Q, K, _cosine_tau(p), dA)
    return dQ, dK, {"log_tau": d_log_tau.reshape(p["log_tau"].shape)}


KINDS: dict[str, ScorerKind] = {
    "qpa": _quantum_kind(),
    "dot": ScorerKind(
        shapes=_no_params,
        init=_no_params,
        scores=lambda Q, K, p, depth, noise: dot_scores(Q, K),
        backward=_dot_backward,
    ),
    "mlp49": _mlp_kind("mlp49"),
    "mlp585": _mlp_kind("mlp585"),
    "cosine": ScorerKind(
        shapes=lambda heads: {"log_tau": (heads,)},
        init=lambda rng, heads: {"log_tau": np.zeros(heads)},
        scores=lambda Q, K, p, depth, noise: cosine_scores(Q, K, _cosine_tau(p)),
        backward=_cosine_backward,
    ),
    "linear": ScorerKind(shapes=_no_params, init=_no_params),
    "qpa-ind": _quantum_kind(pinned=("gamma_d", "gamma_s")),  # independent encoding
}
SCORER_KINDS = tuple(KINDS)
DEFAULT_KINDS = ("qpa", "dot")  # the paper's scorer, then its dot-product baseline
