"""Minimal trainable vision transformer with pluggable attention scorers.

Pre-Norm encoder blocks (x <- x + MHSA(LN(x)); x <- x + FFN(LN(x))) over a
convolutional patch embedding, a learnable CLS token and positional table,
and a linear head on the CLS representation. Forward and backward are written
directly in numpy; the quantum scorer enters backpropagation as a primitive
whose forward and exact backward both come from the circuit's Fourier form.
The head reads the CLS token alone, so the last encoder block runs its
query side on the CLS row only: its Q projection, scores, softmax, merge,
output projection with its residual, LN2 and FFN see one token, while its
LN1, K and V and every earlier block see all N. An all-row statistic of the
last layer's attention, such as the mean attention entropy of ROADMAP item
9, would need its own pass. A scorer kind with a ``train_scores`` forward
(the quantum kinds) scores the training step's layers with it: it builds
the layer's Fourier features once, scores by their product, and the layer
cache keeps the features for the backward (at B=32, N=17 / 50 / 197: 3.9 /
11.5 / about 45 MB for a full layer; the last one keeps only the features
at each CLS-key pair's angles, 1.9 / 5.7 / 22.6 MB).
`forward` and `forward_with_stats` score every layer that scores all N
query rows by the same product, bit for bit, and keep one tile's features
at a time; only the last layer's CLS row keeps the per-pair circuit calls
that the benchmark's correctness hooks read (a noise sweep's shared batch
weighs the same series' kept pair planes instead, below). The two forwards
agree to within rounding.

Parameters live in a flat ``{name: ndarray}`` dict (gradient dicts mirror it),
which keeps the optimizer, checkpointing and finite-difference checks simple.

One training step holds as little memory as it can at its peak, so that
glibc does not hand the step's arrays back to the kernel and fault them in
again on the next step. Only `backward` keeps a cache: its forward stores
only what it reads, and it frees each cached array after its last use.
`forward` and `forward_with_stats` keep none, so inference holds one layer's
arrays at a time whatever the depth; the extras of `forward_with_stats` hold
the sum and the count of the circuit scores, not their mean. That sum needs
the last layer's Q over all N tokens and the features of every query and
key: on a 64-image batch of a one-layer model (two heads, D=16, one
process on a 2-vCPU x86-64 host) it adds about 2.5 ms to a 2.5 ms forward
at N=17 and 7 ms to a 5.5 ms forward at N=50, so only
`qpattn noise-sweep` pays for it (through `training.noise_sweep`);
validation and every other evaluation run `forward`, whose logits are the
same bit for bit. A noise channel changes only the coefficients that weigh
the circuit's Fourier terms, and a one-layer model's only layer sees no
noisy layer before it. So the sweep's calls for one batch share a dict, in
which such a model's first call keeps the layer's noise-free half: the
layer input's CLS row, V, the cosine and sine planes of the base angles
of every CLS-key pair (`scorers.pair_planes`) and the score-sum terms. The
patch embedding, LN1, the Q, K and V projections, the planes and the sum's
features are computed once per batch. Every call of the batch, the first
included, then weighs the planes and the terms by its own coefficients
(`scorers.plane_scores`, `scorers.quantum_score_sum`) and runs the
softmax, the merge and the rest on the CLS row alone.
The layer primitives allocate only their outputs, finish in place, and
never write into their arguments; they run the same operations in the same
order as the plain expressions, so every result is bit for bit the same.
"""

from __future__ import annotations

import json
import numbers
import zipfile
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from . import files, scorers

CHECKPOINT_SCHEMA_VERSION = 1
LN_EPS = 1e-12


@dataclass(frozen=True)
class VitConfig:
    image_size: int
    channels: int
    patch_size: int
    num_layers: int
    heads: int
    hidden_size: int
    mlp_hidden: int
    num_classes: int
    scorer: str = scorers.DEFAULT_KINDS[0]
    depth: int = 16

    def __post_init__(self):
        sizes = ("image_size", "channels", "patch_size", "num_layers", "heads", "hidden_size",
                 "mlp_hidden")
        for name in (*sizes, "num_classes", "depth"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes!r}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image size {self.image_size} not divisible by patch size {self.patch_size}"
            )
        if self.hidden_size % self.heads != 0:
            raise ValueError(
                f"hidden size {self.hidden_size} not divisible by head count {self.heads}"
            )
        if self.scorer not in scorers.SCORER_KINDS:
            raise ValueError(
                f"unknown scorer {self.scorer!r}; expected one of {scorers.SCORER_KINDS}"
            )
        if self.uses_depth and not 1 <= self.depth <= self.head_dim:
            raise ValueError(
                f"aggregation depth {self.depth} must satisfy 1 <= D <= head dim {self.head_dim}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.heads

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1  # CLS prepended

    @property
    def uses_depth(self) -> bool:
        return scorers.KINDS[self.scorer].uses_depth


@dataclass
class VitModel:
    config: VitConfig
    params: dict[str, np.ndarray]


def param_spec(config: VitConfig) -> dict[str, tuple]:
    """Parameter names and shapes in deterministic order."""
    hd, c, p = config.hidden_size, config.channels, config.patch_size
    spec: dict[str, tuple] = {
        "patch.w": (hd, c * p * p),
        "patch.b": (hd,),
        "cls": (hd,),
        "pos": (config.num_tokens, hd),
    }
    for layer in range(config.num_layers):
        prefix = f"layers.{layer}."
        spec[prefix + "ln1.g"] = (hd,)
        spec[prefix + "ln1.b"] = (hd,)
        for name in ("wq", "wk", "wv", "wo"):
            spec[prefix + "attn." + name] = (hd, hd)
        for name in ("bq", "bk", "bv", "bo"):
            spec[prefix + "attn." + name] = (hd,)
        for name, shape in scorers.KINDS[config.scorer].shapes(config.heads).items():
            spec[prefix + "scorer." + name] = shape
        spec[prefix + "ln2.g"] = (hd,)
        spec[prefix + "ln2.b"] = (hd,)
        spec[prefix + "ffn.w1"] = (config.mlp_hidden, hd)
        spec[prefix + "ffn.b1"] = (config.mlp_hidden,)
        spec[prefix + "ffn.w2"] = (hd, config.mlp_hidden)
        spec[prefix + "ffn.b2"] = (hd,)
    spec["head.w"] = (config.num_classes, hd)
    spec["head.b"] = (config.num_classes,)
    return spec


def _trunc_normal(rng: np.random.Generator, shape: tuple, std: float = 0.02) -> np.ndarray:
    # Resample draws outside +-2 std.
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def init_model(config: VitConfig, seed: int = 0) -> VitModel:
    """Seeded initialisation.

    Projections and tables use truncated-normal std 0.02, biases and LayerNorm
    offsets zero, LayerNorm gains one, CLS zero. Scorer parameters draw from a
    separate stream so the classical initialisation is identical across scorer
    kinds for a given seed (paired-run methodology).
    """
    ss_model, ss_scorer = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(ss_model)
    rng_scorer = np.random.default_rng(ss_scorer)

    params: dict[str, np.ndarray] = {}
    for name, shape in param_spec(config).items():
        base = name.rsplit(".", 1)[-1]
        if ".scorer." in name:
            continue  # filled below from the scorer stream
        if base in ("w", "wq", "wk", "wv", "wo", "w1", "w2") or name == "pos":
            params[name] = _trunc_normal(rng, shape)
        elif base == "g":
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)

    for layer in range(config.num_layers):
        for name, arr in scorers.KINDS[config.scorer].init(rng_scorer, config.heads).items():
            params[f"layers.{layer}.scorer.{name}"] = arr

    # Re-order to match param_spec exactly.
    ordered = {name: params[name] for name in param_spec(config)}
    return VitModel(config=config, params=ordered)


def count_params(model: VitModel) -> int:
    return int(sum(p.size for p in model.params.values()))


def scorer_param_count(model: VitModel) -> int:
    """Trainable scorer parameters; the circuit parameters a kind pins are left out."""
    stored = sum(p.size for name, p in model.params.items() if ".scorer." in name)
    pinned = len(scorers.KINDS[model.config.scorer].pinned) * model.config.num_layers
    return int(stored - pinned)


# ---------------------------------------------------------------------------
# Layer primitives.
# ---------------------------------------------------------------------------


def patch_embed(images: np.ndarray, config: VitConfig, w: np.ndarray, b: np.ndarray):
    """Non-overlapping patch extraction + linear map (conv with kernel = stride)."""
    images = np.asarray(images, dtype=float)
    B, C, Him, Wim = images.shape
    if C != config.channels or Him != config.image_size or Wim != config.image_size:
        raise ValueError(
            f"image batch shape {images.shape[1:]} does not match config "
            f"({config.channels}, {config.image_size}, {config.image_size})"
        )
    p = config.patch_size
    g = Him // p
    patches = (
        images.reshape(B, C, g, p, g, p)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(B, g * g, C * p * p)
    )
    return _linear(patches, w, b), patches


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    xhat = x - x.mean(axis=-1, keepdims=True)  # centred, normalised below
    inv = 1.0 / np.sqrt((xhat**2).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv
    out = xhat * g
    out += b
    return out, (xhat, inv)


def _layernorm_backward(dout, g, cache):
    xhat, inv = cache
    dx = dout * g  # dL/dxhat, turned into dL/dx below
    prod = dout * xhat  # one scratch array for the three products
    dg = prod.reshape(-1, dout.shape[-1]).sum(axis=0)
    db = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    mean_dxhat = dx.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = np.multiply(dx, xhat, out=prod).mean(axis=-1, keepdims=True)
    dx -= mean_dxhat
    dx -= np.multiply(xhat, mean_dxhat_xhat, out=prod)
    dx *= inv
    return dx, dg, db


def _gelu(x: np.ndarray):
    phi = ndtr(x)
    return x * phi, phi


def _gelu_backward(dout, x, phi):
    # dout * (phi + x * pdf(x)) in one array.
    out = -0.5 * x
    out *= x
    np.exp(out, out=out)
    out /= np.sqrt(2 * np.pi)
    out *= x
    out += phi
    out *= dout
    return out


def _linear(x, w, b):
    out = x @ w.T
    out += b
    return out


def _linear_param_grads(dout, x):
    do2 = dout.reshape(-1, dout.shape[-1])
    return do2.T @ x.reshape(-1, x.shape[-1]), do2.sum(axis=0)


def _linear_backward(dout, x, w):
    return (dout @ w, *_linear_param_grads(dout, x))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, N, hd = x.shape
    return x.reshape(B, N, heads, hd // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, H, N, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, N, H * dh)


def _layer_scorer_params(model: VitModel, layer: int) -> dict[str, np.ndarray]:
    cfg = model.config
    names = scorers.KINDS[cfg.scorer].shapes(cfg.heads)
    return {name: model.params[f"layers.{layer}.scorer.{name}"] for name in names}


# ---------------------------------------------------------------------------
# Forward / backward.
# ---------------------------------------------------------------------------


class _SharedLayer(NamedTuple):
    # What every call of a shared one-layer batch reads: the layer input's
    # CLS row (the residual), V by head, the cosine and sine planes of the
    # CLS row's pairs and the score-sum terms. None of them depends on a
    # noise channel.
    cls_row: np.ndarray
    vh: np.ndarray
    planes: scorers.PairPlanes
    terms: scorers.ScoreSumTerms


def _forward(
    model: VitModel, images: np.ndarray, noise=None, caches=None, stats=False, shared=None
):
    """Logits and, with ``stats``, the circuit-score sums; fills ``caches`` for `backward` if given.

    The head reads only the CLS token of the last layer, so that layer runs
    its query side on the CLS row alone: Q, the scores, the softmax, the
    merge, `wo` with its residual, LN2 and the FFN. Its LN1, K and V, and
    every earlier layer, run on all N tokens. Without ``caches``, each
    layer's arrays are dropped before the next starts. ``shared`` is
    `forward_with_stats`' per-batch dict: a quantum one-layer model's first
    call stores the layer's `_SharedLayer` there, and every call, the first
    included, weighs it.
    """
    cfg = model.config
    P = model.params
    kind = scorers.KINDS[cfg.scorer]
    if noise is not None and not kind.quantum:
        raise ValueError("noise injection requires a quantum scorer")
    # A one-layer model's only layer sees no noise before its scores.
    memo = shared if shared is not None and cfg.num_layers == 1 and kind.quantum else None
    kept = None if memo is None else memo.get("layer")
    if kept is None:
        tokens, patches = patch_embed(images, cfg, P["patch.w"], P["patch.b"])
        B = tokens.shape[0]
        cls = np.broadcast_to(P["cls"], (B, 1, cfg.hidden_size))
        x = np.concatenate([cls, tokens], axis=1)
        x += P["pos"]
        del tokens
        if caches is not None:
            caches.update(patches=patches, layers=[])
        del patches

    # Each layer caches exactly what `backward` reads, and nothing it does not.
    mu_sum, mu_count = 0.0, 0
    for layer in range(cfg.num_layers):
        pre = f"layers.{layer}."
        last = layer == cfg.num_layers - 1
        rows = slice(0, 1) if last else slice(None)  # the query rows
        lc: dict = {}
        sp = _layer_scorer_params(model, layer)
        theta = kind.circuit_params(sp) if kind.quantum else None  # the circuit's, pinned ones at 0
        if kept is None:
            h, ln1 = _layernorm(x, P[pre + "ln1.g"], P[pre + "ln1.b"])
            if caches is not None:
                lc.update(ln1=ln1, h=h)
            del ln1
            if last:  # only the CLS row's residual is read from here on
                x = x[:, :1].copy()
            q = _linear(h[:, rows], P[pre + "attn.wq"], P[pre + "attn.bq"])
            k = _linear(h, P[pre + "attn.wk"], P[pre + "attn.bk"])
            v = _linear(h, P[pre + "attn.wv"], P[pre + "attn.bv"])
            qh, kh, vh = (_split_heads(t, cfg.heads) for t in (q, k, v))
            lc.update(qh=qh, kh=kh, vh=vh)
            # The training step scores by the kind's product forward and keeps
            # what it saved for the backward. Inference scores a layer of all
            # N query rows by the same product, and the last layer's CLS row
            # by the per-pair circuit calls that the benchmark's hooks read;
            # a shared batch's first call builds the CLS row's pair planes,
            # which it weighs below as every later call does.
            if kind.scores is None:
                ctx = scorers.linear_attention(qh, kh, vh)
            elif caches is not None and kind.train_scores is not None:
                A, lc["scorer_saved"] = kind.train_scores(qh, kh, sp, cfg.depth)
            elif memo is not None:
                planes = scorers.pair_planes(qh, kh, theta, cfg.depth)
            else:
                A = kind.scores(qh, kh, sp, cfg.depth, noise)
            if stats and kind.quantum:  # A sums `depth` per-pair scores
                if last:  # the scores of every query row, without their matrix
                    q_all = _linear(h, P[pre + "attn.wq"], P[pre + "attn.bq"])
                    terms = scorers.score_sum_terms(_split_heads(q_all, cfg.heads), kh, theta, cfg.depth)
                    del q_all
                    if memo is not None:  # stored whole, once every part is built
                        kept = memo["layer"] = _SharedLayer(x, vh, planes, terms)
                    else:
                        mu_sum += scorers.quantum_score_sum(terms, theta, noise)
                else:
                    mu_sum += float(A.sum())
            del h, q, k, v, qh, kh
        if kept is not None:  # a shared batch, its first call included: this setting's weighing
            x, vh = kept.cls_row, kept.vh
            A = scorers.plane_scores(kept.planes, theta, noise)
            mu_sum += scorers.quantum_score_sum(kept.terms, theta, noise)
        if kind.scores is not None:
            if stats and kind.quantum:  # all N query rows of every key
                mu_count += A.size // A.shape[-2] * A.shape[-1] * cfg.depth
            lc["attn_probs"] = scorers.row_softmax(A)
            del A  # the softmax is the score matrix's last use
            ctx = lc["attn_probs"] @ vh
        del vh

        merged = _merge_heads(ctx)
        del ctx
        lc["merged"] = merged
        attn_out = _linear(merged, P[pre + "attn.wo"], P[pre + "attn.bo"])
        attn_out += x[:, rows]
        x = attn_out

        h2, lc["ln2"] = _layernorm(x, P[pre + "ln2.g"], P[pre + "ln2.b"])
        lc["h2"] = h2
        f1 = _linear(h2, P[pre + "ffn.w1"], P[pre + "ffn.b1"])
        a1, phi = _gelu(f1)
        lc.update(f1=f1, gelu_phi=phi, a1=a1)
        ffn_out = _linear(a1, P[pre + "ffn.w2"], P[pre + "ffn.b2"])
        ffn_out += x
        x = ffn_out
        if caches is not None:
            caches["layers"].append(lc)
        # Without caches this frees the layer's arrays before the next starts.
        del lc, merged, attn_out, h2, f1, a1, phi, ffn_out

    if caches is not None:
        caches["x_final"] = x
    logits = _linear(x[:, 0], P["head.w"], P["head.b"])
    return logits, {"mu_sum": mu_sum, "mu_count": mu_count}


def forward(model: VitModel, images: np.ndarray, noise=None) -> np.ndarray:
    """Class logits for a batch of images, deterministic given model and input.

    ``noise`` optionally injects a quantum channel ``(name, gamma)`` into the
    scoring circuit (quantum scorers only).
    """
    return _forward(model, images, noise=noise)[0]


def forward_with_stats(model: VitModel, images: np.ndarray, noise=None, shared=None):
    """Logits plus ``{"mu_sum", "mu_count"}``, the sum and count of the circuit scores.

    They run over every (query, key, dimension) triple of every layer. The
    last layer scores only its CLS row, so its sum comes from the circuit's
    separable form: for each (image, head, dimension),
    N^2 c_0 + Re sum_n c_n (sum_i F_n(q_id)) (sum_j G_n(k_jd)), with Q
    projected from all N tokens (`scorers.score_sum_terms`) and c the
    setting's coefficients (`scorers.quantum_score_sum`); it equals the
    per-pair sum to within rounding. Both are 0 for a classical scorer;
    their ratio is the mean score. The logits equal `forward`'s bit for bit.

    ``shared`` is an optional dict for the calls that evaluate one batch of
    one model under several noise settings. In a quantum one-layer model
    nothing before the scores' coefficients depends on the setting, so the
    first call computes once, for every later call: the patch embedding,
    LN1, the Q, K and V projections, the cosine and sine planes of every
    CLS-key pair's base angles (`scorers.pair_planes`, in place of the
    per-pair circuit calls) and the feature products of the sum. It keeps
    only the layer input's CLS row, V, the planes and the sum's terms, and
    stores them only once all are built, so a failed call leaves nothing a
    later one reads. Every call, the first included, then weighs the planes
    and the terms by its own coefficients (`scorers.plane_scores`,
    `scorers.quantum_score_sum`) and runs the rest of the layer on the CLS
    row, with the same results bit for bit as a call of its own. A deeper
    model computes everything on every call, since its last layer sees
    noisy ones. A dict serves one batch of one model; `training.noise_sweep`
    makes a new one for each batch.
    """
    if shared is not None:
        owner = shared.setdefault("owner", (model, images))
        if owner[0] is not model or owner[1] is not images:
            raise ValueError("a shared dict serves the calls of one image batch of one model")
    return _forward(model, images, noise=noise, stats=True, shared=shared)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and the logit gradient."""
    labels = np.asarray(labels)
    B, C = logits.shape
    if (
        labels.shape != (B,)
        or labels.dtype.kind not in "iu"
        or labels.min() < 0
        or labels.max() >= C
    ):
        raise ValueError("labels must be integers in [0, num_classes) matching the batch")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprobs = shifted - logsumexp
    loss = float(-logprobs[np.arange(B), labels].mean())
    dlogits = np.exp(logprobs)
    dlogits[np.arange(B), labels] -= 1.0
    return loss, dlogits / B


def backward(model: VitModel, images: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and gradients for every parameter.

    The last layer's query side holds the CLS row alone (`_forward`): its
    dQ reaches that row of the LN1 output, and the residual that row of the
    layer input; K, V and every earlier layer carry gradients for all N rows.
    """
    cfg = model.config
    P = model.params
    kind = scorers.KINDS[cfg.scorer]
    caches: dict = {}
    logits, _ = _forward(model, images, caches=caches)
    loss, dlogits = cross_entropy(logits, labels)

    # The keys in `param_spec` order. Every entry but a scorer's is assigned
    # below; a scorer's adds to zeros, so a -0.0 gradient reads +0.0 as before.
    grads = {name: np.zeros_like(p) if ".scorer." in name else None for name, p in P.items()}

    dx_cls, grads["head.w"], grads["head.b"] = _linear_backward(
        dlogits, caches.pop("x_final")[:, 0], P["head.w"]
    )
    dx = dx_cls[:, None]  # the last layer's output is its CLS row alone

    # Each cached array is popped at its last read and each large gradient
    # deleted before the next large allocation, so only the layers not yet
    # reached and the arrays in flight are alive.
    for layer in reversed(range(cfg.num_layers)):
        pre = f"layers.{layer}."
        lc = caches["layers"].pop()

        # FFN branch.
        da1, grads[pre + "ffn.w2"], grads[pre + "ffn.b2"] = _linear_backward(
            dx, lc.pop("a1"), P[pre + "ffn.w2"]
        )
        df1 = _gelu_backward(da1, lc.pop("f1"), lc.pop("gelu_phi"))
        del da1
        dh2, grads[pre + "ffn.w1"], grads[pre + "ffn.b1"] = _linear_backward(
            df1, lc.pop("h2"), P[pre + "ffn.w1"]
        )
        del df1
        dx_mid, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = _layernorm_backward(
            dh2, P[pre + "ln2.g"], lc.pop("ln2")
        )
        del dh2
        dx += dx_mid
        del dx_mid

        # Attention branch.
        dmerged, grads[pre + "attn.wo"], grads[pre + "attn.bo"] = _linear_backward(
            dx, lc.pop("merged"), P[pre + "attn.wo"]
        )
        dctx = _split_heads(dmerged, cfg.heads)
        qh, kh, vh = lc.pop("qh"), lc.pop("kh"), lc.pop("vh")

        if kind.scores is None:
            dqh, dkh, dvh = scorers.linear_attention_backward(qh, kh, vh, dctx)
        else:
            probs = lc.pop("attn_probs")
            dprobs = dctx @ np.swapaxes(vh, -1, -2)
            dvh = np.swapaxes(probs, -1, -2) @ dctx
            dA = scorers.row_softmax_backward(probs, dprobs)
            del probs, dprobs  # dA is the one (B, H, N, N) array left alive
            saved = (lc.pop("scorer_saved"),) if kind.train_scores is not None else ()
            sp = _layer_scorer_params(model, layer)
            dqh, dkh, scorer_grads = kind.backward(qh, kh, sp, cfg.depth, dA, *saved)
            del dA, saved
            for name, g in scorer_grads.items():
                grads[pre + "scorer." + name] += g
        del dmerged, dctx, qh, kh, vh

        dq, dk, dv = (_merge_heads(t) for t in (dqh, dkh, dvh))
        del dqh, dkh, dvh
        h = lc.pop("h")
        dh = np.zeros_like(h)
        for dt, wname in ((dq, "wq"), (dk, "wk"), (dv, "wv")):
            rows = slice(0, dt.shape[1])  # the last layer's query side holds the CLS row
            dpart, grads[pre + f"attn.{wname}"], grads[pre + f"attn.b{wname[1]}"] = (
                _linear_backward(dt, h[:, rows], P[pre + f"attn.{wname}"])
            )
            dh[:, rows] += dpart
        del dq, dk, dv, dpart, h
        dx_in, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = _layernorm_backward(
            dh, P[pre + "ln1.g"], lc.pop("ln1")
        )
        del dh
        dx_in[:, : dx.shape[1]] += dx  # the residual, on the rows this layer output
        dx = dx_in
        del dx_in

    # Token assembly: x = concat(cls, tokens) + pos.
    grads["pos"] = dx.sum(axis=0)
    grads["cls"] = dx[:, 0].sum(axis=0)
    grads["patch.w"], grads["patch.b"] = _linear_param_grads(dx[:, 1:], caches["patches"])
    return loss, grads


# ---------------------------------------------------------------------------
# Checkpointing.
# ---------------------------------------------------------------------------


def save_checkpoint(model: VitModel, path) -> None:
    """Write config + flat parameter arrays to a versioned .npz blob, atomically."""
    payload = {f"param:{name}": arr for name, arr in model.params.items()}
    payload["config_json"] = np.array(json.dumps(asdict(model.config)))
    payload["schema_version"] = np.array(CHECKPOINT_SCHEMA_VERSION)
    with files.atomic_open(path, "wb") as f:
        np.savez(f, **payload)


def load_checkpoint(path) -> VitModel:
    """Read a checkpoint written by `save_checkpoint`.

    Raises ValueError when the file is not such a checkpoint or when its arrays
    do not match `param_spec` of its config, naming every missing, extra,
    mis-shaped, non-numeric or non-finite parameter.
    """
    # The handle is ours to close: np.load leaks the one it opens when the
    # zip is truncated. The archive reads through it, so it stays open meanwhile.
    with open(path, "rb") as f:
        try:
            blob = np.load(f, allow_pickle=False)
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"not an .npz checkpoint: {exc}") from exc
        if not isinstance(blob, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz checkpoint")
        missing = {"schema_version", "config_json"} - set(blob.files)
        if missing:
            raise ValueError(f"not a checkpoint: no {', '.join(sorted(missing))}")
        version = int(blob["schema_version"])
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint schema version {version}")
        try:
            config = VitConfig(**json.loads(str(blob["config_json"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid checkpoint config: {exc}") from exc
        params = {
            key.removeprefix("param:"): blob[key]
            for key in blob.files
            if key.startswith("param:")
        }
    spec = param_spec(config)
    present = [name for name in spec if name in params]
    real = [name for name in present if params[name].dtype.kind in "fiu"]
    bad = {
        "missing": [name for name in spec if name not in params],
        "extra": [name for name in params if name not in spec],
        "mis-shaped": [
            f"{name} {params[name].shape} (expected {spec[name]})"
            for name in present
            if params[name].shape != spec[name]
        ],
        "non-numeric": [name for name in present if name not in real],
        "non-finite": [name for name in real if not np.isfinite(params[name]).all()],
    }
    problems = [f"{what} {', '.join(names)}" for what, names in bad.items() if names]
    if problems:
        raise ValueError(f"invalid checkpoint parameters: {'; '.join(problems)}")
    return VitModel(config=config, params={name: params[name] for name in spec})
