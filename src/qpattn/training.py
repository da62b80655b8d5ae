"""Training loop, optimizer, metrics and statistics.

SGD with classical momentum, linear-warmup + cosine-annealing schedule, early
stopping on validation accuracy, confusion-matrix metrics with a pair-count
AUC, paired t-tests with Cohen's d and confidence intervals, and the
confidence-stratified accuracy breakdown. The Student-t CDF and its inverse
come from ``scipy.special``; the AUC counts pairs, which spares every process
the ``scipy.stats`` import (about 0.5 s and 45 MB).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import stdtr, stdtrit

from . import circuit, scorers, vit
from .data import ImageDataset


@dataclass(frozen=True)
class TrainConfig:
    lr0: float
    batch_size: int
    epochs: int = 100
    warmup_epochs: int = 3
    patience: int = 20
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr0) and self.lr0 >= 0):
            raise ValueError(f"lr0 must be finite and non-negative, got {self.lr0!r}")
        for name in ("momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup_epochs must satisfy 0 <= warmup < epochs")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Linear warmup to lr0 over `warmup_epochs`, then cosine annealing to ~0."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch < config.warmup_epochs:
        return config.lr0 * (epoch + 1) / config.warmup_epochs
    t = epoch - config.warmup_epochs
    span = config.epochs - config.warmup_epochs
    return config.lr0 * 0.5 * (1 + math.cos(math.pi * t / span))


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float = 0.0,
) -> None:
    """Classical momentum update in place: v <- m*v + g (+ wd*p); p <- p - lr*v."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        if weight_decay:
            g = g + weight_decay * p
        velocity[name] = momentum * velocity[name] + g
        p -= lr * velocity[name]


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc_roc: float | None


def compute_metrics(labels, predicted, positive_scores) -> Metrics:
    """Binary confusion-matrix metrics plus the Mann-Whitney AUC.

    AUC = U / (n_pos n_neg): U counts the (positive, negative) pairs whose
    positive scores higher, a tie counting one half, by two binary searches
    in the sorted negative scores. U is an exact half-integer, so this equals
    the average-rank formula bit for bit. None when only one class is present.
    """
    labels = np.asarray(labels).astype(int)
    predicted = np.asarray(predicted).astype(int)
    scores = np.asarray(positive_scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("positive_scores must be finite")

    tp = int(np.sum((predicted == 1) & (labels == 1)))
    tn = int(np.sum((predicted == 0) & (labels == 0)))
    fp = int(np.sum((predicted == 1) & (labels == 0)))
    fn = int(np.sum((predicted == 0) & (labels == 1)))
    n = labels.size
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    n_pos = int(np.sum(labels == 1))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        neg = np.sort(scores[labels != 1])
        pos = scores[labels == 1]
        below = np.searchsorted(neg, pos, side="left").sum()
        at_or_below = np.searchsorted(neg, pos, side="right").sum()
        auc = float((below + at_or_below) / 2 / (n_pos * n_neg))
    return Metrics(accuracy, precision, recall, f1, auc)


# ---------------------------------------------------------------------------
# Student-t statistics.
# ---------------------------------------------------------------------------


def student_t_cdf(t: float, dof: float) -> float:
    """CDF of the Student-t distribution."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(stdtr(dof, t))


def student_t_ppf(p: float, dof: float) -> float:
    """Inverse CDF of the Student-t distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return float(stdtrit(dof, p))


@dataclass
class TTestResult:
    mean_diff: float
    t_statistic: float
    p_one_tail: float
    p_two_tail: float
    cohens_d: float
    ci95_low: float
    ci95_high: float
    n: int
    degenerate: bool = False


def paired_t_test(a, b) -> TTestResult:
    """Paired t-test of a - b with Cohen's d and the 95% CI of the mean difference.

    The one-tailed p tests the alternative mean(a) > mean(b). Runs must be
    paired (same seed / data split per index). Zero-variance differences are
    reported as degenerate rather than dividing by zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("paired samples must be equal-length 1-d arrays with n >= 2")
    d = a - b
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return TTestResult(mean, 0.0, 0.5, 1.0, 0.0, mean, mean, n, degenerate=True)
    se = sd / math.sqrt(n)
    t = mean / se
    p_one = 1.0 - student_t_cdf(t, n - 1)
    p_two = 2.0 * min(p_one, 1.0 - p_one)
    tcrit = student_t_ppf(0.975, n - 1)
    return TTestResult(
        mean_diff=mean,
        t_statistic=t,
        p_one_tail=p_one,
        p_two_tail=p_two,
        cohens_d=mean / sd,
        ci95_low=mean - tcrit * se,
        ci95_high=mean + tcrit * se,
        n=n,
    )


def significance_stars(p: float) -> str:
    """Marker convention: n.s. above 0.05, then * / ** / *** at 0.05 / 0.01 / 0.001."""
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return "n.s."


# ---------------------------------------------------------------------------
# Confidence stratification.
# ---------------------------------------------------------------------------

CONFIDENCE_STRATA = (
    ("low", 0.5, 0.6),
    ("medium", 0.6, 0.9),
    ("high", 0.9, 1.0),
)


@dataclass
class StratumResult:
    name: str
    low: float
    high: float
    count: int
    accuracy: float | None


def stratify_by_confidence(max_softmax_probs, correct_flags) -> list[StratumResult]:
    """Per-stratum sample counts and accuracies over half-open confidence bins.

    Bins are [0.5, 0.6), [0.6, 0.9), [0.9, 1.0]: each boundary belongs to the
    bin above it and 1.0 falls in the high stratum. Empty strata report count
    0 with accuracy None.
    """
    probs = np.asarray(max_softmax_probs, dtype=float)
    correct = np.asarray(correct_flags, dtype=bool)
    if probs.shape != correct.shape:
        raise ValueError("probs and correctness flags must align")
    results = []
    for i, (name, lo, hi) in enumerate(CONFIDENCE_STRATA):
        top_bin = i == len(CONFIDENCE_STRATA) - 1
        mask = (probs >= lo) & ((probs <= hi) if top_bin else (probs < hi))
        count = int(mask.sum())
        acc = float(correct[mask].mean()) if count else None
        results.append(StratumResult(name, lo, hi, count, acc))
    return results


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_accuracy: float = -1.0
    best_params: dict[str, np.ndarray] | None = None
    best_metrics: Metrics | None = None
    stopped_early: bool = False


#: Images per forward of `evaluate` and `noise_sweep`.
EVAL_BATCH = 64


def _summary(dataset: ImageDataset, probs: list[np.ndarray]):
    # Metrics, max-softmax probs and correctness from the batches' softmax rows.
    probs = np.concatenate(probs, axis=0)
    predicted = probs.argmax(axis=1)
    metrics = compute_metrics(dataset.labels, predicted, probs[:, 1])
    return metrics, probs.max(axis=1), predicted == dataset.labels


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    return scorers.row_softmax(logits)


def evaluate(model: vit.VitModel, dataset: ImageDataset, noise=None):
    """Metrics, per-sample max-softmax probs and per-sample correctness.

    Runs `vit.forward` on batches of 64 images, so it holds one batch's
    activations of one layer at a time. ``noise`` is a quantum channel
    ``(name, gamma)`` as in `vit.forward`. It computes no mean circuit
    score; `noise_sweep` does, for every setting of a sweep at once.
    Non-finite logits raise `FloatingPointError`.
    """
    probs = [
        _softmax_rows(vit.forward(model, dataset.images[start : start + EVAL_BATCH], noise=noise))
        for start in range(0, dataset.n, EVAL_BATCH)
    ]
    return _summary(dataset, probs)


def noise_sweep(model: vit.VitModel, dataset: ImageDataset, noises):
    """`evaluate` under each setting of ``noises``, with each setting's mean circuit score.

    ``noises`` lists settings as `vit.forward` takes them: None for the
    clean circuit, or a channel ``(name, gamma)``. Returns one
    ``(metrics, max_probs, correct, mean_mu)`` per setting, in that order;
    ``mean_mu`` is None for a classical scorer. Each 64-image batch runs
    under every setting, in order, before the next batch, through one
    `vit.forward_with_stats` call per setting that shares a dict made for
    that batch alone: a one-layer model builds the batch's score-sum
    features once for all settings (the sum costs nearly as much as the
    forward), a deeper one once per setting. Each setting sums its batches
    in order, so every result equals a sweep of one setting bit for bit.
    Non-finite logits raise `FloatingPointError`.
    """
    noises = list(noises)
    probs = [[] for _ in noises]
    mu_sums, mu_counts = [0.0] * len(noises), [0] * len(noises)
    for start in range(0, dataset.n, EVAL_BATCH):
        images = dataset.images[start : start + EVAL_BATCH]
        shared: dict = {}  # this batch's score-sum terms, dropped with the batch
        for i, noise in enumerate(noises):
            logits, extras = vit.forward_with_stats(model, images, noise, shared=shared)
            probs[i].append(_softmax_rows(logits))
            mu_sums[i] += extras["mu_sum"]
            mu_counts[i] += extras["mu_count"]
    return [
        (*_summary(dataset, p), s / n if n else None)
        for p, s, n in zip(probs, mu_sums, mu_counts)
    ]


def _diverged(epoch: int, step: int, cause: str) -> RuntimeError:
    return RuntimeError(f"training diverged at epoch {epoch}, step {step}: {cause}")


def _validate(model: vit.VitModel, valid_ds: ImageDataset, epoch: int) -> Metrics:
    """Validation metrics, or RuntimeError naming the epoch if the forward overflows."""
    # As in the steps, an overflow is named here, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return evaluate(model, valid_ds)[0]
        except circuit.NonFiniteInputError as exc:
            cause = f"circuit input: {exc}"
        except FloatingPointError:
            cause = "logits"
    raise RuntimeError(f"training diverged at epoch {epoch}: non-finite validation {cause}")


def _check_finite(what: str, arrays: dict[str, np.ndarray], epoch: int, step: int) -> None:
    """Raise RuntimeError naming the first non-finite array, with epoch and step."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise _diverged(epoch, step, f"non-finite {what} {name}")


def train_loop(
    model: vit.VitModel,
    train_ds: ImageDataset,
    valid_ds: ImageDataset,
    config: TrainConfig,
) -> TrainResult:
    """SGD training with per-epoch validation and early stopping.

    Stops once validation accuracy has not improved for `patience` epochs and
    returns the best-validation parameter snapshot along with the per-epoch
    history. Deterministic for a fixed config seed. Raises RuntimeError naming
    the epoch, the step and the cause when training diverges: a non-finite
    gradient, updated parameter or loss, or a non-finite input reaching the
    scoring circuit; and naming the epoch when the validation forward
    overflows.
    """
    if train_ds.n == 0 or valid_ds.n == 0:
        raise ValueError("training and validation splits must be non-empty")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7261]))
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    result = TrainResult()
    since_best = 0

    for epoch in range(config.epochs):
        lr = lr_schedule(epoch, config)
        order = rng.permutation(train_ds.n)
        epoch_loss = 0.0
        for step, start in enumerate(range(0, train_ds.n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            # A step that overflows is named by the checks here, not by numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss, grads = vit.backward(model, train_ds.images[idx], train_ds.labels[idx])
                except circuit.NonFiniteInputError as exc:
                    raise _diverged(epoch, step, f"non-finite circuit input: {exc}") from exc
                _check_finite("gradient", grads, epoch, step)
                sgd_step(model.params, grads, velocity, lr, config.momentum, config.weight_decay)
            _check_finite("updated parameter", model.params, epoch, step)
            epoch_loss += loss * idx.size
        epoch_loss /= train_ds.n
        if not math.isfinite(epoch_loss):
            raise RuntimeError(
                f"training diverged at epoch {epoch} (non-finite loss); reduce lr0"
            )

        metrics = _validate(model, valid_ds, epoch)
        record = {"epoch": epoch, "lr": lr, "train_loss": epoch_loss}
        record.update({f"val_{k}": v for k, v in asdict(metrics).items()})
        result.history.append(record)

        if metrics.accuracy > result.best_accuracy:
            result.best_accuracy = metrics.accuracy
            result.best_epoch = epoch
            result.best_metrics = metrics
            result.best_params = {k: v.copy() for k, v in model.params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                result.stopped_early = True
                break
    return result
