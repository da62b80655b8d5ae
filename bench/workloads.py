"""The four benchmark workloads: set-up, one protocol pass, and output checks.

Every workload is a closed loop in one process: the next operation starts
only after the previous one has returned. A pass runs the program's own
entry point (``training.train_loop`` or ``cli.main``) on state built in
set-up, so passes are independent and deterministic for a given seed. The
operations inside a pass are timed by wrapping the program's functions with
``spans.replaced``; the benchmark keeps no copy of the program's loops.

- train-qpa-n17: the desk-scale stripe protocol with the quantum scorer.
  The parameter-shift backward (``circuit.score_grad_batch``) dominates.
- train-dot-n50: the same model with scaled dot-product attention on 28x28
  images (N = 50 tokens). The circuit does no work, so a circuit-only change
  must leave it unchanged; ``vit``, the dot/softmax scorers and ``training``
  dominate.
- eval-noise-qpa-n50: ``qpattn noise-sweep`` of a seeded quantum checkpoint
  at N = 50, forward only: clean and under AD/DP/BF/PF. Same circuit layer
  as training but forward and memory-bound.
- verify-shots: ``qpattn verify`` claim by claim plus a ``qpattn shots``
  study, both through ``cli.main``. This is the scalar statevector oracle
  path (``qcore``, ``circuit.score``, ``circuit.score_sampled``).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qpattn import circuit, cli, data, lab, training, vit
from hostspeed import HostSpeed
from spans import replaced

# Frozen copy of configs/stripe_task.cfg, so that edits to the repository's
# configs do not change what the benchmark measures.
STRIPE_TASK = {
    "dataset": "synthetic",
    "image_size": 16,
    "n_per_class": 140,
    "noise_std": 0.1,
    "train_n": 200,
    "valid_n": 80,
    "patch_size": 4,
    "num_layers": 1,
    "heads": 2,
    "hidden_size": 32,
    "mlp_hidden": 64,
    "depth": 16,
    "lr0": 0.1,
    "batch_size": 32,
    "epochs": 50,
    "warmup_epochs": 3,
    "patience": 20,
    "momentum": 0.9,
    "weight_decay": 0.0,
}

VAL_TARGET = 0.95
ATTENTION_TOL = 1e-12
PF_TOL = 1e-12
# Sample standard deviations over `reps` repetitions scatter by about
# 1/sqrt(2 (reps - 1)) of their value, so the 1/(2 sqrt(S)) bound is checked
# with this many of those standard errors of headroom.
SHOTS_STD_ERRORS = 5.0


class Recorder:
    """Times the operations of one measuring phase, as (start, end, items) per kind.

    With a ``HostSpeed``, the host kernel is timed between operations when
    due, and durations are scaled to the reference speed; without one they
    are raw.
    """

    def __init__(self, host: HostSpeed | None = None):
        self.host = host
        self.ops: dict[str, list[tuple[float, float, int]]] = defaultdict(list)

    def add(self, kind: str, start: float, end: float, items: int) -> None:
        self.ops[kind].append((start, end, items))
        if self.host is not None:
            self.host.tick()

    def seconds(self, start: float, end: float) -> float:
        return end - start if self.host is None else self.host.scaled(start, end)

    def durations(self, kind: str) -> list[float]:
        return [self.seconds(start, end) for start, end, _ in self.ops[kind]]


def derived_seed(seed: int, index: int) -> int:
    """Independent 31-bit seed for set-up repetition ``index`` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def _quiet(argv: list[str]) -> int:
    # The CLI prints progress lines; the benchmark owns stdout.
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _model_objects(cfg: dict, outdir: Path, tag: str):
    dataset = data.synthetic_dataset(
        data.SyntheticSpec(
            n_per_class=cfg["n_per_class"],
            image_size=cfg["image_size"],
            noise_std=cfg["noise_std"],
            seed=cfg["data_seed"],
        )
    )
    train, valid = data.split(dataset, cfg["train_n"], cfg["valid_n"], cfg["seed"])
    config = vit.VitConfig(
        image_size=cfg["image_size"],
        channels=1,
        patch_size=cfg["patch_size"],
        num_layers=cfg["num_layers"],
        heads=cfg["heads"],
        hidden_size=cfg["hidden_size"],
        mlp_hidden=cfg["mlp_hidden"],
        num_classes=2,
        scorer=cfg["scorer"],
        depth=cfg["depth"],
    )
    ckpt = outdir / f"checkpoint-{tag}.npz"
    vit.save_checkpoint(vit.init_model(config, cfg["seed"]), ckpt)
    return train, valid, ckpt


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency(rec: Recorder, kind: str, q: float) -> dict:
    times = rec.durations(kind)
    n = len(times)
    rank = max(1, math.ceil(q * n))
    return {
        "p50_ms": float(np.median(times)) * 1e3 if n else float("nan"),
        "tail_ms": _percentile(times, q) * 1e3 if n else float("nan"),
        "tail": f"p{q * 100:g}",
        "n": n,
        "beyond_tail": n - rank,
    }


def throughput(rec: Recorder, kind: str) -> float:
    seconds = sum(rec.durations(kind))
    return sum(items for *_, items in rec.ops[kind]) / seconds if seconds else float("nan")


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _timed(rec: Recorder, kind: str, items, after=None):
    """``spans.replaced`` factory: each call of the function is one ``kind`` operation.

    ``items(args)`` counts the operation's items; ``after(args, kwargs, out,
    end)`` runs once the time is taken, so its bookkeeping is not measured.
    """

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            rec.add(kind, start, end, items(args))
            if after is not None:
                after(args, kwargs, out, end)
            return out

        return timed

    return make


# ---------------------------------------------------------------------------
# Output check shared by the training workloads.
# ---------------------------------------------------------------------------


def _capture_first(sink: dict, key: str):
    """Replacement factory that records the first call's arguments and result."""

    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.setdefault(key, (args, kwargs, out))
            return out

        return wrapper

    return make


def attention_errors(model: vit.VitModel, image: np.ndarray) -> float:
    """Largest deviation of the first layer's attention scores from an oracle.

    Runs one image through ``vit.forward`` while capturing the score matrix
    handed to the softmax and the scorer's inputs. Every entry is recomputed
    independently: a sum of ``circuit.score`` statevector values over the
    first D dimensions for the quantum scorer, a correctly rounded dot
    product for the classical one.
    """
    seen: dict = {}
    quantum = model.config.scorer in ("qpa", "qpa-ind")
    scorer_target = "circuit.score_batch" if quantum else "scorers.dot_scores"
    with replaced("scorers.row_softmax", _capture_first(seen, "A")), replaced(
        scorer_target, _capture_first(seen, "scorer")
    ):
        vit.forward(model, image[None])
    A = np.asarray(seen["A"][0][0])[0]  # (H, N, N) for the single image
    args, kwargs, _ = seen["scorer"]
    worst = 0.0
    if quantum:
        qs, ks = (np.asarray(a)[0] for a in np.broadcast_arrays(args[0], args[1]))
        params = args[2]
        independent = args[3] if len(args) > 3 else kwargs.get("independent", False)
        for h, i, j in np.ndindex(A.shape):
            expected = sum(
                circuit.score(float(q), float(k), params, independent)
                for q, k in zip(qs[h, i, j], ks[h, i, j])
            )
            worst = max(worst, abs(A[h, i, j] - expected))
    else:
        Q, K = (np.asarray(a)[0] for a in args[:2])
        scale = math.sqrt(Q.shape[-1])
        for h, i, j in np.ndindex(A.shape):
            expected = math.fsum(Q[h, i] * K[h, j]) / scale
            worst = max(worst, abs(A[h, i, j] - expected))
    return float(worst)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    cfg: dict
    train: data.ImageDataset
    valid: data.ImageDataset
    ckpt: Path


class TrainWorkload:
    """Seeded stripe training runs of ``training.train_loop`` for four epochs.

    Operations are optimizer steps, from the start of ``vit.backward`` to the
    end of the ``training.sgd_step`` that follows it; each epoch's
    validation pass (``training.evaluate``) is timed as a ``val`` operation.
    With three warm-up epochs, the cosine schedule of a four-epoch run gives
    the same learning rates as the first four epochs of the 50-epoch protocol.
    """

    latency_kind = "step"
    throughput_kind = "step"
    epochs = 4

    def __init__(self, scorer, image_size, tail_q, trace_passes, tiny=False):
        self.tail_q = tail_q
        self.trace_passes = trace_passes
        self.protocol = dict(STRIPE_TASK, scorer=scorer, image_size=image_size)
        if tiny:
            self.protocol.update(image_size=8, n_per_class=60, train_n=96, valid_n=16, batch_size=16)

    def config(self, seed: int, index: int) -> dict:
        s = derived_seed(seed, index)
        return dict(self.protocol, seed=s, data_seed=s, bench_epochs=self.epochs)

    def setup(self, cfg: dict, outdir: Path, tag: str) -> TrainState:
        train, valid, ckpt = _model_objects(cfg, outdir, tag)
        return TrainState(cfg, train, valid, ckpt)

    def run_pass(self, st: TrainState, rec: Recorder) -> dict:
        cfg = st.cfg
        model = vit.load_checkpoint(st.ckpt)
        tcfg = training.TrainConfig(
            lr0=cfg["lr0"],
            batch_size=cfg["batch_size"],
            epochs=self.epochs,
            warmup_epochs=cfg["warmup_epochs"],
            patience=cfg["patience"],
            momentum=cfg["momentum"],
            weight_decay=cfg["weight_decay"],
            seed=cfg["seed"],
        )
        step: dict = {}
        reached: list[float] = []

        def backward(fn):
            @functools.wraps(fn)
            def timed(model, images, labels):
                step["start"], step["items"] = time.perf_counter(), len(images)
                return fn(model, images, labels)

            return timed

        def sgd_step(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                rec.add("step", step.pop("start"), time.perf_counter(), step["items"])
                return out

            return timed

        def val_done(args, kwargs, out, end):
            if not reached and out[0].accuracy >= VAL_TARGET:
                reached.append((start, end))

        start = time.perf_counter()
        with replaced("vit.backward", backward), replaced("training.sgd_step", sgd_step), replaced(
            "training.evaluate", _timed(rec, "val", lambda a: a[1].n, val_done)
        ):
            result = training.train_loop(model, st.train, st.valid, tcfg)
        return {"model": model, "history": result.history, "t_target": reached[0] if reached else None}

    def check(self, st: TrainState, res: dict) -> dict[str, bool]:
        return {
            "losses_finite": _finite(*(r["train_loss"] for r in res["history"])),
            "metrics_finite": _finite(
                *(v for r in res["history"] for k, v in r.items() if k.startswith("val_"))
            ),
            "val_target_reached": res["t_target"] is not None,
            "attention_matches_oracle": attention_errors(res["model"], st.valid.images[0])
            <= ATTENTION_TOL,
        }

    def details(self, rec: Recorder, passes: list[dict]) -> dict:
        step = latency(rec, "step", self.tail_q)
        val = latency(rec, "val", 0.5)
        reached = [rec.seconds(*p["t_target"]) for p in passes if p["t_target"] is not None]
        return {
            "train_images_per_s": (throughput(rec, "step"), "1/s", f"over {step['n']} steps"),
            "train_step_ms_p50": (step["p50_ms"], "ms", f"n={step['n']}"),
            f"train_step_ms_{step['tail']}": (
                step["tail_ms"], "ms", f"n={step['n']}, {step['beyond_tail']} beyond"
            ),
            "eval_images_per_s": (throughput(rec, "val"), "1/s", f"over {val['n']} validation passes"),
            "eval_pass_ms_p50": (val["p50_ms"], "ms", f"n={val['n']} validation passes"),
            "time_to_val95_s": (
                float(np.median(reached)) if reached else float("nan"),
                "s",
                f"median of {len(reached)} of {len(passes)} passes",
            ),
            "final_val_accuracy": (
                float(np.median([max(r["val_accuracy"] for r in p["history"]) for p in passes])),
                "ratio",
                f"median best over {len(passes)} passes",
            ),
        }


@dataclass
class EvalState:
    cfg: dict
    valid: data.ImageDataset
    ckpt: Path
    outdir: Path


class EvalNoiseWorkload:
    """``qpattn noise-sweep`` of a seeded quantum checkpoint at N = 50.

    A pass is one ``cli.main(["noise-sweep", ...])`` call: the clean model,
    then each channel at one seeded strength, over 64 validation images, so
    each setting is one of the program's 64-image batches. Operations are
    the ``vit.forward_with_stats`` calls.
    """

    latency_kind = "batch"
    throughput_kind = "batch"
    channels = ("AD", "DP", "BF", "PF")
    split_keys = ("dataset", "image_size", "n_per_class", "noise_std", "data_seed", "train_n", "valid_n", "seed")

    def __init__(self, tail_q, trace_passes, tiny=False):
        self.tail_q = tail_q
        self.trace_passes = trace_passes
        self.check_images = 2
        self.protocol = dict(STRIPE_TASK, scorer="qpa", image_size=28, valid_n=64)
        if tiny:
            self.protocol.update(image_size=8, n_per_class=20, train_n=8, valid_n=16)

    def config(self, seed: int, index: int) -> dict:
        s = derived_seed(seed, index)
        gamma = np.random.default_rng([seed, index]).uniform(0.02, 0.10)
        return dict(self.protocol, seed=s, data_seed=s, gamma=f"{gamma:.4f}")

    def setup(self, cfg: dict, outdir: Path, tag: str) -> EvalState:
        _, valid, ckpt = _model_objects(cfg, outdir, tag)
        sweep_dir = outdir / f"sweep-{tag}"
        sweep_dir.mkdir(parents=True, exist_ok=True)
        return EvalState(cfg, valid, ckpt, sweep_dir)

    def argv(self, st: EvalState) -> list[str]:
        argv = ["noise-sweep", "--checkpoint", str(st.ckpt)]
        for key in self.split_keys:
            argv += ["--set", f"{key}={st.cfg[key]}"]
        return argv + [
            "--gammas", st.cfg["gamma"],
            "--channels", ",".join(self.channels),
            "--out", str(st.outdir),
        ]

    def run_pass(self, st: EvalState, rec: Recorder) -> dict:
        settings: dict = defaultdict(lambda: [0.0, 0, True])  # mu sum, mu count, logits finite

        def observed(args, kwargs, out, end):
            noise = args[2] if len(args) > 2 else kwargs.get("noise")
            totals = settings["clean" if noise is None else noise[0]]
            logits, extras = out
            totals[0] += extras["mu_sum"]
            totals[1] += extras["mu_count"]
            totals[2] = totals[2] and bool(np.isfinite(logits).all())

        with replaced("vit.forward_with_stats", _timed(rec, "batch", lambda a: len(a[1]), observed)):
            code = _quiet(self.argv(st))
        with open(st.outdir / "noise_sweep.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        mean_mu = {label: s / n for label, (s, n, _) in settings.items()}
        return {"code": code, "rows": rows, "mean_mu": mean_mu,
                "finite": all(ok for *_, ok in settings.values())}

    def check(self, st: EvalState, sweep: dict) -> dict[str, bool]:
        mu, rows = sweep["mean_mu"], sweep["rows"]
        scores = self.pair_scores(st, st.valid.images[: self.check_images])
        return {
            "sweep_completed": sweep["code"] == 0
            and [r["channel"] for r in rows] == list(self.channels)
            and set(mu) == {"clean", *self.channels},
            "csv_matches_forward": all(
                r["mean_mu"] == f"{mu[r['channel']]:.12f}" and r["baseline_mean_mu"] == f"{mu['clean']:.12f}"
                for r in rows
            ),
            "logits_finite": sweep["finite"],
            "metrics_finite": _finite(*mu.values(), *(float(r["val_accuracy"]) for r in rows)),
            "mean_mu_in_unit_interval": all(0.0 <= v <= 1.0 for v in mu.values()),
            "pf_mean_mu_equals_clean": abs(mu["PF"] - mu["clean"]) <= PF_TOL,
            "pair_mu_in_unit_interval": all(
                bool(((m >= 0.0) & (m <= 1.0)).all()) for m in scores.values()
            ),
            "pf_pair_mu_equals_clean": float(np.abs(scores["PF"] - scores["clean"]).max()) <= PF_TOL,
        }

    def pair_scores(self, st: EvalState, images: np.ndarray) -> dict[str, np.ndarray]:
        """Per-pair circuit scores of the first layer for every sweep setting.

        The pass can only check means, where a single wrong score is diluted
        by a million others; this recomputes a few images and keeps each score.
        """
        model = vit.load_checkpoint(st.ckpt)
        gamma = float(st.cfg["gamma"])
        out = {}
        for label, noise in [("clean", None)] + [(ch, (ch, gamma)) for ch in self.channels]:
            seen: dict = {}
            target = "circuit.score_batch" if noise is None else "circuit.score_noisy_batch"
            with replaced(target, _capture_first(seen, "mu")):
                vit.forward_with_stats(model, images, noise=noise)
            out[label] = np.asarray(seen["mu"][2])
        return out

    def details(self, rec: Recorder, passes: list[dict]) -> dict:
        batch = latency(rec, "batch", self.tail_q)
        out = {
            "eval_images_per_s": (throughput(rec, "batch"), "1/s", f"over {batch['n']} batches"),
            "eval_batch_ms_p50": (batch["p50_ms"], "ms", f"n={batch['n']}"),
            f"eval_batch_ms_{batch['tail']}": (
                batch["tail_ms"], "ms", f"n={batch['n']}, {batch['beyond_tail']} beyond"
            ),
        }
        for label, value in passes[-1]["mean_mu"].items():
            out[f"mean_mu.{label}"] = (value, "ratio", "last pass")
        return out


@dataclass
class VerifyState:
    cfg: dict
    outdir: Path


class VerifyShotsWorkload:
    """The verification suite claim by claim, then a finite-shot study.

    Operations are ``qpattn verify --claim <id>`` and ``qpattn shots --shots
    <S>`` calls through ``cli.main``. The suite runs at its documented
    default seed 0, the seed the acceptance suite pins; the shot study's
    inputs come from the workload seed. Latency and throughput are those of
    the shot-study calls, each ``inputs * reps`` ``circuit.score_sampled``
    evaluations; claims differ from each other by up to 100x in cost, so a
    percentile over them lands between claims and jumps from run to run.
    """

    latency_kind = "shots"
    throughput_kind = "shots"

    def __init__(self, tail_q, trace_passes, tiny=False):
        self.tail_q = tail_q
        self.trace_passes = trace_passes
        self.protocol = {"verify_seed": 0, "shots": [25, 100, 400, 1600], "reps": 400, "inputs": 2}
        if tiny:
            self.protocol.update(shots=[25, 100], inputs=1)

    def config(self, seed: int, index: int) -> dict:
        return dict(self.protocol, shots_seed=derived_seed(seed, index), claims=lab.claim_ids())

    def setup(self, cfg: dict, outdir: Path, tag: str) -> VerifyState:
        state_dir = outdir / f"cli-{tag}"
        state_dir.mkdir(parents=True, exist_ok=True)
        return VerifyState(cfg, state_dir)

    def run_pass(self, st: VerifyState, rec: Recorder) -> dict:
        cfg = st.cfg
        claims, shots = {}, {}
        start = time.perf_counter()
        for i, cid in enumerate(cfg["claims"]):
            report = st.outdir / f"verify-{i}.json"
            t0 = time.perf_counter()
            code = _quiet(["verify", "--claim", cid, "--seed", str(cfg["verify_seed"]), "--out", str(report)])
            rec.add("claim", t0, time.perf_counter(), 0)
            claims[cid] = (code, report)
        verify_span = (start, time.perf_counter())
        for s in cfg["shots"]:
            out = st.outdir / f"shots-{s}"
            argv = ["shots", "--shots", str(s), "--reps", str(cfg["reps"]),
                    "--inputs", str(cfg["inputs"]), "--seed", str(cfg["shots_seed"]), "--out", str(out)]
            t0 = time.perf_counter()
            code = _quiet(argv)
            rec.add("shots", t0, time.perf_counter(), cfg["inputs"] * cfg["reps"])
            shots[s] = (code, out / "shots.csv")
        return {"claims": claims, "shots": shots, "verify_span": verify_span}

    def check(self, st: VerifyState, res: dict) -> dict[str, bool]:
        passed = True
        for cid, (code, path) in res["claims"].items():
            report = json.loads(path.read_text(encoding="utf-8"))
            ids = [c["claim_id"] for c in report["claims"]]
            passed = passed and code == 0 and report["all_passed"] is True and ids == [cid]
        headroom = 1.0 + SHOTS_STD_ERRORS / math.sqrt(2.0 * (st.cfg["reps"] - 1))
        within, finite = True, True
        for s, (code, path) in res["shots"].items():
            with open(path, encoding="utf-8", newline="") as f:
                (row,) = list(csv.DictReader(f))
            std = float(row["empirical_std_max"])
            finite = finite and _finite(std, float(row["empirical_std_mean"]))
            within = within and code == 0 and int(row["shots"]) == s
            within = within and std <= headroom / (2.0 * math.sqrt(s))
        return {"claims_all_passed": passed, "shot_std_within_bound": within, "metrics_finite": finite}

    def details(self, rec: Recorder, passes: list[dict]) -> dict:
        claim = latency(rec, "claim", 0.95)
        shots = latency(rec, "shots", self.tail_q)
        return {
            "verify_s": (
                float(np.median([rec.seconds(*p["verify_span"]) for p in passes])),
                "s",
                f"median of {len(passes)} complete suites",
            ),
            "oracle_evals_per_s": (throughput(rec, "shots"), "1/s", f"over {shots['n']} shot studies"),
            "claim_ms_p50": (claim["p50_ms"], "ms", f"n={claim['n']}"),
            f"claim_ms_{claim['tail']}": (
                claim["tail_ms"], "ms", f"n={claim['n']}, {claim['beyond_tail']} beyond"
            ),
            "shots_ms_p50": (shots["p50_ms"], "ms", f"n={shots['n']}"),
            f"shots_ms_{shots['tail']}": (
                shots["tail_ms"], "ms", f"n={shots['n']}, {shots['beyond_tail']} beyond"
            ),
        }


# Tail percentile per workload, fixed so that a faster program is not held to
# a stricter tail, and the number of passes of each phase of a traced run,
# fixed so that per-layer calls and elements repeat exactly. See README.md.
def make_workloads(tiny: bool = False) -> dict:
    return {
        "train-qpa-n17": TrainWorkload("qpa", 16, 0.85, 2, tiny),
        "train-dot-n50": TrainWorkload("dot", 28, 0.95, 20, tiny),
        "eval-noise-qpa-n50": EvalNoiseWorkload(0.90, 2, tiny),
        "verify-shots": VerifyShotsWorkload(0.80, 10, tiny),
    }
