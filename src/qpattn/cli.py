"""Command-line surface: verify, train, compare, noise-sweep, shots.

Runs are described by declarative key=value config files (strict: unknown
keys are rejected); individual values can be overridden with --set. All
outputs are UTF-8 JSON/JSONL/CSV files carrying a schema_version field.
Exit codes: 0 success, 1 claim or experiment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import circuit, files, lab, qcore, scorers, training, vit
from .data import ImageDataset, SyntheticSpec, load_idx, split, synthetic_dataset
from .training import TrainConfig, significance_stars

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QPATTN_OUTPUT_DIR"


class CliError(Exception):
    """Invalid configuration or arguments (exit code 2)."""


class ExperimentError(Exception):
    """A run that failed, such as a training run that diverged (exit code 1)."""


# ---------------------------------------------------------------------------
# Config files.
# ---------------------------------------------------------------------------


def _parse_scalar(kind, raw: str):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError as exc:
        raise CliError(f"cannot parse {raw!r} as {kind.__name__}") from exc
    return raw


def _parse_list(kind, raw: str, what: str) -> list:
    """Comma-separated values of one type; at least one, each listed once."""
    values = [_parse_scalar(kind, part.strip()) for part in raw.split(",") if part.strip()]
    if not values:
        raise CliError(f"{what} needs at least one value")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise CliError(f"{what} repeat {repeated}; list each one once")
    return values


_COMMON_KEYS: dict[str, tuple] = {
    # dataset
    "dataset": (str, "synthetic"),
    "image_size": (int, 16),
    "n_per_class": (int, 140),
    "noise_std": (float, 0.1),
    "data_seed": (int, 0),
    "images_path": (str, None),
    "labels_path": (str, None),
    "class_a": (int, 0),
    "class_b": (int, 1),
    "train_n": (int, 200),
    "valid_n": (int, 80),
    # model
    "patch_size": (int, 4),
    "num_layers": (int, 1),
    "heads": (int, 2),
    "hidden_size": (int, 32),
    "mlp_hidden": (int, 64),
    "num_classes": (int, 2),
    "depth": (int, None),  # default: min(16, head_dim)
    # optimisation
    "lr0": (float, 0.1),
    "batch_size": (int, 32),
    "epochs": (int, 100),
    "warmup_epochs": (int, 3),
    "patience": (int, 20),
    "momentum": (float, 0.9),
    "weight_decay": (float, 0.0),
}

_TRAIN_KEYS = {**_COMMON_KEYS, "scorer": (str, scorers.DEFAULT_KINDS[0]), "seed": (int, 1)}
_COMPARE_KEYS = {  # a kind [t] is a comma-separated list of t
    **_COMMON_KEYS,
    "scorers": ([str], list(scorers.DEFAULT_KINDS)),
    "seeds": ([int], [1, 2, 3, 4, 5]),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise CliError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def resolve_config(
    schema: dict[str, tuple], path: str | None, overrides: list[str]
) -> dict:
    """Defaults <- config file <- --set overrides, rejecting unknown keys."""
    values = {key: default for key, (_, default) in schema.items()}
    raw: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"config file {path} is not UTF-8 text: {exc}") from exc
        raw.update(parse_config_text(text))
    for item in overrides:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    for key, value in raw.items():
        if key not in schema:
            raise CliError(f"unknown config key {key!r}")
        kind = schema[key][0]
        if isinstance(kind, list):
            values[key] = _parse_list(kind[0], value, key)
        else:
            values[key] = _parse_scalar(kind, value)
    for key in ("seed", "data_seed", "seeds"):
        if key in values:
            _check_seed(key, values[key])
    return values


def _check_seed(name: str, value) -> None:
    # numpy generators refuse negative seeds; one seed or a list of them.
    if np.min(value) < 0:
        raise CliError(f"{name} must be non-negative, got {value}")


def _output_path(arg: str | None) -> Path:
    """The output directory, not made yet; an existing file there is a usage error."""
    out = Path(arg or os.environ.get(OUTPUT_DIR_ENV, "runs"))
    if out.exists() and not out.is_dir():
        raise CliError(f"output directory {out} is an existing file")
    return out


def _output_dir(arg: str | None) -> Path:
    out = _output_path(arg)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_depth_default(cfg: dict) -> dict:
    """Aggregation depth defaults to 16, clamped to the head dimension."""
    if cfg["depth"] is None:
        if cfg["heads"] < 1 or cfg["hidden_size"] % cfg["heads"]:
            raise CliError("hidden_size must be divisible by a positive head count")
        cfg["depth"] = min(16, cfg["hidden_size"] // cfg["heads"])
    return cfg


def _build_dataset(cfg: dict) -> ImageDataset:
    """The configured dataset; bad settings raise CliError.

    ``num_classes`` must equal the number of classes in the data, so the
    model's head has one output per label.
    """
    try:
        if cfg["dataset"] == "synthetic":
            spec = SyntheticSpec(
                n_per_class=cfg["n_per_class"],
                image_size=cfg["image_size"],
                noise_std=cfg["noise_std"],
                seed=cfg["data_seed"],
            )
            dataset = synthetic_dataset(spec)
        elif cfg["dataset"] == "idx":
            if not cfg["images_path"] or not cfg["labels_path"]:
                raise CliError("idx dataset requires images_path and labels_path")
            dataset = load_idx(
                cfg["images_path"], cfg["labels_path"], cfg["class_a"], cfg["class_b"]
            )
        else:
            raise CliError(f"unknown dataset kind {cfg['dataset']!r}")
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    classes = np.unique(dataset.labels).size
    if cfg["num_classes"] != classes:
        raise CliError(f"num_classes = {cfg['num_classes']}, but the dataset has {classes} classes")
    return dataset


def _vit_config(cfg: dict, dataset: ImageDataset, scorer: str) -> vit.VitConfig:
    channels = dataset.images.shape[1]
    image_size = dataset.images.shape[2]
    try:
        return vit.VitConfig(
            image_size=image_size,
            channels=channels,
            patch_size=cfg["patch_size"],
            num_layers=cfg["num_layers"],
            heads=cfg["heads"],
            hidden_size=cfg["hidden_size"],
            mlp_hidden=cfg["mlp_hidden"],
            num_classes=cfg["num_classes"],
            scorer=scorer,
            depth=cfg["depth"],
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    try:
        return TrainConfig(
            lr0=cfg["lr0"],
            batch_size=cfg["batch_size"],
            epochs=cfg["epochs"],
            warmup_epochs=cfg["warmup_epochs"],
            patience=cfg["patience"],
            momentum=cfg["momentum"],
            weight_decay=cfg["weight_decay"],
            seed=seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _splits(cfg: dict, dataset: ImageDataset, seed: int) -> tuple[ImageDataset, ImageDataset]:
    """Train and validation splits of ``dataset``; bad settings raise CliError."""
    try:
        train_ds, valid_ds = split(dataset, cfg["train_n"], cfg["valid_n"], seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if valid_ds.n == 0:
        raise CliError("validation split is empty; set valid_n > 0")
    return train_ds, valid_ds


def _init_model(cfg: dict, train_ds: ImageDataset, scorer: str, seed: int) -> vit.VitModel:
    """Initial model of one run on its training split; bad settings raise CliError."""
    if train_ds.n == 0:
        raise CliError("training split is empty; set train_n > 0")
    return vit.init_model(_vit_config(cfg, train_ds, scorer), seed)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with files.atomic_open(path, "w", encoding="utf-8") as f:
        for record in records:
            record = {"schema_version": SCHEMA_VERSION, **record}
            f.write(json.dumps(record, allow_nan=False) + "\n")


def _write_json(path: Path, obj: dict) -> None:
    with files.atomic_open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, indent=2, allow_nan=False))


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with files.atomic_open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_seed("--seed", args.seed)
    results = lab.run_claims(seed=args.seed, only=args.claim)
    if not results:
        print(f"no claim matches filter {args.claim!r}", file=sys.stderr)
        print("available claims:", ", ".join(lab.claim_ids()), file=sys.stderr)
        return 2
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        witness = " ".join(f"{k}={v}" for k, v in r.witness.items())
        print(f"{status} {r.claim_id} (tolerance {r.tolerance:g}) {witness}")
    report = lab.claims_report(results, args.seed)
    out = Path(args.out) if args.out else _output_dir(None) / "verify_report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, report)
    print(f"report written to {out}")
    return 0 if report["all_passed"] else 1


def cmd_train(args) -> int:
    cfg = _apply_depth_default(resolve_config(_TRAIN_KEYS, args.config, args.set or []))
    # Refuse a bad setting before any work or output.
    _train_config(cfg, cfg["seed"])
    train_ds, valid_ds = _splits(cfg, _build_dataset(cfg), cfg["seed"])
    model = _init_model(cfg, train_ds, cfg["scorer"], cfg["seed"])
    outdir = _output_path(args.out)
    result = _train((cfg, cfg["scorer"], cfg["seed"], model, train_ds, valid_ds))
    best_model = vit.VitModel(model.config, result.best_params)
    outdir.mkdir(parents=True, exist_ok=True)

    _write_jsonl(outdir / "history.jsonl", result.history)
    vit.save_checkpoint(best_model, outdir / "checkpoint.npz")

    # Confidence-stratified accuracy of the best model on the validation set.
    _, max_probs, correct = training.evaluate(best_model, valid_ds)
    strata = [
        {"stratum": s.name, "low": s.low, "high": s.high, "count": s.count, "accuracy": s.accuracy}
        for s in training.stratify_by_confidence(max_probs, correct)
    ]

    summary = {
        "schema_version": SCHEMA_VERSION,
        "scorer": cfg["scorer"],
        "seed": cfg["seed"],
        "config": cfg,
        "num_params": vit.count_params(best_model),
        "scorer_params": vit.scorer_param_count(best_model),
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.history),
        "stopped_early": result.stopped_early,
        "best_metrics": asdict(result.best_metrics),
        "confidence_strata": strata,
    }
    _write_json(outdir / "summary.json", summary)
    print(
        f"scorer={cfg['scorer']} seed={cfg['seed']} best_epoch={result.best_epoch} "
        f"val_accuracy={result.best_accuracy:.4f}"
    )
    print(f"outputs written to {outdir}")
    return 0


def _train(job) -> training.TrainResult:
    """Train one ``(cfg, scorer, seed, model, train_ds, valid_ds)`` job.

    A run that diverges raises ExperimentError naming its scorer and seed.
    """
    cfg, scorer, seed, model, train_ds, valid_ds = job
    try:
        return training.train_loop(model, train_ds, valid_ds, _train_config(cfg, seed))
    except RuntimeError as exc:  # training diverged
        raise ExperimentError(f"{exc} (scorer {scorer}, seed {seed})") from exc


_METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "auc_roc")

_COMPARE_FIELDS = [
    "schema_version",
    "row_type",
    "scorer",
    "scorer_b",
    "n",
    *(f"{m}_mean" for m in _METRIC_NAMES),
    *(f"{m}_std" for m in _METRIC_NAMES),
    "metric",
    "mean_diff",
    "t_statistic",
    "p_one_tail",
    "p_two_tail",
    "cohens_d",
    "ci95_low",
    "ci95_high",
    "degenerate",
    "significance",
]


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _apply_depth_default(resolve_config(_COMPARE_KEYS, args.config, args.set or []))
    scorers_list, seeds = cfg["scorers"], cfg["seeds"]
    if len(seeds) < 2:
        raise CliError("compare requires at least 2 seeds (t-test undefined otherwise)")
    if len(scorers_list) < 2:
        raise CliError("compare requires at least 2 scorer kinds")
    unknown = [s for s in scorers_list if s not in scorers.KINDS]
    if unknown:
        raise CliError(f"unknown scorers {unknown}; expected some of {scorers.SCORER_KINDS}")
    _train_config(cfg, seeds[0])  # refuse a bad optimiser setting before any run
    # One dataset and one split per seed for every job; building each job's
    # model checks every split and model setting before any output.
    dataset = _build_dataset(cfg)
    splits = {seed: _splits(cfg, dataset, seed) for seed in seeds}
    jobs = [
        (cfg, scorer, seed, _init_model(cfg, splits[seed][0], scorer, seed), *splits[seed])
        for scorer in scorers_list
        for seed in seeds
    ]
    outdir = _output_path(args.out)

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_train, jobs))
    else:
        results = [_train(job) for job in jobs]
    outdir.mkdir(parents=True, exist_ok=True)

    # Jobs run scorer by scorer, each over the seeds in order.
    history_records = [
        dict(record, seed=seed, scorer=scorer)
        for (_, scorer, seed, *_), result in zip(jobs, results)
        for record in result.history
    ]
    metrics = {
        s: [asdict(r.best_metrics) for r in results[i * len(seeds) : (i + 1) * len(seeds)]]
        for i, s in enumerate(scorers_list)
    }

    rows = []
    for s in scorers_list:
        values = {m: [run[m] for run in metrics[s]] for m in _METRIC_NAMES}
        row = {
            "schema_version": SCHEMA_VERSION,
            "row_type": "summary",
            "scorer": s,
            "n": len(seeds),
        }
        for m in _METRIC_NAMES:
            arr = np.array([v for v in values[m] if v is not None], dtype=float)
            row[f"{m}_mean"] = f"{arr.mean():.6f}" if arr.size else ""
            row[f"{m}_std"] = f"{arr.std(ddof=1):.6f}" if arr.size > 1 else ""
        rows.append(row)

    for i, sa in enumerate(scorers_list):
        for sb in scorers_list[i + 1 :]:
            a = np.array([run["accuracy"] for run in metrics[sa]])
            b = np.array([run["accuracy"] for run in metrics[sb]])
            t = training.paired_t_test(a, b)
            rows.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "row_type": "ttest",
                    "scorer": sa,
                    "scorer_b": sb,
                    "n": t.n,
                    "metric": "accuracy",
                    "mean_diff": f"{t.mean_diff:.6f}",
                    "t_statistic": f"{t.t_statistic:.6f}",
                    "p_one_tail": f"{t.p_one_tail:.6g}",
                    "p_two_tail": f"{t.p_two_tail:.6g}",
                    "cohens_d": f"{t.cohens_d:.6f}",
                    "ci95_low": f"{t.ci95_low:.6f}",
                    "ci95_high": f"{t.ci95_high:.6f}",
                    "degenerate": t.degenerate,
                    "significance": "n/a" if t.degenerate else significance_stars(t.p_one_tail),
                }
            )

    _write_csv(outdir / "compare.csv", _COMPARE_FIELDS, rows)
    _write_jsonl(outdir / "runs.jsonl", history_records)
    for row in rows:
        if row["row_type"] == "summary":
            print(f"{row['scorer']}: accuracy {row['accuracy_mean']} +- {row['accuracy_std']}")
        else:
            print(
                f"{row['scorer']} vs {row['scorer_b']}: diff {row['mean_diff']} "
                f"p1={row['p_one_tail']} {row['significance']}"
            )
    print(f"outputs written to {outdir}")
    return 0


def cmd_noise_sweep(args) -> int:
    gammas = _parse_list(float, args.gammas, "--gammas")
    if not all(0.0 <= g <= 1.0 for g in gammas):
        raise CliError(f"noise strengths must lie in [0, 1], got {args.gammas!r}")
    channels = _parse_list(str, args.channels.upper(), "--channels")
    for channel in channels:
        if channel not in qcore.CHANNELS:
            raise CliError(f"unknown noise channel {channel!r}")
    try:
        model = vit.load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    if not scorers.KINDS[model.config.scorer].quantum:
        raise CliError(
            f"noise sweep requires a quantum-scorer checkpoint, got {model.config.scorer!r}"
        )
    cfg = _apply_depth_default(resolve_config(_TRAIN_KEYS, args.config, args.set or []))
    cfg["num_classes"] = model.config.num_classes  # the checkpoint's head meets the data
    _, valid_ds = _splits(cfg, _build_dataset(cfg), cfg["seed"])
    expected = (model.config.channels, model.config.image_size, model.config.image_size)
    if valid_ds.images.shape[1:] != expected:
        raise CliError(
            f"dataset images have shape {valid_ds.images.shape[1:]}, "
            f"but the checkpoint expects {expected}"
        )

    noises = [(channel, gamma) for channel in channels for gamma in gammas]
    (base, *_, base_mu), *noisy = training.noise_sweep(model, valid_ds, [None, *noises])
    rows = []
    for (channel, gamma), (metrics, *_, mean_mu) in zip(noises, noisy):
        acc = metrics.accuracy
        rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "channel": channel,
                "gamma": f"{gamma:g}",
                "val_accuracy": f"{acc:.6f}",
                "mean_mu": f"{mean_mu:.12f}",
                "mean_mu_shift": f"{mean_mu - base_mu:.12f}",
                "baseline_accuracy": f"{base.accuracy:.6f}",
                "baseline_mean_mu": f"{base_mu:.12f}",
            }
        )
        print(f"{channel} gamma={gamma:g}: accuracy {acc:.4f} mean_mu {mean_mu:.6f}")
    outdir = _output_dir(args.out)
    _write_csv(outdir / "noise_sweep.csv", list(rows[0]), rows)
    print(f"outputs written to {outdir}")
    return 0


def cmd_shots(args) -> int:
    shot_counts = _parse_list(int, args.shots, "--shots")
    bad = [s for s in shot_counts if not 1 <= s <= circuit.MAX_SHOTS]
    if bad:
        raise CliError(f"shot counts must lie in [1, 2**63 - 1], got {bad}")
    if args.reps < 2:
        raise CliError(f"--reps must be at least 2 for a sample std, got {args.reps}")
    if args.inputs < 1:
        raise CliError(f"--inputs must be at least 1, got {args.inputs}")
    _check_seed("--seed", args.seed)
    rng = np.random.default_rng(args.seed)
    inputs = []
    for _ in range(args.inputs):
        params = circuit.QpaParams.from_array(rng.normal(0, 0.8, size=5))
        q, k = rng.normal(0, 1.5, size=2)
        inputs.append((q, k, params))

    rows = []
    for shots in shot_counts:
        stds = []
        for q, k, params in inputs:
            estimates = np.array(
                [
                    circuit.score_sampled(q, k, params, shots, seed=args.seed + 7919 * r)
                    for r in range(args.reps)
                ]
            )
            stds.append(estimates.std(ddof=1))
        bound = 1.0 / (2.0 * np.sqrt(shots))
        rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "shots": shots,
                "empirical_std_max": f"{max(stds):.6f}",
                "empirical_std_mean": f"{np.mean(stds):.6f}",
                "bound": f"{bound:.6f}",
            }
        )
        print(f"S={shots}: max std {max(stds):.4f} (bound 1/(2 sqrt S) = {bound:.4f})")
    outdir = _output_dir(args.out)
    _write_csv(outdir / "shots.csv", list(rows[0]), rows)
    print(f"outputs written to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpattn",
        description="Quantum parameterized attention: verification and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the analytic verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--claim", help="run only claims whose id contains this substring")
    p.add_argument("--out", help="report path (default: <outdir>/verify_report.json)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train one model from a config file")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config value")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="train scorers across seeds and run paired t-tests")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for seed fan-out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("noise-sweep", help="evaluate a trained quantum model under noise")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="dataset/split config matching the training run")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--gammas", default="0,0.02,0.04,0.06,0.08,0.10")
    p.add_argument("--channels", default=",".join(qcore.CHANNELS))
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("shots", help="finite-shot estimator variance study")
    p.add_argument("--shots", default="25,100,400,1600")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--inputs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_shots)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: it holds no state between parses, and building
    # it costs about a millisecond, a fifth of a small `shots` call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input that cannot be read: missing, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
