"""qpattn benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-qpa-n17 --seed 1 --seconds 20 --trace 0

Workloads are described in ``bench/workloads.py`` and ``bench/README.md``.
With ``--trace 0`` the run repeats whole protocol passes until their summed
time reaches ``--seconds`` and reports the end-to-end metrics. With
``--trace 1`` it runs a fixed number of passes untraced, then as many with
every layer function wrapped by ``bench/spans.py``, and reports the
per-layer metrics and the tracing overhead. Every output of every pass is
checked; a failed check, an exception or a non-finite value counts as a
failure and makes the run exit 1. The last line of standard output is the
result object; a copy with the environment manifest and the raw samples is
written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-qpa-n17", "train-dot-n50", "eval-noise-qpa-n50", "verify-shots")
SETUP_REPEATS = 5
IMPORT_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.op_ms_p50_untraced": "ms",
    "trace.op_ms_p50_traced": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for testing the benchmark")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out", help="result directory")
    return p.parse_args(argv)


def import_package() -> float:
    """Import numpy and qpattn from the checkout's src/; return the seconds it took."""
    src = ROOT / "src"
    if not (src / "qpattn" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'qpattn'} not found; run from a qpattn checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import qpattn.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if not Path(sys.modules["qpattn"].__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit("error: qpattn was imported from outside the checkout")
    return elapsed


# Run in a fresh interpreter by `import_probe`: the same imports as
# `import_package`, timed the same way.
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy, qpattn.cli; print(time.perf_counter() - start)"
)


def import_probe(host) -> tuple[float, float]:
    """Seconds to import numpy and qpattn in a fresh interpreter: (raw, scaled)."""
    host.measure()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    end = time.perf_counter()
    host.measure()
    seconds = float(proc.stdout)
    return seconds, seconds * host.factor(start, end)


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(workload: str, seed: int, configs: list[dict]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    canonical = json.dumps(configs, sort_keys=True, separators=(",", ":"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith(("OMP_", "OPENBLAS_"))
        },
        "git_sha": _git_sha(ROOT),
        "workload": workload,
        "seed": seed,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


class Outcome:
    """Attempted and failed operation counts plus the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record_checks(self, pass_index: int, checks: dict[str, bool]) -> None:
        self.attempted += len(checks)
        self.failures += [f"pass {pass_index}: {name}" for name, ok in checks.items() if not ok]


def run_passes(wl, states, rec, outcome, seconds=None, count=None, pass_context=nullcontext):
    """Run whole protocol passes, cycling through ``states``; return them and their spans.

    Passes run until their summed wall time reaches ``seconds``, or ``count``
    of them have run. Only ``run_pass`` runs inside ``pass_context`` (the
    tracer), so output checks are neither timed nor traced. An exception ends
    the phase and counts as a failure.
    """
    passes, spans = [], []
    while (sum(b - a for a, b in spans) < seconds) if count is None else (len(passes) < count):
        index = len(passes)
        state = states[index % len(states)]
        start = time.perf_counter()
        try:
            with pass_context():
                result = wl.run_pass(state, rec)
        except Exception as exc:  # a failing program is measured, not fatal to the report
            traceback.print_exc(file=sys.stderr)
            outcome.attempted += 1
            outcome.failures.append(f"pass {index}: exception {type(exc).__name__}")
            break
        spans.append((start, time.perf_counter()))
        outcome.record_checks(index, wl.check(state, result))
        passes.append(result)
    outcome.attempted += sum(len(ops) for ops in rec.ops.values())
    return passes, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    # One closed loop on one core. At these matrix sizes a second OpenBLAS
    # thread gains nothing measurable, spins on the other CPU and makes every
    # matmul wait for that CPU.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import_s = import_package()
    import numpy as np

    import hostspeed
    import spans
    from hostspeed import HostSpeed
    from workloads import Recorder, latency, make_workloads, throughput

    wl = make_workloads(args.tiny)[args.workload]
    outdir = args.out / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    traced = tracer.active if tracer else nullcontext

    host = None if tracer else HostSpeed()
    configs = [wl.config(args.seed, r) for r in range(SETUP_REPEATS)]
    setup_spans, states = [], []
    for r, cfg in enumerate(configs):
        start = time.perf_counter()
        with traced():
            states.append(wl.setup(cfg, outdir, str(r)))
        setup_spans.append((start, time.perf_counter()))
    (outdir / "config.json").write_text(json.dumps(configs, indent=1, default=str), encoding="utf-8")

    outcome = Outcome()
    import_samples = [import_s]
    if tracer is None:
        host.measure()
        setup_times = [host.scaled(*span) for span in setup_spans]
        probes = [import_probe(host) for _ in range(IMPORT_PROBES)]
        rec = Recorder(host)
        passes, pass_spans = run_passes(wl, states, rec, outcome, seconds=args.seconds)
        host.measure()
        units, metrics, details = dict(END_TO_END_UNITS), {}, {}
        if passes:
            lat = latency(rec, wl.latency_kind, wl.tail_q)
            metrics = {
                "setup_s": statistics.median(p for _, p in probes) + statistics.median(setup_times),
                "items_per_s": throughput(rec, wl.throughput_kind),
                "op_ms_p50": lat["p50_ms"],
                "op_ms_tail": lat["tail_ms"],
                "pass_s": statistics.median(host.scaled(*span) for span in pass_spans),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            details = wl.details(rec, passes)
            raw = Recorder()
            raw.ops = rec.ops
            raw_lat = latency(raw, wl.latency_kind, wl.tail_q)
            import_samples += [seconds for seconds, _ in probes]
            details.update(
                {
                    "raw.setup_s": (
                        statistics.median(import_samples) + statistics.median(b - a for a, b in setup_spans),
                        "s", f"unscaled, median of {len(import_samples)} imports",
                    ),
                    "raw.items_per_s": (throughput(raw, wl.throughput_kind), "1/s", "unscaled"),
                    "raw.op_ms_p50": (raw_lat["p50_ms"], "ms", "unscaled"),
                    "raw.op_ms_tail": (raw_lat["tail_ms"], "ms", "unscaled"),
                    "raw.pass_s": (statistics.median(b - a for a, b in pass_spans), "s", "unscaled"),
                    "host.kernel_ms_p50": (
                        statistics.median(host.kernel_s()) * 1e3, "ms",
                        f"n={len(host.kernel_s())}, {hostspeed.REFERENCE_S * 1e3:g} ms at reference speed",
                    ),
                    "passes": (len(passes), "count", f"{sum(b - a for a, b in pass_spans):.2f} s of wall time"),
                }
            )
        samples = {kind: rec.durations(kind) for kind in rec.ops}
        samples["raw"] = {kind: [b - a for a, b, _ in ops] for kind, ops in rec.ops.items()}
        samples["host_kernel"] = host.kernel_s()
    else:
        setup_times = [b - a for a, b in setup_spans]
        untraced = Recorder()
        run_passes(wl, states, untraced, outcome, count=wl.trace_passes)
        with_trace = Recorder()
        passes, _ = run_passes(wl, states, with_trace, outcome, count=wl.trace_passes, pass_context=traced)
        units, metrics, details, samples = dict(spans.layer_metric_names()), {}, {}, {}
        units.update(TRACE_UNITS)
        if len(passes) == wl.trace_passes:
            base = latency(untraced, wl.latency_kind, wl.tail_q)["p50_ms"]
            traced_ms = latency(with_trace, wl.latency_kind, wl.tail_q)["p50_ms"]
            metrics = tracer.layer_metrics()
            metrics.update(
                {
                    "trace.op_ms_p50_untraced": base,
                    "trace.op_ms_p50_traced": traced_ms,
                    "trace.overhead_ms": traced_ms - base,
                }
            )
        tracer.write_spans(outdir / f"spans-seed{args.seed}.json")

    failed = len(outcome.failures)
    details["error_rate"] = (failed / max(outcome.attempted, 1), "ratio", f"{failed} of {outcome.attempted}")
    correct = failed == 0 and bool(metrics) and all(np.isfinite(v) for v in metrics.values())

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit, note) in details.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    for failure in outcome.failures:
        print(f"FAILED {failure}")

    result = {
        "correct": bool(correct),
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    record = {
        **result,
        "manifest": manifest(args.workload, args.seed, configs),
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "tail_percentile": wl.tail_q,
        "details": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in details.items()},
        "failures": outcome.failures,
        "setup_times_s": setup_times,
        "import_samples_s": import_samples,
        "samples_s": samples,
    }
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
