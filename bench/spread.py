"""Run the benchmark over several seeds and summarise the run-to-run spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --seeds 1-10 --sets 2 --out bench/baseline/untraced
    python3 bench/spread.py --workloads train-qpa-n17 --seeds 1-5 --out /tmp/probe

Runs ``bench/run.py`` once per (set, workload, seed) with the run length from
BENCHMARK.json. The runs are interleaved so that slow drift of the host's
speed falls on every workload and every set alike: seed by seed, each set in
turn (alternating which set goes first), each set running every workload
(alternating the workload order from seed to seed). Each run's result record is kept in
``--out/set-<k>/``; ``summary.json`` there gives, per set, workload and
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (interquartile distance
as a share of the median) next to the metric's bound, and, with two sets,
how far the second set's median is from the first's in the metric's worse
direction. A spread above a third of its bound, or a set-to-set change
beyond the bound, is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": bound is None or spread < bound / 3,
        "values": values,
    }


def schedule(sets: int, workloads: list[str], seeds: list[int]) -> list[tuple[int, str, int]]:
    """(set, workload, seed) in run order: round-robin with alternating order."""
    order = []
    for i, seed in enumerate(seeds):
        set_order = range(1, sets + 1) if i % 2 == 0 else range(sets, 0, -1)
        for s in set_order:
            names = workloads if (i + s) % 2 == 0 else workloads[::-1]
            order += [(s, w, seed) for w in names]
    return order


def run_one(spec: dict, workload: str, seed: int, trace: int, outdir: Path) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    record = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    if record.is_file():  # kept compact: one line per run
        compact = json.dumps(json.loads(record.read_text(encoding="utf-8")), separators=(",", ":"))
        (outdir / record.name).write_text(compact + "\n", encoding="utf-8")
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall, "result": result}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_spec}
    worse = {m["name"]: 1 if m["better"] == "lower" else -1 for m in metric_spec}
    runs = {(s, w): [] for s in range(1, args.sets + 1) for w in workloads}
    for s in range(1, args.sets + 1):
        (args.out / f"set-{s}").mkdir(parents=True, exist_ok=True)
    for s, workload, seed in schedule(args.sets, workloads, args.seeds):
        run = run_one(spec, workload, seed, args.trace, args.out / f"set-{s}")
        runs[(s, workload)].append(run)
        print(f"set {s} {workload} seed={seed} exit={run['exit']} wall={run['wall_s']:.1f}s", flush=True)

    summary = {"seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds, "sets": {}}
    ok = True
    for (s, workload), wl_runs in runs.items():
        results = [r["result"] for r in wl_runs if r["result"] is not None]
        correct = len(results) == len(wl_runs) and all(r["correct"] for r in results)
        per_metric = {}
        if len(results) >= 2:
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                if statistics.median(values):
                    per_metric[name] = summarise(values, bound)
        summary["sets"].setdefault(str(s), {})[workload] = {
            "runs": [{k: v for k, v in r.items() if k != "result"} for r in wl_runs],
            "all_correct": correct,
            "metrics": per_metric,
        }
        ok = ok and correct and all(m["steady"] for m in per_metric.values())
        print(f"set {s} {workload}: all correct {correct}")
        for name, m in per_metric.items():
            flag = "" if m["steady"] else "  <-- above bound/3"
            bound_text = "n/a" if m["bound"] is None else f"{m['bound']:.2f}"
            print(f"  {name}: median {m['median']:.6g} spread {m['spread']:.3f} (bound {bound_text}){flag}")
    if args.sets >= 2:
        summary["set2_vs_set1"] = {}
        for workload in workloads:
            first, second = (summary["sets"][k][workload]["metrics"] for k in ("1", "2"))
            change = {}
            for name in first.keys() & second.keys():
                ratio = worse[name] * (second[name]["median"] / first[name]["median"] - 1)
                change[name] = {"worse_by": ratio, "bound": bounds[name]}
                within = bounds[name] is None or ratio <= bounds[name]
                ok = ok and within
                print(f"{workload} {name}: set 2 worse than set 1 by {ratio:+.3f}"
                      + ("" if within else "  <-- beyond bound"))
            summary["set2_vs_set1"][workload] = change
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
