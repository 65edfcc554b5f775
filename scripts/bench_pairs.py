"""Alternating benchmark pairs of two checkouts, summarised per end-to-end metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S \\
        --pairs N --seconds T --out FILE

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, the parent first on odd pairs (1, 3, ...)
and the change first on even ones. The result line of each run (the last
line of its stdout) gives the end-to-end metrics that ``BENCHMARK.json`` at
the root of this repository lists. One entry is appended to the JSON list in
FILE (made if missing): per metric, each side's median and quartiles and the
pairs the change wins (better in the metric's direction) and ties; the
failed repetitions and failed runs of each side; each side's ``src/`` hash
and line count from its provenance line; nproc and the load average before
and after; and every run's values. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (BENCHMARK.json's ``end_to_end`` entries): each side's
    spread and the change's wins and ties, over the pairs where both runs report it.

    ``runs[side][i]`` is pair i's run on that side: its ``metrics``, name to value, or
    None for a run that gave no result line, and its ``failed`` repetition count."""
    out = {"failed": {}, "failed_runs": {}, "metrics": {}}
    for side in SIDES:
        out["failed"][side] = sum(r["failed"] or 0 for r in runs[side])
        out["failed_runs"][side] = sum(r["metrics"] is None for r in runs[side])
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if p["metrics"] and c["metrics"] and name in p["metrics"]
                 and name in c["metrics"]]
        entry = {"better": metric["better"], "bound": metric["bound"], "pairs": len(pairs)}
        if len(pairs) >= 2:
            entry.update({side: spread(list(values)) for side, values in zip(SIDES, zip(*pairs))})
        entry["wins"] = sum((c < p) if lower else (c > p) for p, c in pairs)
        entry["ties"] = sum(c == p for p, c in pairs)
        out["metrics"][name] = entry
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its result and provenance."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), {})
    metrics = result.get("metrics")
    if metrics is not None:
        metrics = {name: m["value"] for name, m in metrics.items()}
    return {"metrics": metrics, "failed": result.get("failed"),
            "attempted": result.get("attempted"), "exit_code": proc.returncode,
            "src": {k: prov.get(k) for k in ("src_sha256", "src_lines")}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    load_before = os.getloadavg()
    runs = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        for side in SIDES if i % 2 else SIDES[::-1]:
            run = run_once(dirs[side], args.workload, args.seed, args.seconds)
            runs[side].append(run)
            wall = (run["metrics"] or {}).get("wall_s")
            print(f"pair {i} {side}: wall_s {wall}", flush=True)
    entry = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "checkouts": {side: {"dir": dirs[side].name, **runs[side][0]["src"]} for side in SIDES},
        **summarize(runs, metrics),
        "runs": {side: [{k: r[k] for k in ("metrics", "failed", "attempted", "exit_code")}
                        for r in runs[side]] for side in SIDES},
    }
    done = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps(done + [entry], indent=1) + "\n")
    for name, m in entry["metrics"].items():
        if "parent" in m:
            print(f"{name}: parent {m['parent']['median']:.4g}, change "
                  f"{m['change']['median']:.4g}, change wins {m['wins']} of {m['pairs']}")


if __name__ == "__main__":
    main()
