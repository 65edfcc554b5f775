"""dsbu benchmark: timed CLI workloads with output checks and a traced variant.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/dsbu and configs/ present).
Every repetition runs the workload's dsbu CLI commands in one fresh process
on configs generated from the seed (see workloads.py); repetitions repeat
until S seconds have been measured, at least once. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
The lines above it give provenance and a readable table, which also names
the per-command times and failed_frac. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

COMMANDS = {
    "fixed-512": ["evolve"],
    "collapse-256": ["evolve"],
    "profile-analyze": ["ground-state", "analyze"],
}
# profile-analyze evolves only to make its collapse snapshots.
EXPECTED_STOP = {"fixed-512": "t_end", "collapse-256": "grad_guard",
                 "profile-analyze": "grad_guard"}

SETUP_REPEATS = 5
#: Both Strang substeps are unimodular, so mass drifts only by roundoff.
MASS_DRIFT_TOL = 1e-11
#: c_opt of configs/ground_state.cfg; the solver converges to it from any
#: jittered initial amplitude.
C_OPT_REF = 0.25998125778102438
C_OPT_RTOL = 1e-9
#: Every run must end within this many seconds of its start.
DEADLINE_S = 170.0

RECORD_COLUMNS = "t,mass,energy,grad_sq,second_moment,moment_valid,sup_abs,l4_accum,dt"
ANALYSIS_COLUMNS = "t,lambda,best_mass,yx,yy,rho,rescaled_energy,rescaled_quartic"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "spectral.fft_equiv": "count",
    "spectral.fft_s": "s",
    "spectral.fft2_floor_ms.n256": "ms",
    "spectral.fft2_floor_ms.n512": "ms",
    "spectral.grids_built": "count",
    "evolution.steps": "count",
    "evolution.step_ms": "ms",
    "evolution.fft_per_step": "count",
    "evolution.records": "count",
    "evolution.record_ms": "ms",
    "evolution.record_fft": "count",
    "evolution.snapshot_mb_held": "MiB",
    "ground_state.iterations": "count",
    "ground_state.iter_ms": "ms",
    "ground_state.fft_per_iter": "count",
    "concentration.windowed_mass_calls": "count",
    "concentration.windowed_mass_ms": "ms",
    "concentration.windowed_mass_fft": "count",
    "concentration.functional_ms": "ms",
    "concentration.rescaled_per_snapshot": "count",
    "snapshot_io.write_s": "s",
    "snapshot_io.write_mbps": "MB/s",
    "snapshot_io.read_s": "s",
    "snapshot_io.read_mbps": "MB/s",
    "cli.self_s": "s",
    "cli.evolve_s": "s",
    "cli.ground_state_s": "s",
    "cli.analyze_s": "s",
    "trace.overhead_frac": "ratio",
}


class Run:
    """One benchmark invocation: paths, deadline and the child-process runner."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.configs = os.path.join(root, "configs")
        self.state = os.path.join(root, ".perfbench_work")
        self.work = os.path.join(self.state, f"{workload}-{seed}-{os.getpid()}")
        self.deadline = time.monotonic() + DEADLINE_S
        self.code_hash = tree_hash(self.src)

    def spawn(self, argv: list[str], log: str) -> tuple[float, int, float, float]:
        """Run child.py in a fresh interpreter: (wall s, exit code, peak RSS MiB, CPU s)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *argv], cwd=self.root,
                                    env=env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    def setup(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            wall, rc, _, _ = self.spawn(
                ["setup", self.configs, self.workload, str(self.seed), self.work],
                os.path.join(self.work, "setup.log"))
            if rc != 0:
                raise BenchError(f"set-up failed (exit {rc})", self.work, "setup.log")
            times.append(wall)
        return times

    def prepared_snapshots(self) -> tuple[dict | None, str]:
        """The seed-0 collapse-256 snapshots that analyze reads, made once per checkout.

        Returns (the repetition that made them, or None if they were cached;
        their directory). The cache is keyed by the src/ tree and the config.
        """
        with open(os.path.join(self.work, "evolve.cfg"), "rb") as fh:
            key = hashlib.sha256(self.code_hash.encode() + fh.read()).hexdigest()[:16]
        cached = os.path.join(self.state, f"snapshots-{key}")
        if os.path.isdir(cached):
            return None, cached
        out = os.path.join(self.work, "prep")
        prep = self._repetition("prep", ["evolve"], False, "-", out)
        if not prep["problems"]:
            os.replace(os.path.join(out, "evolve"), cached)
        shutil.rmtree(out, ignore_errors=True)
        return prep, cached

    def repetition(self, label: str, commands: list[str], trace: bool,
                   snapshots: str) -> dict:
        """Run one repetition into <work>/<label>, check its outputs, then drop them."""
        out = os.path.join(self.work, label)
        try:
            return self._repetition(label, commands, trace, snapshots, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _repetition(self, label: str, commands: list[str], trace: bool, snapshots: str,
                    out: str) -> dict:
        result_path = os.path.join(self.work, f"{label}.json")
        wall, rc, rss, cpu = self.spawn(
            ["rep", self.work, out, "1" if trace else "0", result_path, snapshots, *commands],
            os.path.join(self.work, f"{label}.log"))
        rep = {"label": label, "wall_s": wall, "cpu_s": cpu,
               "peak_rss_mb": rss, "problems": []}
        if rc != 0 or not os.path.exists(result_path):
            rep["problems"].append(f"exit code {rc}, see {label}.log")
            return rep
        with open(result_path, "r", encoding="utf-8") as fh:
            rep.update(json.load(fh))
        for cmd in commands:
            if rep["rc"].get(cmd) != 0:
                rep["problems"].append(f"dsbu {cmd} exited {rep['rc'].get(cmd)}")
                return rep
        rep["problems"] += self.check(commands, out, rep["stdout"])
        return rep

    # -- output checks -----------------------------------------------------
    def check(self, commands: list[str], out: str, stdout: dict[str, str]) -> list[str]:
        problems = []
        if "evolve" in commands:
            problems += check_evolve(os.path.join(out, "evolve"), stdout["evolve"],
                                     EXPECTED_STOP[self.workload])
            files = [os.path.join(out, "evolve", "records.csv")] + snapshot_files(
                os.path.join(out, "evolve"))
            problems += self.check_identical(["evolve"], files)
        if "ground-state" in commands:
            problems += check_ground_state(os.path.join(out, "ground-state"))
            problems += check_analysis(os.path.join(out, "analyze"))
            files = [os.path.join(out, "ground-state", "ground_state.dsbu"),
                     os.path.join(out, "analyze", "analysis.csv"),
                     os.path.join(out, "analyze", "analysis_summary.txt")]
            problems += self.check_identical(["evolve", "ground-state"], files)
        return problems

    def check_identical(self, inputs: list[str], files: list[str]) -> list[str]:
        """Outputs must be byte-identical to every earlier run of the same code and configs.

        Digests persist across runs in the checkout, keyed by the src/ tree and
        the config texts, so repetitions in different runs are compared too.
        """
        key = hashlib.sha256(self.code_hash.encode())
        for name in inputs:
            with open(os.path.join(self.work, f"{name}.cfg"), "rb") as fh:
                key.update(fh.read())
        digest = hashlib.sha256()
        for path in files:
            digest.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
        store_path = os.path.join(self.state, "digests.json")
        store = {}
        if os.path.exists(store_path):
            with open(store_path, "r", encoding="utf-8") as fh:
                store = json.load(fh)
        known = store.setdefault(key.hexdigest(), digest.hexdigest())
        if known != digest.hexdigest():
            return [f"outputs differ from an earlier run of the same code ({inputs})"]
        tmp = f"{store_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh)
        os.replace(tmp, store_path)
        return []


class BenchError(RuntimeError):
    def __init__(self, message: str, work: str, log: str):
        super().__init__(message)
        self.log = os.path.join(work, log)


def tree_hash(top: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def snapshot_files(directory: str) -> list[str]:
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))
            if f.startswith("snap_") and f.endswith(".dsbu")]


def summary_values(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a dsbu report."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = value.strip()
    return values


def check_evolve(directory: str, stdout: str, expected_stop: str) -> list[str]:
    problems = []
    stop = summary_values(stdout).get("stop_reason")
    if stop != expected_stop:
        problems.append(f"stop_reason {stop!r}, expected {expected_stop!r}")
    with open(os.path.join(directory, "records.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORD_COLUMNS or len(lines) < 3:
        return problems + ["records.csv has no records"]
    masses = [float(line.split(",")[1]) for line in lines[1:]]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    if not drift <= MASS_DRIFT_TOL:
        problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_TOL:.0e}")
    if not snapshot_files(directory):
        problems.append("no snapshots written")
    return problems


def check_ground_state(directory: str) -> list[str]:
    report = summary_values(_read(os.path.join(directory, "ground_state_report.txt")) or "")
    config = summary_values(_read(os.path.join(directory, "run_config.txt")) or "")
    problems = []
    residual, tol = float(report["residual"]), float(config["tol"])
    if not residual < tol:
        problems.append(f"ground-state residual {residual:.3e} >= tol {tol:.0e}")
    c_opt = float(report["c_opt"])
    if not abs(c_opt - C_OPT_REF) <= C_OPT_RTOL * C_OPT_REF:
        problems.append(f"c_opt {c_opt!r} differs from reference {C_OPT_REF!r}")
    return problems


def check_analysis(directory: str) -> list[str]:
    with open(os.path.join(directory, "analysis.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ANALYSIS_COLUMNS or len(lines) < 2:
        return ["analysis.csv has no records"]
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        if any(v != v for v in values):
            return [f"analysis.csv has a nan: {line}"]
    return []


# -- metrics ---------------------------------------------------------------
def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rep: dict, commands: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (0 where the layer did not run)."""
    trace = rep["trace"]
    values = trace["values"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fft": 0.0}

    def span(key: str) -> dict:
        return trace["spans"].get(key, empty)

    run = span("cli:evolution.run")
    record = span("evolution:evolution._record")
    copies = span("evolution:spectral.Field.copy")
    steps = values.get("evolution.steps", 0)
    solve = span("cli:ground_state.solve_ground_state")
    iterations = values.get("ground_state.iterations", 0)
    windowed = span("concentration:concentration.windowed_mass_sup")
    rescaled = span("concentration:concentration.rescaled_snapshot")
    functional_s = rescaled["total_s"] + sum(
        span(f"concentration:spectral.{name}")["total_s"] for name in ("quartic_term", "energy"))
    analysed = values.get("concentration.snapshots", 0)
    write = span("cli:snapshot_io.write_snapshot")
    read = span("cli:snapshot_io.read_snapshot")
    cmd_s = rep["cmd_s"]
    return {
        "spectral.fft_equiv": trace["fft_equiv"],
        "spectral.fft_s": trace["fft_s"],
        "spectral.grids_built": trace["grids_built"],
        "evolution.steps": steps,
        "evolution.step_ms": 1e3 * _ratio(
            run["total_s"] - record["total_s"] - copies["total_s"], steps),
        "evolution.fft_per_step": _ratio(run["fft"] - record["fft"], steps),
        "evolution.records": record["calls"],
        "evolution.record_ms": 1e3 * _ratio(record["total_s"], record["calls"]),
        "evolution.record_fft": _ratio(record["fft"], record["calls"]),
        "evolution.snapshot_mb_held": values.get("evolution.snapshot_bytes_held", 0) / 2**20,
        "ground_state.iterations": iterations,
        "ground_state.iter_ms": 1e3 * _ratio(solve["total_s"], iterations),
        "ground_state.fft_per_iter": _ratio(solve["fft"], iterations),
        "concentration.windowed_mass_calls": windowed["calls"],
        "concentration.windowed_mass_ms": 1e3 * _ratio(windowed["total_s"], windowed["calls"]),
        "concentration.windowed_mass_fft": _ratio(windowed["fft"], windowed["calls"]),
        "concentration.functional_ms": 1e3 * _ratio(functional_s, analysed),
        "concentration.rescaled_per_snapshot": _ratio(rescaled["calls"], analysed),
        "snapshot_io.write_s": write["total_s"],
        "snapshot_io.write_mbps": 1e-6 * _ratio(values.get("snapshot_io.write_bytes", 0),
                                                write["total_s"]),
        "snapshot_io.read_s": read["total_s"],
        "snapshot_io.read_mbps": 1e-6 * _ratio(values.get("snapshot_io.read_bytes", 0),
                                               read["total_s"]),
        "cli.self_s": sum(span(f"cli.{cmd}")["self_s"] for cmd in commands),
        "cli.evolve_s": cmd_s.get("evolve", 0.0),
        "cli.ground_state_s": cmd_s.get("ground-state", 0.0),
        "cli.analyze_s": cmd_s.get("analyze", 0.0),
    }


def fft2_floor_ms(n: int, calls: int = 15) -> float:
    """Median time of one bare complex numpy fft2 of an n x n array."""
    import numpy as np

    a = np.random.default_rng(n).standard_normal((n, n)) * (1 + 1j)
    np.fft.fft2(a)
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        np.fft.fft2(a)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


# -- provenance ------------------------------------------------------------
def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(run: Run) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            level = _read(os.path.join(cache_dir, index, "level"))
            kind = _read(os.path.join(cache_dir, index, "type"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = _read(os.path.join(cache_dir, index, "size"))
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(run.root))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.root, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    src_lines = 0
    for dirpath, _, filenames in os.walk(run.src):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": run.workload,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        **versions,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "git_sha": sha or None,
        "src_sha256": run.code_hash,
        "src_lines": src_lines,
    }


# -- entry point -----------------------------------------------------------
def measure(run: Run, seconds: float, trace: bool) -> tuple[list[dict], dict]:
    """Set up, then run repetitions for about ``seconds``; return (repetitions, extras).

    A further repetition starts only if it would end less than half a
    repetition past ``seconds``, so the measured time stays near ``seconds``.
    """
    commands = COMMANDS[run.workload]
    extras = {"setup_s": statistics.median(run.setup())}
    snapshots = "-"
    if run.workload == "profile-analyze":
        t0 = time.perf_counter()
        prep, snapshots = run.prepared_snapshots()
        extras["prep_s"] = time.perf_counter() - t0
        if prep is not None and prep["problems"]:
            return [prep], extras
    reps = []
    if trace:
        # Untraced baseline for the tracing overhead.
        reps.append(run.repetition("rep0", commands, False, snapshots))
    start = time.perf_counter()
    measured = 0
    while True:
        rep = run.repetition(f"rep{len(reps)}", commands, trace, snapshots)
        reps.append(rep)
        measured += 1
        elapsed = time.perf_counter() - start
        if rep["problems"] or elapsed * (1 + 0.5 / measured) >= seconds:
            break
    if trace:
        extras["fft2_floor_ms"] = {n: fft2_floor_ms(n) for n in (256, 512)}
    return reps, extras


def result_metrics(reps: list[dict], extras: dict, trace: bool,
                   commands: list[str]) -> dict[str, float]:
    good = [r for r in reps if not r["problems"]] or reps
    if not trace:
        return {
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "setup_s": extras["setup_s"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    traced = [r for r in good if "trace" in r]
    if not traced:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    per_rep = [layer_metrics(r, commands) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["spectral.fft2_floor_ms.n256"] = extras["fft2_floor_ms"][256]
    metrics["spectral.fft2_floor_ms.n512"] = extras["fft2_floor_ms"][512]
    untraced = [r["wall_s"] for r in good if "trace" not in r]
    metrics["trace.overhead_frac"] = _ratio(
        statistics.median(r["wall_s"] for r in traced),
        statistics.median(untraced) if untraced else 0.0)
    return metrics


def print_table(reps: list[dict], extras: dict, metrics: dict, units: dict) -> None:
    for rep in reps:
        cmds = ", ".join(f"{c}_s {t:.3f}" for c, t in rep.get("cmd_s", {}).items())
        steps = summary_values(rep.get("stdout", {}).get("evolve", "")).get("steps")
        if steps:
            cmds += f", steps {steps}"
        status = "ok" if not rep["problems"] else "FAILED: " + "; ".join(rep["problems"])
        kind = "traced" if "trace" in rep else "untraced"
        print(f"{rep['label']} ({kind}): wall_s {rep['wall_s']:.3f}, "
              f"cpu_s {rep['cpu_s']:.3f}, {cmds}, "
              f"peak_rss_mb {rep['peak_rss_mb']:.1f} -- {status}")
    traced = [r for r in reps if "trace" in r]
    if traced:
        spans = traced[-1]["trace"]["spans"]
        for key, span in sorted(spans.items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"span {key} ({traced[-1]['label']}): calls {span['calls']}, "
                  f"total_s {span['total_s']:.4f}, self_s {span['self_s']:.4f}, "
                  f"fft {span['fft']:g}")
    good = [r for r in reps if not r["problems"] and "trace" not in r and "cmd_s" in r]
    for cmd in sorted({c for r in good for c in r["cmd_s"]}):
        value = statistics.median(r["cmd_s"][cmd] for r in good)
        print(f"{cmd.replace('-', '_')}_s = {value:.6f} s (median, untraced)")
    if "prep_s" in extras:
        print(f"prep_s = {extras['prep_s']:.3f} s (seed-0 collapse-256 snapshots for "
              "analyze, made once per checkout; not a metric)")
    failed = sum(1 for r in reps if r["problems"])
    print(f"failed_frac = {failed / len(reps):.6g} ({failed} of {len(reps)})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/dsbu/cli.py", "configs/conservation.cfg",
                   "configs/blowup_concentration.cfg", "configs/ground_state.cfg"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the root of a dsbu checkout",
                  file=sys.stderr)
            return 2

    run = Run(root, args.workload, args.seed)
    os.makedirs(run.work)
    try:
        print("provenance " + json.dumps(provenance(run), sort_keys=True))
        try:
            reps, extras = measure(run, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}; log follows", file=sys.stderr)
            print(_read(exc.log) or "", file=sys.stderr)
            return 1
        for rep in reps:
            if rep["problems"]:
                log = _read(os.path.join(run.work, f"{rep['label']}.log"))
                if log:
                    print(log[-4000:], file=sys.stderr)
        commands = COMMANDS[run.workload]
        metrics = result_metrics(reps, extras, bool(args.trace), commands)
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        print_table(reps, extras, metrics, units)
        failed = sum(1 for r in reps if r["problems"])
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
