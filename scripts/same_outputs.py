"""List the output files whose bytes differ between two checkouts on one benchmark workload.

    python3 scripts/same_outputs.py PARENT_DIR CHANGE_DIR --workload W --seed S

In each checkout it writes the workload's seeded configs, from that
checkout's ``configs/``, with ``write_configs`` of ``perfbench/workloads.py``
(imported, not changed), and runs the workload's ``dsbu`` commands as
``python3 -m dsbu.cli`` with that checkout's ``src/`` first on PYTHONPATH:
``evolve`` for fixed-512 and collapse-256; ``evolve`` (the seed-0 collapse
data), ``ground-state`` and then ``analyze`` of those snapshots with the
solved c_opt for profile-analyze, and once more with the analyze config's
``trace = disk`` switched to ``trace = square`` (step ``analyze-square``),
the trace that no workload runs. Each step writes into a directory of its
own name, and its stdout is kept as ``<step>/stdout``; every path is
relative, so the two sides' outputs can be equal byte for byte. Then it
prints each output file that differs or exists on one side only, and the
number of files compared. Exit status: 0 when every file is the same, 1 on
any difference, 2 when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMANDS = {
    "fixed-512": ["evolve"],
    "collapse-256": ["evolve"],
    "profile-analyze": ["evolve", "ground-state", "analyze", "analyze-square"],
}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differences(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per output path whose digest differs between the sides or that one side
    lacks, in path order; ``parent`` and ``change`` map relative path to digest."""
    lines = []
    for path in sorted(parent.keys() | change.keys()):
        if path not in change:
            lines.append(f"only in parent: {path}")
        elif path not in parent:
            lines.append(f"only in change: {path}")
        elif parent[path] != change[path]:
            lines.append(f"differs: {path}")
    return lines


def digests(top: Path) -> dict[str, str]:
    """The sha256 of every file under ``top``, by its path relative to ``top``."""
    return {str(path.relative_to(top)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(top.rglob("*")) if path.is_file()}


def _c_opt(report: Path) -> str:
    for line in report.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "c_opt":
            return value.strip()
    raise RuntimeError(f"{report}: no c_opt line")


def run_side(checkout: Path, work: Path, workload: str, seed: int) -> Path:
    """Run the workload's steps with ``checkout`` in ``work``; returns the outputs' directory."""
    workloads = _workloads()
    configs = work / "configs"
    configs.mkdir(parents=True)
    paths = workloads.write_configs(str(checkout / "configs"), workload, seed, str(configs))
    out = work / "out"
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    for step in COMMANDS[workload]:
        command = "analyze" if step.startswith("analyze") else step
        if command == "analyze":
            text = workloads.analyze_cfg(
                "evolve", _c_opt(out / "ground-state" / "ground_state_report.txt"))
            if step == "analyze-square":
                if "trace = disk\n" not in text:
                    raise RuntimeError("the analyze config has no 'trace = disk' line")
                text = text.replace("trace = disk\n", "trace = square\n")
            paths[step] = str(configs / f"{step}.cfg")
            Path(paths[step]).write_text(text)
        env["DSBU_OUTPUT_DIR"] = step
        proc = subprocess.run([sys.executable, "-m", "dsbu.cli", command, paths[step]],
                              cwd=out, env=env, capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"{checkout}: dsbu {step} exited {proc.returncode}")
        (out / step / "stdout").write_bytes(proc.stdout)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        sums = {}
        for side in SIDES:
            checkout = getattr(args, side).resolve()
            try:
                sums[side] = digests(run_side(checkout, Path(tmp) / side, args.workload,
                                              args.seed))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
    lines = differences(sums["parent"], sums["change"])
    for line in lines:
        print(line)
    print(f"{args.workload} seed {args.seed}: {len(sums['parent'] | sums['change'])} files, "
          f"{len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
