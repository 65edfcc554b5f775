"""The names that the benchmark harness in ``perfbench/`` binds in dsbu.

``perfbench/tracer.py`` wraps dsbu functions by name and reads what they
take and return: ``RunResult.snapshots``, ``Field.copy``,
``rescaled_snapshot``, ``_record(state, dt)``, ``strang_step(...,
_lin_half=)`` and ``len()`` of the disk trace's snapshot sequence. A change
in dsbu that breaks one of them breaks the benchmark without failing any
other test. These tests run the harness's own code on this checkout and
leave ``perfbench/`` as it is.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import dsbu

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = Path(dsbu.__file__).resolve().parents[1]

# The blowup_concentration.cfg data at n = 64. The grid's default guard
# 0.5/dx would stop the run at its first step, so the guard is set by hand.
COLLAPSE_CFG = """\
mode = evolve
n = 64
box_length = 2.5
amplitude = 8.8
width = 0.225
t_end = 0.05
adaptive = true
sample_interval = 6.25e-5
guard = 40.0
output_dir = {out}
"""

ANALYZE_CFG = """\
mode = analyze
n = 64
box_length = 2.5
snapshot_dir = {snapshots}
trace = disk
t_star = 0.02221
c_opt = 0.26
output_dir = {out}
"""

# One process as perfbench/child.py makes it for a traced repetition: the
# FFT counter before dsbu is imported, the spans after, then the CLI.
TRACED_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install_fft()
from dsbu import cli
tracer.install_spans()
for command, cfg in zip(("evolve", "analyze"), sys.argv[2:]):
    rc = cli.main([command, cfg])
    if rc:
        sys.exit(rc)
print(json.dumps(tracer.report()))
"""

# Part 2 of the selftest, in its order, with the FFT-equivalents each count
# is held to: the dsbu code must not take more than it does now.
SELFTEST_BUDGET = (
    ("fixed-dt strang_step", 5),
    ("diagnostic record", 1.5),
    ("windowed_mass_sup", 1.5),
    ("run, adaptive=False", 16),
    ("run, adaptive=True", 20.5),
)


def child_env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_tracer_runs_evolve_and_analyze(tmp_path):
    evolve_cfg = tmp_path / "evolve.cfg"
    evolve_cfg.write_text(COLLAPSE_CFG.format(out=tmp_path / "run"))
    analyze_cfg = tmp_path / "analyze.cfg"
    analyze_cfg.write_text(ANALYZE_CFG.format(snapshots=tmp_path / "run",
                                              out=tmp_path / "analysis"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(PERFBENCH), str(evolve_cfg), str(analyze_cfg)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["spans"]["cli:evolution.run"]["calls"] == 1
    assert report["values"]["concentration.snapshots"] > 0


def test_selftest_counts_within_budget():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], capture_output=True,
                          text=True, cwd=ROOT, env=child_env())
    assert "Traceback" not in proc.stderr, proc.stderr
    lines = re.findall(r"^(PASS|FAIL)  (.+): counted (\S+), expected \S+$", proc.stdout,
                       re.MULTILINE)
    counter, dsbu_counts = lines[:-len(SELFTEST_BUDGET)], lines[-len(SELFTEST_BUDGET):]
    assert counter and all(verdict == "PASS" for verdict, _, _ in counter), proc.stdout
    for (_, label, counted), (prefix, budget) in zip(dsbu_counts, SELFTEST_BUDGET):
        assert label.startswith(prefix), proc.stdout
        assert float(counted) <= budget, (label, counted)
