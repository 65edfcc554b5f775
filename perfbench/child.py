"""One fresh process of the benchmark: a set-up or a repetition.

    child.py setup <configs dir> <workload> <seed> <work dir>
        import dsbu, write the seeded configs and parse them back
    child.py rep <work dir> <out dir> <trace 0|1> <result.json> <snapshot dir> <command>...
        run the dsbu CLI commands on the configs in <work dir>; analyze reads
        the snapshots in <snapshot dir>

run.py starts it with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from tracer import Tracer
from workloads import analyze_cfg, write_configs


def setup(configs: str, workload: str, seed: int, work: str) -> None:
    from dsbu import cli  # noqa: F401  (the program's own start-up cost)
    from dsbu.config import parse_config

    for path in write_configs(configs, workload, seed, work).values():
        with open(path, "r", encoding="utf-8") as fh:
            parse_config(fh.read())


def _c_opt(report_path: str) -> str:
    with open(report_path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip() == "c_opt":
                return value.strip()
    raise RuntimeError(f"{report_path}: no c_opt line")


def repetition(work: str, out: str, trace: bool, snapshots: str,
               commands: list[str]) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install_fft()
    from dsbu import cli

    if tracer:
        tracer.install_spans()
    result: dict = {"cmd_s": {}, "rc": {}, "stdout": {}}
    for cmd in commands:
        cfg = os.path.join(work, f"{cmd}.cfg")
        if cmd == "analyze":
            c_opt = _c_opt(os.path.join(out, "ground-state", "ground_state_report.txt"))
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(analyze_cfg(snapshots, c_opt))
        cmd_out = os.path.join(out, cmd)
        os.environ["DSBU_OUTPUT_DIR"] = cmd_out
        main = tracer.span(f"cli.{cmd}", cli.main) if tracer else cli.main
        text = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(text):
            rc = main([cmd, cfg])
        result["cmd_s"][cmd] = time.perf_counter() - t0
        result["rc"][cmd] = rc
        result["stdout"][cmd] = text.getvalue()
        if rc != 0:
            break
    if tracer:
        result["trace"] = tracer.report()
    return result


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "setup":
        configs, workload, seed, work = rest
        setup(configs, workload, int(seed), work)
        return 0
    work, out, trace, result_path, snapshots, *commands = rest
    result = repetition(work, out, trace == "1", snapshots, commands)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
