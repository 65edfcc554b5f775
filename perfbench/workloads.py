"""Seeded workload generator: turns the shipped configs into the configs a run uses.

Seed 0 keeps the shipped initial data exactly; any other seed scales the
initial Gaussian's amplitude and width by independent factors drawn
uniformly from [0.99, 1.01]. The ground-state solver's initial Gaussian has
a fixed unit width, so there only the amplitude is jittered. Run length,
grid size and output directories are workload settings, not data.

Every workload is a list of ``dsbu`` CLI commands; the program sees only
the config files written here.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("fixed-512", "collapse-256", "profile-analyze")

JITTER = 0.01

#: t_star handed to analyze: at n = 256 the guard fires before the 10x
#: gradient growth that estimate_t_star needs, so the trace takes the value
#: estimated on the n = 512 run of the same data.
ANALYZE_T_STAR = 0.02221


def read_shipped(path: str) -> list[tuple[str, str]]:
    """Key/value pairs of a shipped config, in file order, comments dropped."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                pairs.append((key.strip(), value.strip()))
    return pairs


def jitter_factors(seed: int) -> tuple[float, float]:
    """(amplitude, width) scale factors; exactly (1, 1) for seed 0."""
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    return 1.0 + JITTER * rng.uniform(-1, 1), 1.0 + JITTER * rng.uniform(-1, 1)


def render(pairs: list[tuple[str, str]], overrides: dict[str, str]) -> str:
    out = dict(pairs)
    out.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in out.items())


def _evolve_cfg(configs: str, name: str, seed: int, overrides: dict[str, str]) -> str:
    pairs = read_shipped(os.path.join(configs, name))
    data = dict(pairs)
    amp, width = jitter_factors(seed)
    # For seed 0 the factors are 1.0 and repr() gives back the shipped text.
    return render(pairs, dict(overrides,
                              amplitude=repr(float(data["amplitude"]) * amp),
                              width=repr(float(data["width"]) * width)))


def fixed_512_cfg(configs: str, seed: int) -> str:
    # conservation.cfg data at n = 512: fixed dt = 1e-3 from the shipped
    # config, 50 steps, a record and snapshot every 25 steps.
    return _evolve_cfg(configs, "conservation.cfg", seed, {
        "n": "512", "t_end": "0.05", "sample_interval": "0.025", "output_dir": "out",
    })


def collapse_256_cfg(configs: str, seed: int) -> str:
    # blowup_concentration.cfg data at n = 256. The guard fires near
    # t = 0.02; t_end = 0.05 only caps a run that would fail to collapse.
    return _evolve_cfg(configs, "blowup_concentration.cfg", seed, {
        "n": "256", "t_end": "0.05", "output_dir": "out",
    })


def ground_state_cfg(configs: str, seed: int) -> str:
    pairs = read_shipped(os.path.join(configs, "ground_state.cfg"))
    overrides = {"output_dir": "out"}
    if seed != 0:
        overrides["init_amplitude"] = repr(2.0 * jitter_factors(seed)[0])
    return render(pairs, overrides)


def analyze_cfg(snapshot_dir: str, c_opt: str) -> str:
    return render([], {
        "mode": "analyze", "n": "256", "box_length": "2.5",
        "snapshot_dir": snapshot_dir, "trace": "disk", "epsilon": "0.1",
        "t_star": repr(ANALYZE_T_STAR), "c_opt": c_opt, "output_dir": "out",
    })


def write_configs(configs: str, workload: str, seed: int, work: str) -> dict[str, str]:
    """Write the workload's seeded configs under ``work``; return name -> path.

    The output_dir in every config is a placeholder: each command of a
    repetition gets its own directory through DSBU_OUTPUT_DIR.
    """
    texts = {}
    if workload == "fixed-512":
        texts["evolve"] = fixed_512_cfg(configs, seed)
    elif workload == "collapse-256":
        texts["evolve"] = collapse_256_cfg(configs, seed)
    elif workload == "profile-analyze":
        # analyze reads seed-0 collapse snapshots, made once per checkout, so
        # its input and work do not vary with the seed.
        texts["evolve"] = collapse_256_cfg(configs, 0)
        texts["ground-state"] = ground_state_cfg(configs, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for name, text in texts.items():
        path = os.path.join(work, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths
