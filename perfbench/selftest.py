"""Self-test of the FFT counter in tracer.py.

    python3 perfbench/selftest.py        (from the root of a dsbu checkout)

Part 1 checks the counter against numpy.fft and scipy.fft calls whose
weight is known by definition. Part 2 checks it against hand counts of the
dsbu code at the commit that defined this benchmark: 6 FFTs per fixed-dt
``strang_step``, 2 per adaptive dt choice, 3 per diagnostic record and 3 per
``windowed_mass_sup``. A change that removes FFTs from those paths changes
part 2 by design; part 1 must always pass. Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys

from tracer import Tracer

TRACER = Tracer()
TRACER.install_fft()  # before numpy.fft / scipy.fft names are bound below

import numpy as np  # noqa: E402
from scipy.fft import irfft2, rfft2  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from dsbu import concentration, evolution  # noqa: E402
from dsbu.spectral import PHYSICAL, Field, Grid2D, OperatorParams  # noqa: E402

failures = 0


def check(label: str, got: float, expected: float) -> None:
    global failures
    failures += got != expected
    print(f"{'PASS' if got == expected else 'FAIL'}  {label}: counted {got:g}, "
          f"expected {expected:g}")


def expect(label: str, fn, expected: float) -> None:
    before = TRACER.fft_equiv
    fn()
    check(label, TRACER.fft_equiv - before, expected)


def counter_checks() -> None:
    a = np.random.default_rng(0).standard_normal((32, 32))
    expect("numpy fft2", lambda: np.fft.fft2(a), 1)
    expect("numpy ifft2", lambda: np.fft.ifft2(a), 1)
    expect("numpy rfft2 (real counts half)", lambda: np.fft.rfft2(a), 0.5)
    expect("numpy fft along one axis", lambda: np.fft.fft(a, axis=0), 0.5)
    expect("numpy fftn over a batch of 3 planes",
           lambda: np.fft.fftn(np.zeros((3, 32, 32)), axes=(1, 2)), 3)
    expect("scipy rfft2 bound after install", lambda: rfft2(a), 0.5)
    expect("scipy irfft2 bound after install", lambda: irfft2(rfft2(a), s=a.shape), 1)


def dsbu_hand_counts() -> None:
    grid = Grid2D(64, 20.0)
    x1, x2 = grid.coords()
    params = OperatorParams(1, 1.0)
    u = Field(grid, np.exp(-(x1**2 + x2**2) / 2), PHYSICAL)
    state = evolution.SimulationState.initial(u, params)
    dt = 1e-3
    lin_half = np.exp(-1j * grid.ksq * (dt / 2))
    expect("fixed-dt strang_step", lambda: evolution.strang_step(state, dt, _lin_half=lin_half), 6)
    expect("diagnostic record", lambda: evolution._record(state, dt), 3)
    expect("windowed_mass_sup",
           lambda: concentration.windowed_mass_sup(u, concentration.WindowSpec("disk", 1.0)), 3)

    # run = 3 per record + 6 per step (+ 2 per step for the adaptive dt choice)
    for adaptive, per_step in ((False, 6), (True, 8)):
        cfg = evolution.EvolveConfig(t_end=5 * dt, dt0=dt, adaptive=adaptive,
                                     sample_interval=1.0)
        before = TRACER.fft_equiv
        result = evolution.run(state, cfg)
        steps = result.state.step_index
        check(f"run, adaptive={adaptive}, {steps} steps, records excluded",
              TRACER.fft_equiv - before - 3 * len(result.records), per_step * steps)


if __name__ == "__main__":
    counter_checks()
    dsbu_hand_counts()
    sys.exit(1 if failures else 0)
