"""Time stepper, run driver, blow-up extrapolation, and virial tests."""

import hashlib
import math
import os
import signal
import threading
import time
import weakref
from dataclasses import astuple, replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsbu import (
    Field,
    Grid2D,
    OperatorParams,
    energy,
    gradient_norm_sq,
    l4_norm_4,
    mass,
    second_moment,
)
from dsbu import evolution
from dsbu.errors import BlowupOverflowError, DomainError, NoBlowupError, UsageError
from dsbu.evolution import (
    ConservationRecord,
    EvolveConfig,
    SimulationState,
    estimate_t_star,
    run,
    strang_step,
)
from dsbu.ground_state import solve_ground_state
from dsbu.spectral import FieldTerms, Quarter, full_field, interaction_potential

import oracles
from oracles import SnapshotList, negative_energy_gaussian, reference_run, virial_check


def gaussian(grid, amplitude=1.0, width=1.0):
    x1, x2 = grid.coords()
    return Field(grid, amplitude * np.exp(-(x1**2 + x2**2) / (2 * width**2)))


@pytest.fixture(scope="module")
def ground_state_128():
    return solve_ground_state(Grid2D(128, 20.0), OperatorParams(1, 1.0))


@pytest.fixture
def in_one_process(monkeypatch):
    """``run`` with ``os.fork`` taken away: its loop and its boundaries take turns in this
    process, where a hook sees every call (with a fork, the steps happen in the stepper)."""
    monkeypatch.delattr(os, "fork")


def synthetic_record(t, grad_sq, moment=1.0, valid=True):
    return ConservationRecord(
        t=t, mass=1.0, energy=0.0, gradient_norm_sq=grad_sq,
        second_moment=moment, moment_valid=valid, sup_abs_u=1.0,
        l4_accum=0.0, dt_used=0.0,
    )


class TestStrangStep:
    def test_zero_field_stays_zero(self):
        g = Grid2D(32, 5.0)
        s = SimulationState.initial(Field(g, np.zeros((32, 32))), OperatorParams(1, 1.0))
        out = strang_step(s, 0.1)
        assert np.all(out.u.values == 0)

    def test_constant_field_closed_form(self):
        # B(const) = const/2, so the flow is the exact phase rotation
        # A -> A exp(i (nu + gamma/2) A^2 t).
        g = Grid2D(32, 5.0)
        amp, gamma, dt = 1.3, 2.0, 0.37
        p = OperatorParams(1, gamma)
        s = SimulationState.initial(Field(g, amp * np.ones((32, 32), complex)), p)
        out = strang_step(s, dt)
        expected = amp * np.exp(1j * (1 + gamma / 2) * amp**2 * dt)
        assert np.max(np.abs(out.u.values - expected)) <= 1e-14 * amp

    def test_nonlinear_phase_real_and_modulus_preserving(self):
        g = Grid2D(64, 10.0)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        phase = interaction_potential(np.abs(vals) ** 2, g, OperatorParams(1, 1.5))
        assert np.isrealobj(phase)
        rotated = vals * np.exp(1j * 0.05 * phase)
        assert np.max(np.abs(np.abs(rotated) - np.abs(vals))) <= 1e-13 * np.abs(vals).max()

    def test_time_reversibility(self):
        g = Grid2D(64, 10.0)
        u0 = gaussian(g, amplitude=1.5)
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        back = strang_step(strang_step(s, 0.01), -0.01)
        assert np.max(np.abs(back.u.values - u0.values)) <= 1e-12 * np.abs(u0.values).max()

    def test_l4_accumulation_midpoint(self):
        # a step adds dt times the |v|^4 integral of the mid-step field
        # v = ifft2(E(dt/2) fft2(u0)), before the nonlinear phase
        g = Grid2D(64, 10.0)
        u0 = gaussian(g, amplitude=1.5)
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        dt = 0.01
        out = strang_step(s, dt)
        v = np.fft.ifft2(np.exp(-1j * g.ksq * (dt / 2)) * np.fft.fft2(u0.values))
        expected = dt * g.dx**2 * float(np.sum(np.abs(v) ** 4))
        assert out.l4_accum == pytest.approx(expected, rel=1e-14)
        assert out.l4_accum != pytest.approx(dt * l4_norm_4(out.u), rel=1e-6)

    def test_rejects_zero_dt(self):
        g = Grid2D(32, 5.0)
        s = SimulationState.initial(Field(g, np.ones((32, 32))), OperatorParams(1, 1.0))
        with pytest.raises(UsageError):
            strang_step(s, 0.0)

    def test_nonfinite_raises_with_last_state(self):
        g = Grid2D(32, 5.0)
        vals = np.ones((32, 32), complex)
        vals[3, 4] = np.nan
        s = SimulationState.initial(Field(g, np.ones((32, 32))), OperatorParams(1, 1.0))
        s.u = Field(g, vals)
        with pytest.raises(BlowupOverflowError) as excinfo:
            strang_step(s, 0.01)
        assert excinfo.value.last_state is s

    def test_mass_conserved_over_thousand_steps(self):
        g = Grid2D(64, 10.0)
        u0 = gaussian(g, amplitude=1.5)
        p = OperatorParams(1, 1.0)
        s = SimulationState.initial(u0, p)
        lin = np.exp(-1j * g.ksq * (0.002 / 2))
        for _ in range(1000):
            s = strang_step(s, 0.002, _lin_half=lin)
        assert abs(mass(s.u) - mass(u0)) <= 1e-12 * mass(u0)

    def test_standing_wave_second_order(self, ground_state_128):
        r = ground_state_128.profile
        p = OperatorParams(1, 1.0)
        errors = {}
        for steps in (512, 1024):
            dt = 1.0 / steps
            s = SimulationState.initial(r, p)
            lin = np.exp(-1j * r.grid.ksq * (dt / 2))
            for _ in range(steps):
                s = strang_step(s, dt, _lin_half=lin)
            target = r.values * np.exp(1j)
            errors[steps] = np.linalg.norm(s.u.values - target) / np.linalg.norm(r.values)
        ratio = errors[512] / errors[1024]
        assert 3.5 <= ratio <= 4.5
        # regression anchor for the splitting-error constant: C*dt^2 with
        # C ~ 13.9 (the continuum floor; see the standing-wave analysis)
        assert errors[1024] <= 1.5e-5

    def test_energy_drift_second_order(self):
        g = Grid2D(128, 20.0)
        u0 = gaussian(g)
        p = OperatorParams(1, 1.0)
        e0 = energy(u0, p)
        drifts = {}
        for dt in (4e-3, 2e-3):
            s = SimulationState.initial(u0, p)
            lin = np.exp(-1j * g.ksq * (dt / 2))
            drift = 0.0
            for k in range(int(round(1.0 / dt))):
                s = strang_step(s, dt, _lin_half=lin)
                drift = max(drift, abs(energy(s.u, p) - e0))
            drifts[dt] = drift / abs(e0)
        assert drifts[4e-3] / drifts[2e-3] == pytest.approx(4.0, abs=0.5)


class TestRun:
    def test_global_defocusing_run_completes(self):
        g = Grid2D(128, 20.0)
        p = OperatorParams(-1, 0.5)
        res = run(
            SimulationState.initial(gaussian(g, amplitude=1.2), p),
            EvolveConfig(t_end=1.0, guard=20.0),
        )
        assert res.stop_reason == "t_end"
        assert res.blowup is None
        grads = [r.gradient_norm_sq for r in res.records]
        assert max(grads) <= 2.0 * grads[0]
        masses = [r.mass for r in res.records]
        assert abs(masses[-1] - masses[0]) <= 1e-10 * masses[0]

    def test_default_dt_and_sampling(self):
        g = Grid2D(64, 10.0)
        p = OperatorParams(1, 1.0)
        res = run(
            SimulationState.initial(gaussian(g, amplitude=0.5), p),
            EvolveConfig(t_end=0.05),
        )
        assert res.records[1].dt_used == pytest.approx(0.25 * g.dx**2)
        times = [r.t for r in res.records]
        assert times == sorted(times)
        assert res.state.t == pytest.approx(0.05, abs=1e-10)

    def test_none_values_run_as_their_resolved_twin(self):
        g = Grid2D(64, 10.0)
        s = SimulationState.initial(gaussian(g, amplitude=1.5), OperatorParams(1, 1.0))
        cfg = EvolveConfig(t_end=0.05, adaptive=True)
        twin = cfg.resolved(g.dx, cfg.t_end)
        a, b = run(s, cfg), run(s, twin)
        assert len(a.records) > 2 and a.records == b.records
        assert a.state.step_index == b.state.step_index

    def test_l4_accum_nondecreasing(self):
        g = Grid2D(64, 10.0)
        p = OperatorParams(1, 1.0)
        res = run(
            SimulationState.initial(gaussian(g, amplitude=1.2), p),
            EvolveConfig(t_end=0.3),
        )
        accums = [r.l4_accum for r in res.records]
        assert all(b >= a for a, b in zip(accums, accums[1:]))

    def test_adaptive_dt_shrinks_step(self):
        g = Grid2D(64, 10.0)
        p = OperatorParams(1, 1.0)
        u0 = gaussian(g, amplitude=2.0)
        rate = float(np.abs(interaction_potential(np.abs(u0.values) ** 2, g, p)).max())
        res = run(
            SimulationState.initial(u0, p),
            EvolveConfig(t_end=0.02, adaptive=True, c_adapt=1e-3),
        )
        assert res.records[-1].dt_used == pytest.approx(1e-3 / rate, rel=0.2)

    def test_sup_guard_fires(self):
        # sparse sampling keeps the gradient check quiet so the per-step
        # sup check is what trips
        g = Grid2D(64, 15.0)
        p = OperatorParams(1, 1.0)
        res = run(
            SimulationState.initial(gaussian(g, amplitude=1.9, width=1.3), p),
            EvolveConfig(t_end=5.0, guard=2.5, sample_interval=5.0),
        )
        assert res.stop_reason == "sup_guard"
        assert res.records[-1].sup_abs_u > 2.5

    def test_grad_guard_fires_on_negative_energy_data(self):
        g = Grid2D(128, 15.0)
        p = OperatorParams(1, 1.0)
        u0 = gaussian(g, amplitude=1.8, width=1.3)
        assert energy(u0, p) < 0
        res = run(SimulationState.initial(u0, p), EvolveConfig(t_end=5.0))
        assert res.stop_reason in ("grad_guard", "sup_guard")
        assert res.state.t < 5.0

    @pytest.mark.parametrize("c_adapt,at_dt0", [(0.5, "every"), (0.01, "some"), (1e-4, "no")])
    def test_adaptive_dt_is_the_exact_rule_on_the_last_mid_step_rate(
        self, monkeypatch, in_one_process, c_adapt, at_dt0,
    ):
        # dt = min(dt0, c_adapt / rate, t_end - t) on every step, bitwise, where
        # rate is the max|L(|v|^2)| that the last step's mid-step field v gave
        # (the first step: the initial field's); c_adapt = 0.01 holds dt0 until
        # the field focuses
        g = Grid2D(64, 10.0)
        p = OperatorParams(1, 1.0)
        u0 = gaussian(g, amplitude=2.0)
        cfg = EvolveConfig(t_end=0.2, dt0=1e-3, adaptive=True, c_adapt=c_adapt,
                           sample_interval=0.01, guard=50.0)
        step, steps = evolution._spectral_step, []

        def watched(what, out, v, e, dt, space, p):
            mid = space.ifft_in_place(what * e[:, None] * e)
            if space is not g:
                mid = Quarter.unfold(mid, np.empty(g.shape, dtype=np.complex128))
            rate = float(np.abs(interaction_potential(np.abs(mid) ** 2, g, p)).max())
            got = step(what, out, v, e, dt, space, p)
            steps.append((dt, rate, got[2]))
            return got

        monkeypatch.setattr(evolution, "_spectral_step", watched)
        res = run(SimulationState.initial(u0, p), cfg)
        assert res.stop_reason == "t_end" and res.state.step_index == len(steps)
        rate = float(np.abs(interaction_potential(np.abs(u0.values) ** 2, g, p)).max())
        assert steps[0][0] == pytest.approx(min(cfg.dt0, c_adapt / rate), rel=1e-12)
        t = steps[0][0]
        for (_, _, rate), (dt, mid_rate, returned) in zip(steps, steps[1:]):
            assert dt == min(cfg.dt0, c_adapt / rate, cfg.t_end - t)
            assert returned == pytest.approx(mid_rate, rel=1e-12)
            t += dt
        assert t == res.state.t
        full = sum(dt == cfg.dt0 for dt, _, _ in steps)
        assert {"every": full == len(steps) - 1, "some": 0 < full < len(steps) - 1,
                "no": full == 0}[at_dt0]
        if at_dt0 == "no":
            assert max(dt for dt, _, _ in steps) < 0.5 * cfg.dt0

    def test_unbound_adaptive_run_matches_fixed_bitwise(self):
        # with a huge c_adapt the rate never binds, dt stays dt0 and the
        # cached free-flow factors are reused exactly as in fixed mode
        g = Grid2D(64, 10.0)
        p = OperatorParams(1, 1.0)
        u0 = gaussian(g, amplitude=1.5)
        fixed, adaptive = [
            run(SimulationState.initial(u0, p),
                EvolveConfig(t_end=0.05, dt0=1e-3, adaptive=adaptive, c_adapt=1e9,
                             guard=10.0))
            for adaptive in (False, True)
        ]
        assert adaptive.state.step_index == fixed.state.step_index
        assert adaptive.state.u.values.tobytes() == fixed.state.u.values.tobytes()
        assert adaptive.records == fixed.records

    def test_snapshot_ladder_mode(self):
        g = Grid2D(128, 15.0)
        p = OperatorParams(1, 1.0)
        kept = SnapshotList()
        run(
            SimulationState.initial(gaussian(g, amplitude=1.8, width=1.3), p),
            EvolveConfig(t_end=5.0, snapshot_grad_ratio=2.0**0.25),
            kept,
        )
        assert len(kept) >= 3
        times = [t for t, _ in kept]
        assert times == sorted(times)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_snapshot_ladder_rejects_gradient_free_field(self, value):
        # every rung of a zero gradient is 0, so the ladder would never advance
        g = Grid2D(16, 10.0)
        s = SimulationState.initial(Field(g, np.full((16, 16), value)), OperatorParams(1, 1.0))
        cfg = EvolveConfig(t_end=1e-3, dt0=1e-3, snapshot_grad_ratio=2.0**0.25)
        with pytest.raises(DomainError, match="gradient-free"):
            run(s, cfg)

    def test_snapshot_ladder_takes_one_gradient_per_boundary(self, monkeypatch, in_one_process):
        # the ladder check and the record share the boundary's gradient:
        # one for the initial field and one per step, with no sink as well
        calls = []

        class CountingTerms(FieldTerms):
            @cached_property
            def grad(self):
                calls.append(1)
                return FieldTerms.grad.func(self)

        monkeypatch.setattr(evolution, "FieldTerms", CountingTerms)
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=2e-3, guard=50.0,
                           snapshot_grad_ratio=2.0**0.25)
        res = run(drawn_gaussian(1.5, 1.0), cfg)
        assert res.stop_reason == "t_end" and res.state.step_index == 10
        assert len(calls) == 10 + 1

    def test_record_and_functionals_share_one_formula(self):
        # Draw 12 of default_rng(0) is one where |u|^2 as abs()**2 and as
        # re^2 + im^2 give different mass and L4 sums in the last bit.
        g = Grid2D(64, 10.0)
        p = OperatorParams(1, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(12 + 1):
            values = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        u = Field(g, values)
        rec = evolution._record(SimulationState.initial(u, p), 0.0)
        assert rec.mass == mass(u)
        assert rec.gradient_norm_sq == gradient_norm_sq(u)
        assert rec.energy == energy(u, p)
        assert rec.second_moment == second_moment(u).value
        rho = values.real**2 + values.imag**2
        assert l4_norm_4(u) == g.dx**2 * float(np.sum(np.square(rho)))
        dt = 1e-3
        v = np.fft.ifft2(np.exp(-1j * g.ksq * (dt / 2)) * np.fft.fft2(values))
        rho = v.real**2 + v.imag**2
        assert strang_step(SimulationState.initial(u, p), dt).l4_accum == (
            dt * (g.dx**2 * float(np.sum(np.square(rho)))))


class TestEvolveConfig:
    @pytest.mark.parametrize("key,value", [
        ("t_end", np.inf), ("t_end", np.nan), ("dt0", -1e-3), ("dt0", np.nan),
        ("c_adapt", 0.0), ("guard", 0.0), ("sample_interval", np.nan),
        ("snapshot_grad_ratio", 1.0),
    ])
    def test_rejected_at_construction(self, key, value):
        # run would hang on these; it is never called
        with pytest.raises(UsageError, match=key) as exc:
            EvolveConfig(**{"t_end": 0.1, "adaptive": True, key: value})
        assert exc.value.key == key

    @pytest.mark.parametrize("unset", [
        (), ("dt0",), ("guard",), ("sample_interval",), ("dt0", "guard", "sample_interval"),
    ])
    def test_resolved_fills_each_none_with_its_grid_default(self, unset):
        dx, span = 20.0 / 96, 0.3
        given = {"dt0": 1e-3, "guard": 7.0, "sample_interval": 0.01}
        defaults = {"dt0": dx**2 / 4, "guard": 0.5 / dx, "sample_interval": span / 50}
        cfg = EvolveConfig(t_end=0.7, adaptive=True, c_adapt=0.3, snapshot_grad_ratio=2.0,
                           **{key: None if key in unset else v for key, v in given.items()})
        got = cfg.resolved(dx, span)
        for key in given:
            assert getattr(got, key) == (defaults if key in unset else given)[key]
        cleared = dict.fromkeys(given)
        assert replace(got, **cleared) == replace(cfg, **cleared)


RECORD_COLUMNS = ("t", "mass", "energy", "gradient_norm_sq", "second_moment",
                  "sup_abs_u", "l4_accum", "dt_used")


def energy_terms(rec):
    """(1/2) grad_sq + (1/4)|Q|: the size of the two terms whose difference is E."""
    half_grad = 0.5 * rec.gradient_norm_sq
    return half_grad + abs(half_grad - rec.energy)


def assert_same_run(got, ref, t_end, kept=None, rel=1e-12):
    """``run`` against ``reference_run``: same path, records equal to roundoff.

    ``kept`` is the ``SnapshotList`` that ``got``'s run handed its snapshots
    to; when given, it must match ``ref.snapshots`` to roundoff.

    Every column is held to ``rel`` of its own size except the energy, which
    is held to ``rel`` of ``energy_terms``. E = (1/2) grad_sq - (1/4) Q is
    computed from two terms that each step order rounds on its own, so the
    gap between the two orders grows linearly in the step count: by 9.8e-17
    of the terms per step for amplitude 1.6875, width 0.96875 (9.8e-15 after
    its 100 steps), and by at most 2.9e-16 per step, 2.7e-14 in all, over a
    25 x 25 scan of the fixed-dt draw ranges. Near the ground-state mass the
    terms cancel and E tends to 0, so no bound relative to |E| holds (that
    draw reaches 9.4e-12 of |E|); rel of the terms allows some 3000 steps.

    dt_used of a final step clipped to t_end is t_end - t, so besides the
    relative bound it may carry the absolute error that the bound allows on
    t, rel * t_end.

    ``l4_accum`` is the midpoint sum of the mid-step integrals of |u|^4 in
    both drivers, so it is held to ``rel`` as well.
    """
    assert got.stop_reason == ref.stop_reason
    assert got.state.step_index == ref.state.step_index
    assert len(got.records) == len(ref.records)
    for a, b in zip(got.records, ref.records):
        assert a.moment_valid == b.moment_valid
        for name in RECORD_COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            scale = max(abs(x), abs(y))
            if name == "energy":
                scale = max(energy_terms(a), energy_terms(b))
            slack = rel * t_end if name == "dt_used" else 0.0
            assert abs(x - y) <= rel * scale + slack, (name, a.t, x, y)
    if kept is None:
        return
    assert len(kept) == len(ref.snapshots)
    for (ta, fa), (tb, fb) in zip(kept, ref.snapshots):
        assert abs(ta - tb) <= rel * max(abs(ta), abs(tb))
        assert np.max(np.abs(fa.values - fb.values)) <= rel * np.max(np.abs(fb.values))


# The two snapshot cadences of ``run``: at every record, and on the gradient ladder.
cadences = pytest.mark.parametrize("ratio", [None, 2.0**0.25], ids=["record", "ladder"])


def drawn_gaussian(amplitude, width, n=64, box=12.0):
    g = Grid2D(n, box)
    return SimulationState.initial(gaussian(g, amplitude, width), OperatorParams(1, 1.0))


class TestSpectralStateLoop:
    """``run`` merges the half-steps between steps; it must reproduce repeated ``strang_step``."""

    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.3, 1.8), st.floats(0.7, 1.5))
    @example(1.6875, 0.96875)  # E ~ 0: the terms cancel to 1e-3 of their size
    def test_fixed_dt_matches_reference(self, amplitude, width):
        s = drawn_gaussian(amplitude, width)
        cfg = EvolveConfig(t_end=0.1, dt0=1e-3, sample_interval=0.01, guard=50.0)
        assert_same_run(run(s, cfg), reference_run(s, cfg), cfg.t_end)

    @settings(max_examples=8, deadline=None)
    @given(st.floats(1.0, 2.2), st.floats(0.7, 1.5))
    def test_adaptive_dt_matches_reference(self, amplitude, width):
        s = drawn_gaussian(amplitude, width)
        cfg = EvolveConfig(t_end=0.1, dt0=2e-3, adaptive=True, c_adapt=0.005,
                           sample_interval=0.01, guard=50.0)
        got = run(s, cfg)
        assert min(r.dt_used for r in got.records[1:]) < cfg.dt0
        assert_same_run(got, reference_run(s, cfg), cfg.t_end)

    @settings(max_examples=6, deadline=None)
    @given(st.floats(1.8, 2.2), st.floats(1.1, 1.4))
    def test_grad_ladder_snapshots_match_reference(self, amplitude, width):
        s = drawn_gaussian(amplitude, width)
        cfg = EvolveConfig(t_end=1.0, adaptive=True, guard=6.0, snapshot_grad_ratio=2.0**0.25)
        kept = SnapshotList()
        got = run(s, cfg, kept)
        assert got.stop_reason == "grad_guard"
        assert len(kept) >= 3
        assert_same_run(got, reference_run(s, cfg), cfg.t_end, kept)

    @settings(max_examples=6, deadline=None)
    @given(st.floats(1.8, 2.2), st.floats(1.1, 1.4))
    def test_sup_guard_stop_matches_reference(self, amplitude, width):
        s = drawn_gaussian(amplitude, width)
        cfg = EvolveConfig(t_end=1.0, guard=1.5 * amplitude, sample_interval=1.0)
        got = run(s, cfg)
        assert got.stop_reason == "sup_guard"
        assert_same_run(got, reference_run(s, cfg), cfg.t_end)

    @cadences
    def test_sup_guard_on_sampling_step_records_once(self, ratio):
        # a bump on a flat background: sup|u| crosses the guard while the
        # gradient is still below guard^2, on a step that is also a sample
        g = Grid2D(64, 12.0)
        s = SimulationState.initial(Field(g, 1.5 + gaussian(g, 0.3).values),
                                    OperatorParams(1, 1.0))
        cfg = EvolveConfig(t_end=1.0, dt0=2e-3, sample_interval=2e-3, guard=2.0,
                           snapshot_grad_ratio=ratio)
        kept = SnapshotList()
        got = run(s, cfg, kept)
        assert got.stop_reason == "sup_guard"
        assert len(got.records) == got.state.step_index + 1
        if ratio is None:
            assert len(kept) == len(got.records)
        assert got.records[-1].t == kept[-1][0] == got.state.t
        assert_same_run(got, reference_run(s, cfg), cfg.t_end, kept)

    def test_grad_guard_at_record_keeps_its_snapshot(self):
        s = drawn_gaussian(2.0, 1.2)
        cfg = EvolveConfig(t_end=1.0, adaptive=True, guard=6.0, sample_interval=0.01)
        kept = SnapshotList()
        got = run(s, cfg, kept)
        assert got.stop_reason == "grad_guard"
        assert got.records[-1].gradient_norm_sq > cfg.guard**2
        assert len(kept) == len(got.records)
        assert got.records[-1].t == kept[-1][0] == got.state.t
        assert_same_run(got, reference_run(s, cfg), cfg.t_end, kept)

    @cadences
    def test_initial_state_and_snapshots_left_untouched(self, ratio):
        # the loop reuses its own field buffers, never the caller's, so the
        # initial field and the sink's copies are not overwritten by later steps
        s = drawn_gaussian(1.5, 1.0)
        before = s.u.values.copy()
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=2e-3, snapshot_grad_ratio=ratio)
        kept = SnapshotList()
        res = run(s, cfg, kept)
        assert res.stop_reason == "t_end" and kept[-1][0] == res.state.t
        assert s.u.values.tobytes() == before.tobytes()
        assert kept[0][1].values.tobytes() == before.tobytes()
        assert_same_run(res, reference_run(s, cfg), cfg.t_end, kept)

    @cadences
    def test_run_without_sink_copies_nothing(self, monkeypatch, ratio):
        def no_copy(field):
            raise AssertionError("run copied a field")

        monkeypatch.setattr(Field, "copy", no_copy)
        cfg = EvolveConfig(t_end=0.02, dt0=1e-3, sample_interval=1e-3, snapshot_grad_ratio=ratio)
        res = run(drawn_gaussian(1.5, 1.0), cfg)
        assert res.stop_reason == "t_end" and len(res.records) == 21
        assert res.snapshots == []

    @pytest.mark.parametrize("even", [False, True], ids=["grid", "quarter"])
    def test_spectral_step_is_one_merged_strang_step(self, even):
        # from the spectrum w_hat of the field after a nonlinear substep: the
        # mid-step field v = ifft2(E(dt) w_hat), its sup, |v|^4 integral and
        # rate, and the spectrum of v exp(i dt L(|v|^2)); w_hat stays as it was
        g = Grid2D(64, 12.0)
        p = OperatorParams(1, 1.0)
        x1, x2 = g.coords()
        u = 1.5 * np.exp(-((x1 - (0.0 if even else 0.3)) ** 2 + x2**2) / 2) + 0j
        assert Quarter.holds(u) == even
        space = g.quarter if even else g
        h = space.shape[0]
        what = space.fft(u[:h, :h].copy(), np.empty(space.shape, dtype=np.complex128))
        before = what.copy()
        dt = 1e-3
        e = np.exp(-1j * space.k**2 * dt)
        out, v = np.empty_like(what), np.empty_like(what)
        sup, l4, rate = evolution._spectral_step(what, out, v, e, dt, space, p)
        assert what.tobytes() == before.tobytes()

        mid = np.fft.ifft2(np.exp(-1j * g.ksq * dt) * np.fft.fft2(u))
        theta = interaction_potential(np.abs(mid) ** 2, g, p)
        assert sup == pytest.approx(np.abs(mid).max(), rel=1e-13)
        assert l4 == pytest.approx(g.dx**2 * np.sum(np.abs(mid) ** 4), rel=1e-13)
        assert rate == pytest.approx(np.abs(theta).max(), rel=1e-12)
        stepped = space.ifft_in_place(out)
        if even:
            stepped = Quarter.unfold(stepped, np.empty(g.shape, dtype=np.complex128))
        expected = mid * np.exp(1j * dt * theta)
        assert np.max(np.abs(stepped - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("index,even", [((5, 7), False), ((0, 0), True)],
                             ids=["grid", "quarter"])
    def test_nonfinite_initial_field_rejected(self, index, even):
        # a NaN breaks the mirror test everywhere but at (0, 0), which the
        # quarter holds: run's one finite check is on the samples of its space
        s = drawn_gaussian(1.0, 1.0)
        s.u.values[index] = np.nan
        assert Quarter.holds(s.u.values) == even
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3)
        for driver in (run, reference_run):
            with pytest.raises(DomainError, match="non-finite"):
                driver(s, cfg)

    @pytest.fixture
    def fail_third_step(self, monkeypatch):
        """Both drivers fail on their third step: ``run`` on a NaN in the
        spectrum that step reads (a copy: the run's own stays finite), so that
        its mid-step field and rate are not finite, and ``reference_run`` on
        strang_step's BlowupOverflowError."""
        step, ref_step = evolution._spectral_step, oracles.strang_step
        calls = []

        def failing_third_step(what, *args):
            calls.append(1)
            if len(calls) == 3:
                what = what.copy()
                what[5, 7] = np.nan
            return step(what, *args)

        def failing_third_ref_step(state, *args, **kwargs):
            if state.step_index == 2:
                raise BlowupOverflowError("non-finite values", state)
            return ref_step(state, *args, **kwargs)

        monkeypatch.setattr(evolution, "_spectral_step", failing_third_step)
        monkeypatch.setattr(oracles, "strang_step", failing_third_ref_step)

    def test_nonfinite_step_records_last_finite_state(self, fail_third_step):
        s = drawn_gaussian(1.0, 1.0)
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=1.0)
        got = run(s, cfg)
        ref = reference_run(s, EvolveConfig(t_end=2e-3, dt0=1e-3, sample_interval=1.0))
        assert got.stop_reason == "non_finite"
        assert got.state.step_index == 2
        diff = np.max(np.abs(got.state.u.values - ref.state.u.values))
        assert diff <= 1e-12 * np.max(np.abs(ref.state.u.values))
        last = got.records[-1]
        assert last.t == got.state.t and last.dt_used == 1e-3
        assert np.isfinite([last.mass, last.energy, last.gradient_norm_sq]).all()

    @cadences
    def test_nonfinite_step_keeps_last_finite_snapshot(self, fail_third_step, ratio):
        s = drawn_gaussian(1.0, 1.0)
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=1e-3, snapshot_grad_ratio=ratio)
        kept = SnapshotList()
        got = run(s, cfg, kept)
        assert got.stop_reason == "non_finite" and got.state.step_index == 2
        if ratio is None:
            assert [t for t, _ in kept] == [r.t for r in got.records[:-1]]
        assert kept[-1][1].values.tobytes() == got.state.u.values.tobytes()
        assert_same_run(got, reference_run(s, cfg), cfg.t_end, kept)

    @cadences
    def test_nonfinite_step_on_the_full_grid_keeps_last_finite_state(self, fail_third_step,
                                                                     ratio):
        # a Gaussian off the grid origin steps on the full grid, where the
        # states' field is the buffer that the mid-step field and the
        # boundary share
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        u0 = Field(g, np.exp(-((x1 - 0.3) ** 2 + x2**2) / 2))
        assert not Quarter.holds(u0.values)
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=1e-3, snapshot_grad_ratio=ratio)
        kept = SnapshotList()
        got = run(s, cfg, kept)
        ref = reference_run(s, cfg)
        assert got.stop_reason == "non_finite" and got.state.step_index == 2
        assert np.all(np.isfinite(got.state.u.values))
        diff = np.max(np.abs(got.state.u.values - ref.state.u.values))
        assert diff <= 1e-12 * np.max(np.abs(ref.state.u.values))
        assert kept[-1][0] == got.records[-1].t == got.state.t
        assert kept[-1][1].values.tobytes() == got.state.u.values.tobytes()
        assert_same_run(got, ref, cfg.t_end, kept)


class EvenSnapshots(SnapshotList):
    """A ``SnapshotList`` that checks that each field it is handed is on its grid's quarter."""

    def __call__(self, t, values, space):
        assert space is space.grid.quarter and values.shape == space.shape, t
        super().__call__(t, values, space)


def guard_fields():
    """Two fields that are not even, and so step on the full grid, and one that is."""
    g = Grid2D(64, 12.0)
    x1, x2 = g.coords()
    centred = 1.5 * np.exp(-(x1**2 + x2**2) / 2)
    ulp = centred.copy()
    ulp[3, 5] = np.nextafter(ulp[3, 5], 2.0)
    return {"shifted": Field(g, 1.5 * np.exp(-((x1 - 0.3) ** 2 + x2**2) / 2)),
            "ulp": Field(g, ulp),
            "aspect": Field(g, 1.5 * np.exp(-(x1**2 + (0.5 * x2) ** 2) / 2))}


GUARD_CFG = EvolveConfig(t_end=0.05, dt0=2e-3, adaptive=True, c_adapt=5e-3,
                         sample_interval=0.01, guard=50.0)

# sha256 of the records (as float rows) and the final field of ``run`` on
# ``guard_fields()`` with GUARD_CFG, made by the merged-step loop on the full
# grid (numpy 2.4.6 on x86-64; other FFT builds may round differently and so
# give other digests). The records agree with ``reference_run`` to 2.7e-14
# relative.
FULL_GRID_DIGESTS = {
    "shifted": "d249a30354916ebc29834319ada97cac2073a459be79428f9815be80b51b9595",
    "ulp": "1e8dbe38c593abc42160656767c542365d11e49403d766a6fe19f8cbb90e7bca",
}


class TestQuarterLoop:
    """``run`` steps a field even in x1 and x2 on its quarter, any other on the full grid."""

    @pytest.mark.parametrize("name", sorted(FULL_GRID_DIGESTS))
    def test_fields_that_are_not_even_keep_the_full_grid_bytes(self, name):
        u0 = guard_fields()[name]
        assert not Quarter.holds(u0.values)
        res = run(SimulationState.initial(u0, OperatorParams(1, 1.0)), GUARD_CFG)
        rows = np.array([astuple(r) for r in res.records], dtype=float)
        digest = hashlib.sha256(rows.tobytes() + res.state.u.values.tobytes()).hexdigest()
        assert digest == FULL_GRID_DIGESTS[name]

    def test_elongated_even_field_takes_the_quarter(self):
        u0 = guard_fields()["aspect"]
        assert Quarter.holds(u0.values)
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        kept = EvenSnapshots()
        got = run(s, GUARD_CFG, kept)
        assert min(r.dt_used for r in got.records[1:]) < GUARD_CFG.dt0
        assert_same_run(got, reference_run(s, GUARD_CFG), GUARD_CFG.t_end, kept)

    def test_blowup_data_first_hundred_steps_match_reference(self):
        # configs/blowup_concentration.cfg at n = 256, for 100 steps of dt0
        g = Grid2D(256, 2.5)
        s = SimulationState.initial(gaussian(g, 8.8, 0.225), OperatorParams(1, 1.0))
        cfg = EvolveConfig(t_end=100 * 0.25 * g.dx**2, adaptive=True, sample_interval=6.25e-5)
        kept = EvenSnapshots()
        got = run(s, cfg, kept)
        ref = reference_run(s, cfg)
        assert got.state.step_index == 100 and len(kept) == len(got.records) > 30
        assert_same_run(got, ref, cfg.t_end, kept)
        diff = np.max(np.abs(got.state.u.values - ref.state.u.values))
        assert diff <= 1e-12 * np.max(np.abs(ref.state.u.values))
        masses = [r.mass for r in got.records]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-14 * masses[0]

    def test_first_l4_term_is_the_midpoint_on_the_quarter(self):
        # one step of run adds dt times the |v|^4 integral of the mid-step
        # field v = ifft(E(dt/2) fft(u0)), summed on the quarter
        g = Grid2D(64, 12.0)
        s = SimulationState.initial(gaussian(g, 1.5, 1.0), OperatorParams(1, 1.0))
        q = Quarter(g)
        h = q.shape[0]
        dt = 1e-3
        what = q.fft(s.u.values[:h, :h].copy(), np.empty((h, h), dtype=np.complex128))
        v = evolution._flowed(what, np.exp(-1j * q.k**2 * (dt / 2)), np.empty_like(what), q)
        l4_mid = FieldTerms(v, q).l4
        got = run(s, EvolveConfig(t_end=dt, dt0=dt))
        assert got.state.step_index == 1
        assert got.state.l4_accum == dt * l4_mid

    def test_run_leaves_the_full_grid_multipliers_unbuilt(self, in_one_process):
        g = Grid2D(64, 12.0)
        s = SimulationState.initial(gaussian(g, 1.5, 1.0), OperatorParams(1, 1.0))
        got = run(s, EvolveConfig(t_end=0.02, dt0=1e-3, adaptive=True, sample_interval=5e-3))
        assert got.state.step_index == 20 and len(got.records) == 5
        assert "ksq" not in vars(g) and "b_symbol" not in vars(g)

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "here"])
    @pytest.mark.parametrize("shift", [0.0, 0.3], ids=["quarter", "grid"])
    def test_a_run_with_no_step_returns_its_initial_field(self, monkeypatch, fork, shift):
        # t_end lies within the loop's tolerance of t0, so no step is taken
        g = Grid2D(32, 8.0)
        x1, x2 = g.coords()
        u0 = Field(g, 1.2 * np.exp(-((x1 - shift) ** 2 + x2**2) / 2))
        if not fork:
            monkeypatch.delattr(os, "fork")
        kept = SnapshotList()
        got = run(SimulationState.initial(u0, OperatorParams(1, 1.0)), EvolveConfig(t_end=1e-13),
                  kept)
        assert got.stop_reason == "t_end" and got.state.step_index == 0
        assert len(got.records) == 1 and [t for t, _ in kept] == [0.0]
        assert got.state.u.values.tobytes() == u0.values.tobytes()
        assert_no_child_left()

    def test_run_lets_go_of_the_initial_field_once_it_has_the_quarter(self, monkeypatch):
        # the caller keeps no reference: run lets the n x n field go once it
        # has the quarter's copy, which the sink is handed, and makes its own
        # n x n field only for the result
        g = Grid2D(64, 12.0)
        values = gaussian(g, 1.5, 1.0).values
        initial = weakref.ref(values)
        states = [SimulationState.initial(Field(g, values), OperatorParams(1, 1.0))]
        del values
        seen, made = [], []

        def sink(t, values, space):
            seen.append(initial() is None and space is g.quarter)

        def field(values, space):
            made.append(initial() is None)
            return full_field(values, space)

        monkeypatch.setattr(evolution, "full_field", field)
        run(states.pop(), EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=2e-3), sink)
        assert len(seen) == 6 and all(seen) and made == [True]

    @cadences
    def test_sink_sees_even_fields_only(self, ratio):
        s = drawn_gaussian(1.8, 1.2)
        cfg = EvolveConfig(t_end=1.0, adaptive=True, guard=6.0, sample_interval=0.01,
                           snapshot_grad_ratio=ratio)
        kept = EvenSnapshots()
        got = run(s, cfg, kept)
        assert got.stop_reason == "grad_guard" and len(kept) >= 3
        assert Quarter.holds(got.state.u.values)


def open_fds():
    """The names of this process's open file descriptors; None where /proc/self/fd is missing."""
    try:
        return set(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def assert_no_child_left(fds=None):
    """No child of this process runs or waits to be reaped, and, given ``fds`` from an
    earlier ``open_fds()``, the same file descriptors are open as then."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert open_fds() == fds


def run_bytes(res, kept=None):
    """The records, the final state and the kept snapshots of a run, as bytes."""
    rows = np.array([astuple(r) for r in res.records], dtype=float)
    state = np.array([res.state.t, res.state.l4_accum, res.state.step_index])
    parts = [rows.tobytes(), state.tobytes(), res.state.u.values.tobytes(),
             res.stop_reason.encode()]
    for t, f in kept or []:
        parts += [np.float64(t).tobytes(), f.values.tobytes()]
    return b"".join(parts)


class TestStepperProcess:
    """``run`` steps in a forked stepper process and works each boundary in this one."""

    @pytest.fixture(autouse=True)
    def nothing_left_open(self):
        assert_no_child_left()
        fds = open_fds()
        yield
        assert_no_child_left(fds)

    @pytest.mark.parametrize("shift", [0.0, 0.3], ids=["quarter", "grid"])
    @pytest.mark.parametrize("ratio,interval", [(2.0**0.125, 1e-9), (None, 0.05)],
                             ids=["every step, ladder", "sparse"])
    def test_records_and_snapshots_are_the_sequential_bits(
        self, monkeypatch, shift, ratio, interval,
    ):
        # records at every step with a snapshot ladder, or sparse ones, with
        # a record and a sink slow enough for the stepper to take several
        # steps during each: it rewrites the boundary spectrum only once this
        # process has worked the boundary before, so each record and snapshot
        # is the sequential path's, bit for bit, and the oracle's
        record = evolution._record

        def slow_record(*args):
            time.sleep(2e-3)
            return record(*args)

        class SlowSink(SnapshotList):
            def __call__(self, t, values, space):
                time.sleep(2e-3)
                super().__call__(t, values, space)

        monkeypatch.setattr(evolution, "_record", slow_record)
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        u0 = Field(g, 1.8 * np.exp(-((x1 - shift) ** 2 + x2**2) / (2 * 1.2**2)))
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        cfg = EvolveConfig(t_end=1.0, adaptive=True, guard=6.0, sample_interval=interval,
                           snapshot_grad_ratio=ratio)
        kept = SlowSink()
        got = run(s, cfg, kept)
        assert got.state.step_index > 30 and len(kept) > 5
        if ratio is not None:
            assert len(got.records) == got.state.step_index + 1
        assert kept[-1][1].values.tobytes() == got.state.u.values.tobytes()
        assert_same_run(got, reference_run(s, cfg), cfg.t_end, kept)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            here = SnapshotList()
            assert run_bytes(run(s, cfg, here), here) == run_bytes(got, kept)

    def test_sink_error_comes_out_of_run_and_ends_the_stepper(self):
        calls = []

        def sink(t, values, space):
            calls.append(t)
            if len(calls) == 3:
                raise RuntimeError("sink failed on its third call")

        cfg = EvolveConfig(t_end=0.02, dt0=1e-3, sample_interval=2e-3)
        with pytest.raises(RuntimeError, match="third call"):
            run(drawn_gaussian(1.5, 1.0), cfg, sink)
        assert calls == pytest.approx([0.0, 2e-3, 4e-3], rel=1e-12)

    def test_stepper_error_comes_out_after_the_boundaries_before_it(self, monkeypatch):
        step, calls, kept = evolution._spectral_step, [], SnapshotList()

        def failing_third_step(*args):
            calls.append(1)
            if len(calls) == 3:
                raise DomainError("step 3 failed")
            return step(*args)

        monkeypatch.setattr(evolution, "_spectral_step", failing_third_step)
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=1e-3)
        with pytest.raises(DomainError, match="^step 3 failed$"):
            run(drawn_gaussian(1.5, 1.0), cfg, kept)
        # the steps, and so the calls, happened in the stepper
        assert calls == [] and [t for t, _ in kept] == pytest.approx([0.0, 1e-3, 2e-3])

    def test_an_error_that_does_not_pickle_comes_as_a_domain_error(self, monkeypatch):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        def failing_step(*args):
            raise LocalError("no step")

        monkeypatch.setattr(evolution, "_spectral_step", failing_step)
        with pytest.raises(DomainError, match="^LocalError: no step$"):
            run(drawn_gaussian(1.5, 1.0), EvolveConfig(t_end=0.01, dt0=1e-3))

    @pytest.mark.parametrize("sink_s", [0.0, 0.05], ids=["quick sink", "slow sink"])
    def test_a_killed_stepper_is_an_error(self, monkeypatch, sink_s):
        # with a slow sink the stepper dies while this process works a
        # boundary, so the release that follows finds the pipe closed
        step, parent = evolution._spectral_step, os.getpid()

        calls = []

        def dying(*args):  # in the stepper, on its third step
            calls.append(1)
            if os.getpid() != parent and len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return step(*args)

        class Sink(SnapshotList):
            def __call__(self, t, values, space):
                time.sleep(sink_s)
                super().__call__(t, values, space)

        monkeypatch.setattr(evolution, "_spectral_step", dying)
        kept = Sink()
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=1e-3)
        with pytest.raises(RuntimeError, match=r"stepper ended without its result "
                                               r"\(exit code -9\)"):
            run(drawn_gaussian(1.5, 1.0), cfg, kept)
        assert len(kept) == 3

    @pytest.mark.parametrize("reason", ["no fork", "another thread"])
    def test_run_here_where_a_fork_is_unsafe(self, monkeypatch, reason):
        s = drawn_gaussian(1.5, 1.0)
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3, sample_interval=2e-3,
                           snapshot_grad_ratio=2.0**0.25)
        forked = SnapshotList()
        want = run_bytes(run(s, cfg, forked), forked)
        step, pids = evolution._spectral_step, []

        def watched(*args):
            pids.append(os.getpid())
            return step(*args)

        monkeypatch.setattr(evolution, "_spectral_step", watched)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if reason == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            other.start()
        try:
            kept = SnapshotList()
            got = run(s, cfg, kept)
        finally:
            stop.set()
            if other.is_alive():
                other.join(timeout=10)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 10
        assert run_bytes(got, kept) == want

    def test_mass_drift_per_step_stays_within_its_measured_rate(self):
        # the merged loop's mass drift grows linearly with the steps, at 6e-17
        # to 3e-16 per step (an open finding); the boundaries build the records
        # with the same arithmetic in either process and must leave that rate
        # where it was:
        # 2.07e-16 per step over this collapse's 147 steps
        g = Grid2D(128, 2.5)
        s = SimulationState.initial(gaussian(g, 8.8, 0.225), OperatorParams(1, 1.0))
        got = run(s, EvolveConfig(t_end=0.05, adaptive=True, sample_interval=2e-4,
                                  snapshot_grad_ratio=2.0**0.25))
        assert got.stop_reason == "grad_guard" and len(got.records) > 50
        masses = [r.mass for r in got.records]
        drift = max(abs(m - masses[0]) for m in masses) / masses[0]
        assert drift <= 4e-16 * got.state.step_index


class FFTCounter:
    """Counts numpy.fft calls in complex 2-D FFT-equivalents (real transforms count half).

    A 1-D transform along an axis of length m counts (lines)/(2m) of its
    array: an n x n array has 2n lines in all, n along each axis.
    """

    COMPLEX = ("fft2", "ifft2", "fft", "ifft")
    REAL = ("rfft2", "irfft2", "rfft", "irfft")

    def __init__(self, monkeypatch):
        self.total = 0.0
        for name in self.COMPLEX + self.REAL:
            weight = 1.0 if name in self.COMPLEX else 0.5
            monkeypatch.setattr(np.fft, name, self._counted(name, getattr(np.fft, name), weight))

    def _counted(self, name, fn, weight):
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if name.endswith("2"):
                self.total += weight
            else:
                shape = np.shape(a) if name == "rfft" else out.shape
                m = shape[kwargs.get("axis", -1)]
                self.total += weight * math.prod(shape) / (2 * m * m)
            return out
        return counted


class TestFFTBudget:
    """Transforms per step and per record inside ``run`` (the merged-step budget).

    Counted on ``run``'s sequential path (``in_one_process``), where this
    process takes every transform. A step is two complex transforms and
    the real pair of L: 3 FFT-equivalents on the full grid, which the
    shifted Gaussian takes, and 3c on the quarter of the centred one, where
    each transform is two passes of n/2+1 lines, c = (n/2+1)/n of one on
    the grid. Outside the boundaries ``run`` takes one transform of the
    initial field and, when adaptive, the real pair of the initial field's
    rate. Each boundary field formed (here each record after the first)
    takes one transform, and each record the half spectrum of |u|^2, half
    a transform, which the initial record shares with that rate.
    """

    def counted_run(self, monkeypatch, cfg, amplitude=1.2, shift=0.0):
        """(transforms in the steps, outside the steps and the records, steps, and the
        records' [transforms, count])."""
        counter = FFTCounter(monkeypatch)
        counts = {"_spectral_step": [0.0, 0], "_record": [0.0, 0]}

        def counted(name):
            fn = getattr(evolution, name)

            def wrapped(*args, **kwargs):
                before = counter.total
                out = fn(*args, **kwargs)
                counts[name][0] += counter.total - before
                counts[name][1] += 1
                return out
            return wrapped

        for name in counts:
            monkeypatch.setattr(evolution, name, counted(name))
        g = Grid2D(64, 12.0)
        x1, x2 = g.coords()
        u0 = Field(g, amplitude * np.exp(-((x1 - shift) ** 2 + x2**2) / 2))
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        before = counter.total
        res = run(s, cfg)
        in_steps = counts["_spectral_step"][0]
        elsewhere = counter.total - before - in_steps - counts["_record"][0]
        assert counts["_spectral_step"][1] == res.state.step_index
        return in_steps, elsewhere, res.state.step_index, counts["_record"]

    c = (64 // 2 + 1) / 64

    def assert_budget(self, counts, c, adaptive):
        in_steps, elsewhere, steps, (in_rec, n_rec) = counts
        assert n_rec == 6 and (steps > 50 if adaptive else steps == 50)
        assert in_steps == pytest.approx(3 * steps * c, rel=1e-12)
        # the initial field's transform, its rate's real pair when adaptive,
        # and one transform for each boundary field formed
        assert elsewhere == pytest.approx((1 + adaptive + n_rec - 1) * c, rel=1e-12)
        assert in_rec == pytest.approx(0.5 * (n_rec - adaptive) * c, rel=1e-12)

    def test_fixed_step_budget(self, monkeypatch, in_one_process):
        cfg = EvolveConfig(t_end=0.05, dt0=1e-3, sample_interval=0.01, guard=50.0)
        self.assert_budget(self.counted_run(monkeypatch, cfg), self.c, False)

    def test_adaptive_step_budget(self, monkeypatch, in_one_process):
        cfg = EvolveConfig(t_end=0.05, dt0=1e-3, adaptive=True, c_adapt=1e-3,
                           sample_interval=0.01, guard=50.0)
        self.assert_budget(self.counted_run(monkeypatch, cfg), self.c, True)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_full_grid_step_budget(self, monkeypatch, in_one_process, adaptive):
        cfg = EvolveConfig(t_end=0.05, dt0=1e-3, adaptive=adaptive, c_adapt=1e-3,
                           sample_interval=0.01, guard=50.0)
        self.assert_budget(self.counted_run(monkeypatch, cfg, shift=0.3), 1.0, adaptive)


class TestEstimateTStar:
    def test_exact_linear_model_recovered(self):
        records = [synthetic_record(t, 1.0 / (1.0 - t)) for t in np.linspace(0, 0.9995, 400)]
        est = estimate_t_star(records)
        assert est.t_star_estimate == pytest.approx(1.0, abs=1e-8)
        assert est.fit_residual <= 1e-10
        assert est.t_star_estimate > est.fit_window[1]

    def test_no_growth_rejected(self):
        records = [synthetic_record(t, 2.0) for t in np.linspace(0, 1, 30)]
        with pytest.raises(NoBlowupError):
            estimate_t_star(records)

    def test_root_inside_fit_window_rejected(self):
        # at the pseudo-conformal rate 1/grad_sq = (1 - t)^2 is convex, and the
        # line through the last 5 records meets 0 before the last of them
        records = [synthetic_record(t, (1.0 - t) ** -2) for t in np.linspace(0, 0.999, 400)]
        with pytest.raises(NoBlowupError, match="not beyond the fit window"):
            estimate_t_star(records)

    def test_too_few_terminal_records_rejected(self):
        records = [synthetic_record(t, 1.0 / (1.0 - t)) for t in np.linspace(0, 0.95, 12)]
        # only a handful of records carry 10x growth
        with pytest.raises(NoBlowupError):
            estimate_t_star(records)


class TestVirial:
    def test_linear_regime_lead_is_four_gradients(self):
        # amplitude 1e-6: effectively the free flow, whose second moment is
        # exactly V0 + c t + 4 ||grad u0||^2 t^2 = V0 + c t + 8 E t^2
        g = Grid2D(128, 20.0)
        p = OperatorParams(1, 1.0)
        u0 = gaussian(g, amplitude=1e-6)
        res = run(SimulationState.initial(u0, p), EvolveConfig(t_end=0.5, sample_interval=0.02))
        fit = virial_check(res.records, energy(u0, p))
        assert fit.coeffs[0] == pytest.approx(4 * gradient_norm_sq(u0), rel=0.01)
        assert fit.coeffs[0] == pytest.approx(8 * energy(u0, p), rel=0.01)
        # the reported error is the relative deviation of the lead from 8E0
        assert fit.leading_coeff_error == pytest.approx(0.0, abs=0.01)

    def test_focusing_run_lead_is_eight_energies(self):
        g = Grid2D(128, 20.0)
        p = OperatorParams(1, 1.0)
        u0 = gaussian(g, amplitude=2.0)
        e0 = energy(u0, p)
        res = run(
            SimulationState.initial(u0, p),
            EvolveConfig(t_end=0.1, dt0=1e-3, sample_interval=0.005, guard=10.0),
        )
        fit = virial_check(res.records, e0)
        assert fit.coeffs[0] == pytest.approx(8 * e0, rel=0.01)

    def test_standing_wave_records_constant(self, ground_state_128):
        # constant second moment fits a vanishing lead, consistent with E = 0
        v0 = 3.7
        records = [synthetic_record(t, 1.0, moment=v0) for t in np.linspace(0, 1, 9)]
        fit = virial_check(records, 0.0)
        assert abs(fit.coeffs[0]) <= 1e-8 * v0
        e_r = energy(ground_state_128.profile, OperatorParams(1, 1.0))
        assert abs(4 * e_r) <= 1e-3 * gradient_norm_sq(ground_state_128.profile)

    def test_invalid_moment_rejected_with_time(self):
        records = [synthetic_record(t, 1.0, valid=(t < 0.5)) for t in np.linspace(0, 1, 9)]
        with pytest.raises(DomainError, match="t=0.5"):
            virial_check(records, 1.0)

    def test_too_few_records(self):
        records = [synthetic_record(t, 1.0) for t in (0.0, 0.1, 0.2)]
        with pytest.raises(DomainError):
            virial_check(records, 1.0)


class TestNegativeEnergyBuilder:
    def test_focusing_succeeds_radially(self):
        g = Grid2D(128, 20.0)
        p = OperatorParams(1, 1.0)
        u = negative_energy_gaussian(g, p)
        assert energy(u, p) < 0
        # found within the radial family: no x2 elongation
        vals = np.abs(u.values)
        assert vals[64, 32] == pytest.approx(vals[32, 64], rel=1e-12)

    def test_infeasible_signs_refused(self):
        g = Grid2D(64, 20.0)
        for gamma in (0.5, 1.0):
            with pytest.raises(DomainError):
                negative_energy_gaussian(g, OperatorParams(-1, gamma))

    def test_defocusing_needs_anisotropy(self):
        g = Grid2D(128, 20.0)
        p = OperatorParams(-1, 1.5)
        u = negative_energy_gaussian(g, p)
        assert energy(u, p) < 0
        vals = np.abs(u.values)
        # elongated along x2: slower decay along axis 1
        assert vals[64, 96] > 2.0 * vals[96, 64]

    def test_feasibility_scan_matches_sign_condition(self):
        g = Grid2D(96, 20.0)
        for nu, gamma in [(1, 0.5), (1, 2.0), (-1, 1.5), (-1, 3.0)]:
            u = negative_energy_gaussian(g, OperatorParams(nu, gamma))
            assert energy(u, OperatorParams(nu, gamma)) < 0
        for nu, gamma in [(-1, 0.25), (-1, 1.0)]:
            with pytest.raises(DomainError):
                negative_energy_gaussian(g, OperatorParams(nu, gamma))
