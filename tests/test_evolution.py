"""Time stepper, run driver, blow-up extrapolation, and virial tests."""

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
    negative_energy_gaussian,
    run,
    strang_step,
    virial_check,
)
from dsbu.ground_state import solve_ground_state
from dsbu.spectral import FieldTerms, interaction_potential

import oracles
from oracles import SnapshotList, reference_run


def gaussian(grid, amplitude=1.0, width=1.0):
    x1, x2 = grid.coords()
    return Field(grid, amplitude * np.exp(-(x1**2 + x2**2) / (2 * width**2)))


@pytest.fixture(scope="module")
def ground_state_128():
    return solve_ground_state(Grid2D(128, 20.0), OperatorParams(1, 1.0))


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

    def test_l4_accumulation_trapezoid(self):
        g = Grid2D(64, 10.0)
        u0 = gaussian(g, amplitude=1.5)
        s = SimulationState.initial(u0, OperatorParams(1, 1.0))
        dt = 0.01
        out = strang_step(s, dt)
        expected = 0.5 * dt * (l4_norm_4(u0) + l4_norm_4(out.u))
        assert out.l4_accum == pytest.approx(expected, rel=1e-14)

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

    def test_unbound_adaptive_run_matches_fixed_bitwise(self):
        # with a huge c_adapt the rate bound never binds, dt stays dt0 and
        # the cached half-step multiplier is reused exactly as in fixed mode
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

    def test_snapshot_ladder_takes_one_gradient_per_boundary(self, monkeypatch):
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
        state = SimulationState.initial(u, p)
        rec = evolution._record(state, 0.0)
        assert rec.mass == mass(u)
        assert rec.gradient_norm_sq == gradient_norm_sq(u)
        assert rec.energy == energy(u, p)
        assert rec.second_moment == second_moment(u).value
        rho = values.real**2 + values.imag**2
        assert state.l4_last == l4_norm_4(u) == g.dx**2 * float(np.sum(np.square(rho)))


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
    """``run`` keeps u_hat between steps; it must reproduce repeated ``strang_step``."""

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

    def test_nonfinite_initial_field_rejected(self):
        s = drawn_gaussian(1.0, 1.0)
        s.u.values[5, 7] = np.nan
        cfg = EvolveConfig(t_end=0.01, dt0=1e-3)
        for driver in (run, reference_run):
            with pytest.raises(DomainError, match="non-finite"):
                driver(s, cfg)

    @pytest.fixture
    def fail_third_step(self, monkeypatch):
        """Both drivers fail on their third step: ``run`` on a NaN in the new
        field, ``reference_run`` on strang_step's BlowupOverflowError."""
        step, ref_step = evolution._spectral_step, oracles.strang_step
        calls = []

        def failing_third_step(uhat, *args):
            calls.append(1)
            u = step(uhat, *args)
            if len(calls) == 3:
                u[5, 7] = np.nan
            return u

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


class FFTCounter:
    """Counts numpy.fft calls in complex 2-D FFT-equivalents (real transforms count half)."""

    COMPLEX = ("fft2", "ifft2")
    REAL = ("rfft2", "irfft2")

    def __init__(self, monkeypatch):
        self.total = 0.0
        for name in self.COMPLEX + self.REAL:
            weight = 1.0 if name in self.COMPLEX else 0.5
            monkeypatch.setattr(np.fft, name, self._counted(getattr(np.fft, name), weight))

    def _counted(self, fn, weight):
        def counted(*args, **kwargs):
            self.total += weight
            return fn(*args, **kwargs)
        return counted


class TestFFTBudget:
    """Transforms per step and per record inside ``run`` (the spectral-state budget)."""

    def counted_run(self, monkeypatch, cfg, amplitude=1.2):
        counter = FFTCounter(monkeypatch)
        in_records = [0.0, 0]
        record = evolution._record

        def counted_record(*args, **kwargs):
            before = counter.total
            out = record(*args, **kwargs)
            in_records[0] += counter.total - before
            in_records[1] += 1
            return out

        monkeypatch.setattr(evolution, "_record", counted_record)
        s = drawn_gaussian(amplitude, 1.0)
        before = counter.total
        res = run(s, cfg)
        steps = res.state.step_index
        return counter.total - before - in_records[0], steps, in_records

    def test_fixed_step_budget(self, monkeypatch):
        cfg = EvolveConfig(t_end=0.05, dt0=1e-3, sample_interval=0.01, guard=50.0)
        in_steps, steps, (in_rec, n_rec) = self.counted_run(monkeypatch, cfg)
        assert steps == 50 and n_rec == 6
        # 4 per step, plus the one transform of the initial field
        assert in_steps <= 4 * steps + 1
        assert in_rec <= 0.5 * n_rec

    def test_adaptive_step_budget(self, monkeypatch):
        cfg = EvolveConfig(t_end=0.05, dt0=1e-3, adaptive=True, c_adapt=1e-3,
                           sample_interval=0.01, guard=50.0)
        in_steps, steps, (in_rec, n_rec) = self.counted_run(monkeypatch, cfg)
        assert steps > 50
        assert in_steps <= 5 * steps + 1
        assert in_rec <= 0.5 * n_rec


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
