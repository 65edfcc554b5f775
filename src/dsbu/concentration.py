"""Windowed-mass functionals and rescaled-snapshot diagnostics.

``windowed_mass_sup`` maximizes, over all grid centers y, the mass captured
by a disk or square window around y. The map y -> captured mass is the
periodic convolution of |u|^2 with the window indicator, evaluated for all
centers at once through the convolution theorem with real transforms (both
factors are real); a cell belongs to the window iff its center does, which
keeps the FFT path identical to the brute-force definition. For a field
even in x1 and in x2 the window indicator and |u|^2 are even, and so is the
map: it is made on the quarter of the grid (``spectral.Quarter``), indices
0..n/2 of each axis, at about half the transform cost and a quarter of the
memory.

``rescaled_snapshot`` produces v(x) = rho * u(rho x) with
rho = 1/||grad u||_2 on a grid scaled by rho, so that mass(v) = mass(u) and
||grad v||_2 = 1 hold exactly. Along a blow-up run, the energy of v decays
like rho^2 and its interaction term approaches 2, since
quartic(v) = 2 ||grad v||^2 - 4 E(v) and the rescaled energy vanishes.

The two trace drivers walk a snapshot sequence once, in increasing t:
disk windows follow a shrinking schedule lambda(t) toward the blow-up time
(mass captured must approach at least 2/c_opt), square windows have
sidelength C*sqrt(t_star - t) and track the captured L2 norm. The disk
trace walks the snapshots once for its schedule and the two t_star-shifted
sensitivity schedules. It builds no rescaled field: B's symbol is
homogeneous of degree 0, so the scaling identities ||grad v||^2 = 1 and
quartic(v) = rho^2 quartic(u) give E(v) = 1/2 - quartic(v)/4 from u alone.
Each kept snapshot's |u|^2 is transformed once, and that half spectrum is
shared by quartic(u) and every window of the three schedules. The window
kernels' half spectra are shared too: the windows of nearby snapshots and
schedules often hold the same lattice points, and each trace call keeps its
last sixteen kernel spectra (``KernelSpectra``), found by a window's count
of lattice points without building its kernel. Both traces measure a
snapshot on its space, (values, space): the grid's ``quarter`` for a
snapshot equal to its mirrors in x1 and x2 sample for sample, as the
snapshots of a run from even data are, else the full grid. An item gives
them as ``evolution.run``'s sink and ``snapshot_io.read_snapshot`` do, or
is a ``Field``, whose space ``spectral.on_its_space`` finds. Each
snapshot's measurement depends on no other snapshot, so both traces walk a
sequence of snapshots on two processes: a forked child measures the later
half while this process measures the earlier half, and the results come in
time order (where the platform can fork and this process runs no other
thread; else the walk is sequential, here). The records, the summary and
any error are those of a sequential walk. Hooks that count
calls in this process (a profiler, a test's counter) see only the earlier
half of such a walk; an iterable that is not a sequence is walked here alone.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from ._fork import Worker, may_fork
from .errors import DomainError
from .spectral import (
    Field,
    FieldTerms,
    Grid2D,
    OperatorParams,
    Quarter,
    gradient_norm_sq,
    hamiltonian,
    on_its_space,
)

DISK = "disk"
SQUARE = "square"


@dataclass(frozen=True)
class WindowSpec:
    """Window shape and size: radius for disks, sidelength for squares."""

    shape: str
    size: float

    def __post_init__(self):
        if self.shape not in (DISK, SQUARE):
            raise DomainError(f"unknown window shape {self.shape!r}")
        if not self.size > 0:
            raise DomainError(f"window size must be positive, got {self.size}")


class WindowedMass(NamedTuple):
    """Best captured mass, its maximizing center, and a whole-box flag."""

    best_mass: float
    best_center: tuple[float, float]
    clamped: bool


def _periodic_offsets(grid: Grid2D) -> np.ndarray:
    """Signed periodic displacement for each index offset, wrapped to [-L/2, L/2)."""
    off = grid.dx * np.arange(grid.n)
    return np.where(off < grid.box_length / 2, off, off - grid.box_length)


def _window_distance(off: np.ndarray, shape: str) -> np.ndarray:
    """Each offset pair's distance from index (0, 0), for the periodic offsets ``off`` of
    an axis: d1^2 + d2^2 for disks, max(|d1|, |d2|) for squares."""
    d1 = off[:, None]
    d2 = off[None, :]
    if shape == DISK:
        return d1**2 + d2**2
    return np.maximum(np.abs(d1), np.abs(d2))


def _window_bound(w: WindowSpec) -> float:
    """The largest ``_window_distance`` inside w: size^2 for disks, size/2 for squares."""
    return w.size**2 if w.shape == DISK else w.size / 2


def _window_kernel(off: np.ndarray, w: WindowSpec) -> np.ndarray:
    """Indicator of the window about index (0, 0), for the periodic offsets ``off`` of an axis."""
    return (_window_distance(off, w.shape) <= _window_bound(w)).astype(float)


def _space_offsets(space: Grid2D | Quarter) -> np.ndarray:
    """The periodic offsets of an axis of ``space``: the grid's, cut to the quarter."""
    return _periodic_offsets(space.grid)[: space.shape[0]]


class KernelSpectra:
    """The read-only half spectra of window kernels, kept for a trace; one serves one thread.

    A disk or square kernel is a nested lattice point set: growing the
    window only adds points. On a given space, the grid or its ``Quarter``,
    the count of its points therefore fixes it, and its spectrum is kept
    under (grid, space shape, window shape, count). The count comes from a
    sorted table of the space's ``_window_distance``, made once per space
    and window shape; the kernel is built only for a spectrum not kept. At
    most ``size`` spectra are held; the least recently used goes first. The
    disk trace's schedules walk one shrinking ladder of kernels at staggered
    times: on the seed-0 collapse-256 snapshots, 16 spectra make 66 + 88
    transforms of the two processes' 66 + 86 kernels, where 4 made
    172 + 210. Each trace call makes its own, and each process of a split
    walk holds its own copy.
    """

    size = 16

    def __init__(self):
        self._spectra: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._tables: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._spectra)

    def count(self, space: Grid2D | Quarter, w: WindowSpec) -> int:
        """The lattice points of w's kernel on ``space``: ``count_nonzero`` of the kernel."""
        key = (space.grid, space.shape, w.shape)
        table = self._tables.get(key)
        if table is None:
            table = np.sort(_window_distance(_space_offsets(space), w.shape), axis=None)
            self._tables[key] = table
        return int(np.searchsorted(table, _window_bound(w), side="right"))

    def spectrum(self, space: Grid2D | Quarter, w: WindowSpec, count: int) -> np.ndarray:
        """The spectrum of w's kernel on ``space``, of ``count`` points: the one kept, else
        ``space.rfft`` of the kernel, kept from now on."""
        key = (space.grid, space.shape, w.shape, count)
        spectrum = self._spectra.get(key)
        if spectrum is None:
            spectrum = space.rfft(_window_kernel(_space_offsets(space), w))
            spectrum.flags.writeable = False
            if len(self._spectra) == self.size:
                self._spectra.popitem(last=False)
            self._spectra[key] = spectrum
        self._spectra.move_to_end(key)
        return spectrum


def windowed_mass_sup(
    u: Field | FieldTerms, w: WindowSpec, kernels: KernelSpectra | None = None,
) -> WindowedMass:
    """Maximize the window-captured mass over all grid centers.

    Ties break toward the lexicographically smallest index. A window at
    least as large as the box captures everything; the result is then the
    total mass with ``clamped`` set. ``u`` is a ``Field``, whose map is made
    on the grid, or u's ``FieldTerms`` where the caller has them (the disk
    trace shares one ``rho_half`` per snapshot across its windows), on the
    grid or on the ``Quarter`` of a u even in x1 and x2. On the
    quarter the window and |u|^2 are even, so the map of captured mass is
    too, and it is made from the window's quarter. Every mirror of a quarter
    index comes later in C order, so the first maximum over the quarter is
    the first over the grid. ``kernels`` keeps the window's spectrum for
    later calls with the same kernel, which it finds without building it
    (each trace call has one); the same kernel gives the same bits, so the
    result is that of a call without it.
    """
    terms = FieldTerms.of(u) if isinstance(u, Field) else u
    space = terms.space
    grid = space.grid
    if not w.size > grid.dx:
        raise DomainError(f"window size {w.size} must exceed one cell (dx={grid.dx})")
    if kernels is None:
        kernel = _window_kernel(_space_offsets(space), w)
        count, spectrum = int(np.count_nonzero(kernel)), space.rfft(kernel)
    else:
        count = kernels.count(space, w)
        spectrum = kernels.spectrum(space, w, count)
    captured = space.irfft(terms.rho_half * spectrum)
    captured *= grid.dx**2
    idx = np.unravel_index(np.argmax(captured), captured.shape)
    return WindowedMass(
        best_mass=float(captured[idx]),
        best_center=(float(grid.x[idx[0]]), float(grid.x[idx[1]])),
        clamped=count == space.shape[0] * space.shape[1],
    )


def _unit_gradient_scale(grad: float) -> float:
    """rho = 1/||grad u|| from grad = gradient_norm_sq(u): the unit-gradient scale."""
    if grad <= 0.0:
        raise DomainError("rescaled snapshot undefined for gradient-free fields")
    return grad**-0.5


def rescaled_snapshot(u: Field) -> tuple[Field, float]:
    """Unit-gradient rescaling v(x) = rho * u(rho x), rho = 1/||grad u||.

    The rescaled field lives on a grid with box_length / rho and the same n,
    where the sample points coincide with the originals, so mass(v) = mass(u)
    and gradient_norm_sq(v) = 1 hold to roundoff.
    """
    rho = _unit_gradient_scale(gradient_norm_sq(u))
    v_grid = Grid2D(u.grid.n, u.grid.box_length / rho)
    return Field(v_grid, rho * u.values), rho


PARABOLIC_MINUS_EPS = "parabolic_minus_eps"
CONIC = "conic"


@dataclass(frozen=True)
class LambdaSchedule:
    """Shrinking window-radius schedule toward t_star.

    parabolic_minus_eps: lambda(t) = (t_star - t)^(1/2 - epsilon); combined
    with the blow-up rate bound this guarantees lambda * ||grad u|| grows.
    conic: lambda(t) = (t_star - t)^(1 - epsilon), the narrower window that
    the minimal-mass solution still concentrates in.
    """

    kind: str
    epsilon: float
    t_star: float

    def __post_init__(self):
        if self.kind not in (PARABOLIC_MINUS_EPS, CONIC):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise DomainError(f"epsilon must lie in (0, 1/2), got {self.epsilon}", key="epsilon")

    def __call__(self, t: float) -> float:
        gap = self.t_star - t
        if gap <= 0.0:
            return 0.0
        exponent = 0.5 - self.epsilon if self.kind == PARABOLIC_MINUS_EPS else 1.0 - self.epsilon
        return float(gap**exponent)


@dataclass(frozen=True)
class ConcentrationRecord:
    """Windowed-mass measurement of one snapshot.

    The ``WindowedMass`` fields follow t and window. The rescaled diagnostics
    are filled by the disk trace (they need the operator parameters); the
    square trace leaves them None.
    """

    t: float
    window: WindowSpec
    best_mass: float
    best_center: tuple[float, float]
    clamped: bool
    rho: float | None
    rescaled_quartic: float | None
    rescaled_energy: float | None


@dataclass
class DiskTraceSummary:
    """Terminal-segment digest of a disk concentration trace.

    The terminal segment holds the records within the last decade of
    gradient growth (||grad u|| within 10x of its maximum); liminf-style
    statements are read off min/final over that segment. ``threshold_mass``
    is 2/c_opt, the mass the theory guarantees in the shrinking windows.
    """

    threshold_mass: float
    terminal_min_mass: float
    terminal_final_mass: float
    min_ratio: float
    final_ratio: float
    lambda_grad_products: list[float]
    lambda_grad_growing: bool
    energy_trend_ok: bool
    terminal_quartic_dev: float
    final_quartic_dev: float
    final_rescaled_energy: float
    sensitivity: dict
    skipped_times: list[float]


def _terminal_segment(records: list[ConcentrationRecord]) -> list[ConcentrationRecord]:
    rho_min = min(r.rho for r in records)
    return [r for r in records if r.rho <= 10.0 * rho_min]


def _mass_ratios(terminal: list[ConcentrationRecord], threshold: float) -> dict:
    return {
        "min_ratio": min(r.best_mass for r in terminal) / threshold,
        "final_ratio": terminal[-1].best_mass / threshold,
    }


def _check_increasing(t: float, last: float | None) -> None:
    if last is not None and not t > last:
        raise DomainError(f"snapshot at t = {t} follows t = {last}; traces need increasing t")


def _in_time_order(snapshots: Iterable[tuple]) -> Iterator[tuple]:
    """The items (t, values, space) or (t, u) of ``snapshots`` as (t, values, space), a
    ``Field`` u on the space of ``on_its_space``; DomainError if there are none or t
    fails to increase."""
    last = None
    for t, *field in snapshots:
        _check_increasing(t, last)
        last = t
        yield t, *(field if len(field) == 2 else on_its_space(*field))
    if last is None:
        raise DomainError("no snapshots to trace")


def _later_half(snapshots: Sequence[tuple], start: int, work: Callable) -> tuple:
    """The outcome of work over items ``start``.. of ``snapshots``: ((the t of item
    ``start``, None if reading it failed; the results), the first error or None)."""
    t_first, results = None, []
    try:
        for item in _in_time_order(snapshots[i] for i in range(start, len(snapshots))):
            if t_first is None:
                t_first = item[0]
            results.append(work(*item))
    except Exception as exc:
        return (t_first, results), exc
    return (t_first, results), None


def _traced_in_order(
    snapshots: Iterable[tuple], work_for: Callable[[float], Callable],
) -> Iterator[tuple]:
    """work(t, values, space) for each item of ``_in_time_order(snapshots)``, in that order.

    ``work = work_for(t0)`` is made once, from the first t. A sequence of
    n >= 2 items is walked on two processes where ``_fork.may_fork`` allows
    it: after reading item 0 this process forks one ``_fork.Worker``, which
    walks items m..n-1, m = ceil(n/2), and sends its results, or its first
    error, back. This process walks items 0..m-1,
    yields their results, then checks that t increases from item m-1 to
    item m and yields the child's. Any other iterable is walked here, in
    order. Either way the results and the error are a sequential walk's:
    an error in the first half ends the child, and the child's error is
    raised after the first half's results, with its type and message. The
    child is reaped on every path, an early ``close()`` included. Each
    process measures with its own state (its own ``KernelSpectra``); the
    same kernel gives the same bits, so the results do too. Anything that
    counts calls inside this process sees only the first half of a split
    walk: the child's reads and measurements happen in the child. A child
    that ends without its whole outcome (killed, or failing with no error to
    send) is a ``RuntimeError`` naming its snapshots and exit code.
    """
    count = len(snapshots) if isinstance(snapshots, Sequence) else 0
    if count < 2 or not may_fork():
        work = None
        for item in _in_time_order(snapshots):
            if work is None:
                work = work_for(item[0])
            yield work(*item)
        return
    first = snapshots[0]
    work = work_for(first[0])
    split = (count + 1) // 2
    later = lambda send, wait: _later_half(snapshots, split, work)
    with Worker(later, f"the trace's worker for snapshots {split}..{count - 1}") as worker:
        last = None
        for item in _in_time_order(chain([first], (snapshots[i] for i in range(1, split)))):
            last = item[0]
            yield work(*item)
        (t_first, results), error = worker.outcome()
    if t_first is not None:
        _check_increasing(t_first, last)
    yield from results
    if error is not None:
        raise error


#: Keys of the disk trace's schedules and of its record lists.
_SCHEDULE_TAGS = ("main", "minus_2pct", "plus_2pct")


def _shifted_schedules(schedule: LambdaSchedule, t0: float) -> dict[str, LambdaSchedule]:
    """The disk trace's schedules: ``schedule`` and two with t_star moved by -+2% of t_star - t0."""
    shift = 0.02 * (schedule.t_star - t0)
    return {tag: replace(schedule, t_star=schedule.t_star + s)
            for tag, s in zip(_SCHEDULE_TAGS, (0.0, -shift, shift))}


def _disk_rows(
    schedules: dict[str, LambdaSchedule], params: OperatorParams, kernels: KernelSpectra,
    t: float, values: np.ndarray, space: Grid2D | Quarter,
) -> tuple[float, bool, list[tuple[str, ConcentrationRecord]]]:
    """One snapshot of the disk trace, its samples ``values`` on ``space``: t, whether the
    main schedule skips it, and a (tag, record) pair for each schedule that keeps it.
    ``kernels`` is the trace's ``KernelSpectra`` (each process of a split walk has its own)."""
    rows, main_skips, terms = [], False, None
    for tag, sched in schedules.items():
        lam = sched(t)
        if lam <= space.dx:
            main_skips = main_skips or tag == "main"
            continue
        if terms is None:
            terms = FieldTerms(values, space)
            rho = _unit_gradient_scale(terms.grad)
            quartic = rho**2 * terms.quartic(params)
            en = hamiltonian(1.0, quartic)
        window = WindowSpec(DISK, lam)
        wm = windowed_mass_sup(terms, window, kernels)
        rows.append((tag, ConcentrationRecord(t, window, *wm, rho, quartic, en)))
    return t, main_skips, rows


def disk_concentration_trace(
    snapshots: Iterable[tuple],
    schedule: LambdaSchedule,
    c_opt: float,
    params: OperatorParams,
) -> tuple[list[ConcentrationRecord], DiskTraceSummary]:
    """Disk-window concentration measurements along a blow-up run.

    ``snapshots`` is any iterable, walked once, of (t, values, space) in
    increasing t, the samples of u at time t on their space (the items that
    ``evolution.run`` hands its sink), or of (t, u) with u a ``Field``, measured
    on the space that ``spectral.on_its_space`` finds. A sequence of two or
    more may be walked on two processes (``_traced_in_order``), with a sequential walk's
    outcome. Snapshots with a nonpositive or sub-cell schedule value are
    skipped and reported. The summary compares captured mass against 2/c_opt
    over the terminal segment, checks that lambda * ||grad u|| grows (the window
    hypothesis), that |rescaled energy| decays to zero up to 5% ripple, and
    how far the terminal interaction term sits from 2. Sensitivity of the
    mass ratios to the extrapolated t_star is reported from two schedules
    with t_star shifted by +-2% of the trace span, traced in the same pass.
    The rescaled diagnostics do not depend on the schedule: each snapshot's
    are computed once, when the first schedule keeps it, from the scaling
    identities and the ``FieldTerms`` of u on its space, whose one transform
    of |u|^2 its windows share.
    """
    rows: dict[str, list[ConcentrationRecord]] = {tag: [] for tag in _SCHEDULE_TAGS}
    skipped: list[float] = []
    work_for = lambda t0: partial(_disk_rows, _shifted_schedules(schedule, t0), params,
                                  KernelSpectra())
    for t, main_skips, kept in _traced_in_order(snapshots, work_for):
        if main_skips:
            skipped.append(t)
        for tag, record in kept:
            rows[tag].append(record)
    records = rows.pop("main")
    if not records:
        raise DomainError("every snapshot was skipped by the schedule")
    threshold = 2.0 / c_opt
    terminal = _terminal_segment(records)
    products = [r.window.size / r.rho for r in records]
    energies = [abs(r.rescaled_energy) for r in terminal]
    # decay up to 5% ripple; values three decades below the trace maximum
    # count as converged to zero (discretization floor)
    floor = 1e-3 * max(abs(r.rescaled_energy) for r in records)
    trend_ok = all(
        later <= earlier * 1.05 + floor
        for earlier, later in zip(energies, energies[1:])
    )
    quartic_dev = max(abs(r.rescaled_quartic - 2.0) / 2.0 for r in terminal)
    sensitivity = {
        tag: _mass_ratios(_terminal_segment(recs), threshold) if recs else None
        for tag, recs in rows.items()
    }

    summary = DiskTraceSummary(
        threshold_mass=threshold,
        terminal_min_mass=min(r.best_mass for r in terminal),
        terminal_final_mass=terminal[-1].best_mass,
        **_mass_ratios(terminal, threshold),
        lambda_grad_products=products,
        lambda_grad_growing=products[-1] > products[0],
        energy_trend_ok=trend_ok,
        terminal_quartic_dev=quartic_dev,
        final_quartic_dev=abs(records[-1].rescaled_quartic - 2.0) / 2.0,
        final_rescaled_energy=records[-1].rescaled_energy,
        sensitivity=sensitivity,
        skipped_times=skipped,
    )
    return records, summary


@dataclass
class SquareTraceSummary:
    """Digest of a square-window trace: captured L2 norms near t_star.

    The terminal decade holds the snapshots with t_star - t within 10x of
    its smallest value; the limsup-style statement is the max over it, and
    ``above_eta`` reports whether even the min clears the threshold.
    """

    max_sqrt_mass: float
    terminal_min_sqrt_mass: float
    terminal_max_sqrt_mass: float
    eta: float
    above_eta: bool
    skipped_times: list[float]


def _square_rows(
    c_side: float, t_star: float, kernels: KernelSpectra, t: float, values: np.ndarray,
    space: Grid2D | Quarter,
) -> tuple[float, bool, list[ConcentrationRecord]]:
    """One snapshot of the square trace, its samples ``values`` on ``space``: t, whether it
    is skipped, and its record if kept."""
    if t >= t_star:
        return t, True, []
    side = c_side * np.sqrt(t_star - t)
    if side <= space.dx:
        return t, True, []
    window = WindowSpec(SQUARE, side)
    wm = windowed_mass_sup(FieldTerms(values, space), window, kernels)
    return t, False, [ConcentrationRecord(t, window, *wm, None, None, None)]


def square_concentration_trace(
    snapshots: Iterable[tuple],
    c_side: float,
    t_star: float,
    eta: float,
) -> tuple[list[ConcentrationRecord], SquareTraceSummary]:
    """Square-window trace with sidelength c_side * sqrt(t_star - t).

    Needs no gradient data (suits mass-only runs). ``snapshots`` is any
    iterable of (t, values, space) or (t, u) in increasing t, walked once,
    as in the disk trace (a sequence of two or more on two processes), and
    each window is maximized on the snapshot's space. Snapshots at or beyond
    t_star, or with sub-cell windows, are skipped with their times reported.
    """
    if not c_side > 0:
        raise DomainError(f"c_side must be positive, got {c_side}")
    records: list[ConcentrationRecord] = []
    skipped: list[float] = []
    work_for = lambda t0: partial(_square_rows, c_side, t_star, KernelSpectra())
    for t, skips, kept in _traced_in_order(snapshots, work_for):
        if skips:
            skipped.append(t)
        records += kept
    if not records:
        raise DomainError("every snapshot was skipped (t_star too early or windows sub-cell)")
    gaps = np.array([t_star - r.t for r in records])
    terminal = [r for r, gap in zip(records, gaps) if gap <= 10.0 * gaps.min()]
    sqrts = [np.sqrt(r.best_mass) for r in records]
    term_sqrts = [np.sqrt(r.best_mass) for r in terminal]
    summary = SquareTraceSummary(
        max_sqrt_mass=float(max(sqrts)),
        terminal_min_sqrt_mass=float(min(term_sqrts)),
        terminal_max_sqrt_mass=float(max(term_sqrts)),
        eta=eta,
        above_eta=bool(min(term_sqrts) > eta),
        skipped_times=skipped,
    )
    return records, summary

