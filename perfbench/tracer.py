"""In-process tracing for one repetition: an FFT counter and layer spans.

Nothing here edits the program. ``Tracer.install_fft`` replaces the public
FFT entry points of ``numpy.fft`` and ``scipy.fft`` by counting wrappers, and
must run before ``dsbu`` is imported, so that a later
``from scipy.fft import rfft2`` binds the wrapper too. ``Tracer.install_spans``
then wraps, by module attribute, the functions where one ``dsbu`` module calls
another, plus a few module-internal layer entry points.

FFT work is counted in complex 2-D FFT-equivalents: a complex transform of one
n x n array is 1; over the transformed axes, each line transform of length m
counts 1/(2m) (an n x n 2-D transform is 2n such lines), and a real
(r2c/c2r) transform counts half.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time

_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_REAL_IN = ("rfft", "ihfft", "rfft2", "ihfft2", "rfftn", "ihfftn")
_REAL_OUT = ("irfft", "hfft", "irfft2", "hfft2", "irfftn", "hfftn")


def fft_equivalents(name: str, shape: tuple[int, ...], axes) -> float:
    """Complex 2-D FFT-equivalents of transforming ``axes`` of a ``shape`` array."""
    size = math.prod(shape)
    eq = sum(size / (2.0 * shape[a] ** 2) for a in axes)
    return eq if name in _COMPLEX else 0.5 * eq


def _axes(name: str, ndim: int, bound: dict) -> list[int]:
    if name.endswith("2"):
        axes = bound.get("axes", (-2, -1))
    elif name.endswith("n"):
        axes = bound.get("axes")
        if axes is None:
            s = bound.get("s")
            axes = range(ndim - len(s), ndim) if s is not None else range(ndim)
    else:
        axes = (bound.get("axis", -1),)
    return [a % ndim for a in axes]


def _logical_shape(name: str, in_shape: tuple, out_shape: tuple, axes: list[int],
                   bound: dict) -> tuple:
    # The array whose lines are transformed: the output of complex and c2r
    # transforms, the input of r2c ones, zero-padded or cut to n / s.
    if name not in _REAL_IN:
        return out_shape
    shape = list(in_shape)
    lengths = bound.get("s")
    if lengths is None and bound.get("n") is not None:
        lengths = (bound["n"],)
    for a, m in zip(axes, lengths or ()):
        shape[a] = m
    return tuple(shape)


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "fft")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.fft = 0.0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "fft": self.fft}


class Tracer:
    """Counters and spans of one process; spans nest through a stack."""

    def __init__(self):
        self.fft_equiv = 0.0
        self.fft_s = 0.0
        self.grids_built = 0
        self.spans: dict[str, SpanStat] = {}
        self.values: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._fft_depth = 0

    # -- FFT counter -------------------------------------------------------
    def _fft_wrapper(self, name: str, fn):
        import numpy

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._fft_depth:
                return fn(*args, **kwargs)
            self._fft_depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.fft_s += time.perf_counter() - t0
                self._fft_depth -= 1
            bound = signature.bind(*args, **kwargs).arguments
            in_shape = numpy.shape(next(iter(bound.values())))
            axes = _axes(name, len(in_shape), bound)
            shape = _logical_shape(name, in_shape, out.shape, axes, bound)
            self.fft_equiv += fft_equivalents(name, shape, axes)
            return out

        return counted

    def install_fft(self) -> None:
        """Wrap numpy.fft and scipy.fft entry points; call before importing dsbu."""
        import numpy.fft

        modules = [numpy.fft]
        try:
            import scipy.fft
        except ImportError:
            pass
        else:
            modules.append(scipy.fft)
        for module in modules:
            for name in _COMPLEX + _REAL_IN + _REAL_OUT:
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self._fft_wrapper(name, fn))

    # -- spans -------------------------------------------------------------
    def span(self, key: str, fn, on_result=None):
        """Wrap ``fn`` so each call adds to span ``key``; ``on_result`` sees the call."""
        stat = self.spans.setdefault(key, SpanStat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            fft0 = self.fft_equiv
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                stat.fft += self.fft_equiv - fft0
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def install_spans(self) -> None:
        """Wrap the cross-module calls of the dsbu package and its layer entry points."""
        from dsbu import cli, concentration, evolution, ground_state, snapshot_io, spectral

        # Every function one dsbu module imported from another, as bound in
        # the caller's namespace: span "<caller>:<callee module>.<name>".
        for caller in (cli, evolution, concentration, ground_state, snapshot_io):
            short = caller.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(caller).items()):
                home = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and home.startswith("dsbu.")
                        and home != caller.__name__):
                    key = f"{short}:{home.rsplit('.', 1)[1]}.{name}"
                    setattr(caller, name, self.span(key, obj, self._hook(key)))

        # Module-internal layer entry points.
        for module, name in ((evolution, "strang_step"), (evolution, "_record"),
                             (concentration, "windowed_mass_sup"),
                             (concentration, "rescaled_snapshot")):
            short = module.__name__.rsplit(".", 1)[1]
            key = f"{short}:{short}.{name}"
            setattr(module, name, self.span(key, getattr(module, name)))

        # Snapshot copies held by run, and grid construction.
        spectral.Field.copy = self.span("evolution:spectral.Field.copy", spectral.Field.copy)
        grid_init = spectral.Grid2D.__init__

        @functools.wraps(grid_init)
        def counted_init(grid, *args, **kwargs):
            self.grids_built += 1
            grid_init(grid, *args, **kwargs)

        spectral.Grid2D.__init__ = counted_init

    def _hook(self, key: str):
        if key == "cli:evolution.run":
            def on_run(args, result):
                self.add("evolution.steps", result.state.step_index - args[0].step_index)
                self.add("evolution.snapshot_bytes_held",
                         sum(f.values.nbytes for _, f in result.snapshots))
            return on_run
        if key == "cli:ground_state.solve_ground_state":
            return lambda args, result: self.add("ground_state.iterations", result.iterations)
        if key == "cli:concentration.disk_concentration_trace":
            return lambda args, result: self.add("concentration.snapshots", len(args[0]))
        if key == "cli:snapshot_io.write_snapshot":
            return lambda args, result: self.add("snapshot_io.write_bytes",
                                                  os.path.getsize(args[0]))
        if key == "cli:snapshot_io.read_snapshot":
            return lambda args, result: self.add("snapshot_io.read_bytes",
                                                  os.path.getsize(args[0]))
        return None

    def report(self) -> dict:
        return {
            "fft_equiv": self.fft_equiv,
            "fft_s": self.fft_s,
            "grids_built": self.grids_built,
            "values": dict(self.values),
            "spans": {k: v.as_dict() for k, v in self.spans.items() if v.calls},
        }
