"""Binary field snapshots.

Layout (all little-endian), format version 2:

    magic   4 bytes  b"DSBU"
    version u32      2
    n       u32
    nu      i32
    box_length f64
    t          f64
    gamma      f64
    parity  u32      1 for a field even in x1 and in x2, else 0
    payload  16*m*m bytes: complex128 samples, row-major, x2 fastest;
             m = n/2+1 for an even field (its quarter, indices 0..n/2 of
             each axis, ``spectral.Quarter``), else m = n
    crc32   u32      checksum of the payload

Version 1 files, the same layout without the parity word and always with
the full n x n payload, are still read. An even field's quarter is 25.4%
of the full payload at n = 256 and unfolds bitwise to the full field.

Writes go through ``atomic_write`` (a temp file and an atomic rename, also
used for every text file the CLI writes); a write that fails is a
UsageError naming the path. Reads validate magic, version, the parity
flag, structural sizes, the header values (n and box_length by
``Grid2D``, nu and gamma by ``OperatorParams``, t finite), and the
checksum. ``read_header`` makes every check but the checksum, from the
header alone.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import SnapshotFormatError, UsageError
from .spectral import Field, Grid2D, OperatorParams, Quarter, on_its_space

MAGIC = b"DSBU"
VERSION = 2
#: The header of version 1; version 2 appends ``_PARITY``.
_HEADER = struct.Struct("<4sIIiddd")
_PARITY = struct.Struct("<I")


#: One grid per (n, box_length) for every snapshot read; grids are immutable,
#: and the snapshots of a run all share one.
_shared_grid = functools.lru_cache(maxsize=8)(Grid2D)


@dataclass(frozen=True)
class SnapshotMeta:
    """Run metadata carried alongside the field samples."""

    t: float
    nu: int
    gamma: float


def atomic_write(path: str, *chunks: bytes | str | np.ndarray) -> None:
    """Write ``chunks`` in order to ``path`` through a temp file and an atomic rename.

    str chunks are written as UTF-8, any other as its bytes (a buffer such as
    bytes or a contiguous array). A reader sees the old file or the whole new one.
    A file that cannot be written (any OSError) is a UsageError naming ``path``.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise UsageError(f"cannot write {path}: {exc}") from exc


def write_snapshot(
    path: str, field: Field | tuple[np.ndarray, Grid2D | Quarter], meta: SnapshotMeta
) -> None:
    """Write a snapshot atomically, an even field as its quarter.

    ``field`` is the pair (values, space) that ``evolution.run``'s sink is
    handed and ``read_snapshot`` returns: samples on the grid, or on the
    ``Quarter`` of an even field. A ``Field`` is written on the space that
    ``spectral.on_its_space`` finds for it.
    """
    values, space = on_its_space(field) if isinstance(field, Field) else field
    grid = space.grid
    header = _HEADER.pack(
        MAGIC, VERSION, grid.n, meta.nu, grid.box_length, meta.t, meta.gamma
    ) + _PARITY.pack(space is not grid)
    payload = np.ascontiguousarray(values, dtype="<c16")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    atomic_write(path, header, payload, struct.pack("<I", crc))


def _checked_header(path: str, fh) -> tuple[Grid2D | Quarter, SnapshotMeta, bool]:
    """The space of the payload (the grid, or its quarter for an even field), the metadata,
    and whether the header names that space (version 2; a version-1 payload is always the
    grid's), from the header of the open snapshot ``fh``, checked with its size."""
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size + 4:
        raise SnapshotFormatError(f"{path}: truncated file ({size} bytes)")
    magic, version, n, nu, box_length, t, gamma = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version not in (1, VERSION):
        raise SnapshotFormatError(f"{path}: unsupported format version {version}")
    if not math.isfinite(t):
        raise SnapshotFormatError(f"{path}: bad header: t = {t}, must be finite")
    start, parity, side = _HEADER.size, None, n
    if version == VERSION:
        start += _PARITY.size
        if size < start + 4:
            raise SnapshotFormatError(f"{path}: truncated file ({size} bytes)")
        (parity,) = _PARITY.unpack(fh.read(_PARITY.size))
        if parity not in (0, 1):
            raise SnapshotFormatError(
                f"{path}: bad parity flag {parity} in header bytes "
                f"[{_HEADER.size}, {start}), must be 0 or 1"
            )
        side = n // 2 + 1 if parity else n
    expected = start + 16 * side * side + 4
    if size != expected:
        raise SnapshotFormatError(
            f"{path}: structural size mismatch: header says n={n}"
            f"{'' if parity is None else f', parity {parity}'}: payload bytes "
            f"[{start}, {expected - 4}) (expect {expected} bytes), file has {size}"
        )
    # grid and couplings are checked once the file size has vouched for n
    try:
        grid = _shared_grid(n, box_length)
        OperatorParams(nu, gamma)
    except UsageError as exc:
        raise SnapshotFormatError(f"{path}: bad header: {exc}") from None
    return grid.quarter if parity else grid, SnapshotMeta(t, nu, gamma), parity is not None


def read_header(path: str) -> SnapshotMeta:
    """A snapshot's metadata, with every check of ``read_snapshot`` but the checksum."""
    with open(path, "rb") as fh:
        return _checked_header(path, fh)[1]


def read_snapshot(path: str) -> tuple[tuple[np.ndarray, Grid2D | Quarter], SnapshotMeta]:
    """Read and validate a snapshot written by ``write_snapshot`` (format 1 or 2).

    Returns ((values, space), meta), which ``write_snapshot`` takes. The
    payload is read straight into the array of samples on the space that a
    version-2 header names: the grid, or the ``Quarter`` of an even field,
    which is not unfolded. A version-1 payload, always the grid's, is put on
    the space that ``spectral.on_its_space`` finds for it. Snapshots on the
    same (n, box_length) share one ``Grid2D`` and its ``quarter``.
    """
    with open(path, "rb") as fh:
        space, meta, named = _checked_header(path, fh)
        start = fh.tell()
        values = np.empty(space.shape, dtype="<c16")
        fh.readinto(values)
        stored = fh.read(4)
    if stored != struct.pack("<I", zlib.crc32(values) & 0xFFFFFFFF):
        raise SnapshotFormatError(
            f"{path}: checksum mismatch over payload bytes "
            f"[{start}, {start + values.nbytes})"
        )
    return (values, space) if named else on_its_space(Field(space, values)), meta
