"""Binary field snapshots.

Layout (all little-endian):

    magic   4 bytes  b"DSBU"
    version u32      currently 1
    n       u32
    nu      i32
    box_length f64
    t          f64
    gamma      f64
    payload  16*n*n bytes: complex128 samples, row-major, x2 fastest
    crc32   u32      checksum of the payload

Writes go through ``atomic_write`` (a temp file and an atomic rename, also
used for every text file the CLI writes); reads validate magic,
version, structural sizes, the header values (n and box_length by
``Grid2D``, nu and gamma by ``OperatorParams``, t finite), and the checksum.
``read_header`` makes every check but the checksum, from the header alone.
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
from .spectral import Field, Grid2D, OperatorParams

MAGIC = b"DSBU"
VERSION = 1
_HEADER = struct.Struct("<4sIIiddd")


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
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    os.replace(tmp, path)


def write_snapshot(path: str, field: Field, meta: SnapshotMeta) -> None:
    """Write a snapshot of the field's physical samples atomically."""
    header = _HEADER.pack(
        MAGIC, VERSION, field.grid.n, meta.nu, field.grid.box_length, meta.t, meta.gamma
    )
    payload = np.ascontiguousarray(field.values, dtype="<c16")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    atomic_write(path, header, payload, struct.pack("<I", crc))


def _checked_header(path: str, fh) -> tuple[Grid2D, SnapshotMeta]:
    """Grid and metadata from the header of the open snapshot ``fh``, checked with its size."""
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size + 4:
        raise SnapshotFormatError(f"{path}: truncated file ({size} bytes)")
    magic, version, n, nu, box_length, t, gamma = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported format version {version}")
    if not math.isfinite(t):
        raise SnapshotFormatError(f"{path}: bad header: t = {t}, must be finite")
    expected = _HEADER.size + 16 * n * n + 4
    if size != expected:
        raise SnapshotFormatError(
            f"{path}: structural size mismatch: header says n={n} "
            f"(expect {expected} bytes), file has {size}"
        )
    # grid and couplings are checked once the file size has vouched for n
    try:
        grid = _shared_grid(n, box_length)
        OperatorParams(nu, gamma)
    except UsageError as exc:
        raise SnapshotFormatError(f"{path}: bad header: {exc}") from None
    return grid, SnapshotMeta(t=t, nu=nu, gamma=gamma)


def read_header(path: str) -> SnapshotMeta:
    """A snapshot's metadata, with every check of ``read_snapshot`` but the checksum."""
    with open(path, "rb") as fh:
        return _checked_header(path, fh)[1]


def read_snapshot(path: str) -> tuple[Field, SnapshotMeta]:
    """Read and validate a snapshot written by ``write_snapshot``.

    The payload is read straight into the field's array. Snapshots on the
    same (n, box_length) share one ``Grid2D``.
    """
    with open(path, "rb") as fh:
        grid, meta = _checked_header(path, fh)
        values = np.empty((grid.n, grid.n), dtype="<c16")
        fh.readinto(values)
        stored = fh.read(4)
    if stored != struct.pack("<I", zlib.crc32(values) & 0xFFFFFFFF):
        raise SnapshotFormatError(
            f"{path}: checksum mismatch over payload bytes "
            f"[{_HEADER.size}, {_HEADER.size + values.nbytes})"
        )
    return Field(grid, values), meta
