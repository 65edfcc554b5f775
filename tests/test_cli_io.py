"""Config parsing, snapshot format, and CLI surface tests."""

import os
import platform
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsbu import Field, Grid2D, cli, concentration
from dsbu.spectral import Quarter, full_field
from dsbu.cli import main
from dsbu.config import RunConfig, config_summary, parse_config
from dsbu.errors import ConfigError, SnapshotFormatError
from dsbu.evolution import BlowupEstimate, ConservationRecord, EvolveConfig, RunResult
from dsbu.ground_state import GroundStateConfig
from dsbu.snapshot_io import (
    _HEADER,
    _PARITY,
    MAGIC,
    VERSION,
    SnapshotMeta,
    read_snapshot,
    read_header,
    write_snapshot,
)

from test_evolution import assert_no_child_left, open_fds

#: Both snapshot readers make the same header checks.
READERS = (read_snapshot, read_header)


CONFIG_FILES = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


class TestParseConfig:
    def test_minimal_evolve_gets_grid_defaults(self):
        cfg = parse_config("mode = evolve\nt_end = 1.0\n")
        dx = 20.0 / 256
        assert cfg.n == 256 and cfg.box_length == 20.0
        assert cfg.dt0 == pytest.approx(0.25 * dx**2)
        assert cfg.guard == pytest.approx(0.5 / dx)
        assert cfg.sample_interval == pytest.approx(1.0 / 50)

    def test_owner_defaults(self):
        # RunConfig takes these defaults from the objects that use them
        assert RunConfig("ground-state").ground_state_config() == GroundStateConfig()
        evolve, owner = RunConfig("evolve", t_end=1.0).evolve_config(), EvolveConfig(t_end=1.0)
        assert (evolve.adaptive, evolve.c_adapt) == (owner.adaptive, owner.c_adapt)

    def test_comments_and_spacing(self):
        cfg = parse_config(
            "# a run\nmode = ground-state\n\nn = 128   # small\ngamma = 0.5\n"
        )
        assert cfg.mode == "ground-state"
        assert cfg.n == 128
        assert cfg.gamma == 0.5

    def test_negative_gamma_message(self):
        with pytest.raises(ConfigError, match="gamma must be positive"):
            parse_config("mode = evolve\nt_end = 1\ngamma = -1\n")

    def test_bad_nu_message(self):
        with pytest.raises(ConfigError, match="nu must be ±1"):
            parse_config("mode = evolve\nt_end = 1\nnu = 0\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("mode = evolve\nt_end = 1\nbogus = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("mode = evolve\nt_end = 1\nt_end = 2\n")

    def test_missing_required_key_for_mode(self):
        with pytest.raises(ConfigError, match="requires t_end"):
            parse_config("mode = evolve\n")
        with pytest.raises(ConfigError, match="requires snapshot_dir"):
            parse_config("mode = analyze\ntrace = square\n")
        with pytest.raises(ConfigError, match="requires c_opt"):
            parse_config("mode = analyze\nsnapshot_dir = x\ntrace = disk\n")

    def test_mode_scoped_keys_rejected_elsewhere(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config("mode = ground-state\nt_end = 1\n")

    @pytest.mark.parametrize("text, line", [
        ("mode = evolv\nt_end = 1\n", 1),
        ("mode = evolv\n", 1),
        ("t_end = 1\nmode = evolv\n", 2),
    ])
    def test_misspelled_mode_is_reported_on_its_line(self, text, line, tmp_path, capsys):
        # the mode is checked before any key is tested against it
        message = "mode must be one of ground-state, evolve, analyze, verify, got 'evolv'"
        with pytest.raises(ConfigError, match=message) as exc:
            parse_config(text)
        assert exc.value.line == line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["evolve", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.name)
    def test_run_config_record_reads_back(self, path):
        # run_config.txt holds config_summary of the resolved config; it
        # must parse back to the same config, keys of other modes left out
        cfg = parse_config(path.read_text())
        assert parse_config(config_summary(cfg)) == cfg

    def test_type_errors_carry_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("mode = evolve\nt_end = soon\n")

    def test_parsing_builds_no_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("parse_config built a grid")

        monkeypatch.setattr(Grid2D, "__init__", no_grid)
        assert parse_config("mode = evolve\nn = 8192\nt_end = 1\n").n == 8192

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["c_opt", "tol", "gamma", "box_length"])
    def test_non_finite_floats_rejected(self, key, raw, tmp_path, capsys):
        command, head = {
            "c_opt": ("analyze", "mode = analyze\nsnapshot_dir = snaps\n"),
            "tol": ("ground-state", "mode = ground-state\n"),
        }.get(key, ("evolve", "mode = evolve\nt_end = 0.1\n"))
        text = f"{head}{key} = {raw}\n"
        line = text.count("\n")
        with pytest.raises(ConfigError, match=f"line {line}: {key} must be finite") as exc:
            parse_config(text)
        assert exc.value.line == line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
        assert main([command, str(cfg)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


HEADS = {
    "ground-state": "mode = ground-state\n",
    "evolve": "mode = evolve\nt_end = 0.1\n",
    "analyze": "mode = analyze\nsnapshot_dir = snaps\ntrace = square\n",
    "verify": "mode = verify\n",
}

# (command, config text, line of the rejection, key the message names); the
# offending line is the last one unless a line is given.
REJECTIONS = [
    *[(mode, f"{head}{key} = {bad}\n", None, key)
      for mode, head in HEADS.items()
      for key, bad in (("n", 6), ("box_length", 0), ("nu", 0), ("gamma", -1))],
    ("evolve", "mode = bogus\n", None, "mode"),
    ("ground-state", HEADS["ground-state"] + "tol = 0\n", None, "tol"),
    ("ground-state", HEADS["ground-state"] + "max_iter = 0\n", None, "max_iter"),
    ("ground-state", HEADS["ground-state"] + "init_amplitude = 0\n", None, "init_amplitude"),
    ("evolve", "mode = evolve\nn = 64\n", 1, "t_end"),
    ("evolve", "mode = evolve\nt_end = 0\n", None, "t_end"),
    ("evolve", HEADS["evolve"] + "ic = bogus\n", None, "ic"),
    ("evolve", HEADS["evolve"] + "ic = snapshot\n", None, "snapshot_path"),
    ("evolve", HEADS["evolve"] + "ic = standing_wave\n", None, "profile_path"),
    ("evolve", HEADS["evolve"] + "ic = pc_blowup\nprofile_path = p\npc_start_time = 0.5\n",
     None, "pc_start_time"),
    *[("evolve", f"{HEADS['evolve']}{key} = {bad}\n", None, key)
      for key, bad in (("amplitude", 0), ("width", -1), ("aspect", 0), ("dt0", -1e-3),
                       ("c_adapt", 0), ("sample_interval", 0), ("guard", -1))],
    ("analyze", "mode = analyze\ntrace = square\n", 1, "snapshot_dir"),
    ("analyze", "mode = analyze\nsnapshot_dir = snaps\ntrace = disk\n", None, "c_opt"),
    *[("analyze", f"{HEADS['analyze']}{key} = {bad}\n", None, key)
      for key, bad in (("trace", "cone"), ("epsilon", 0.5), ("c_side", 0), ("eta", 0),
                       ("c_opt", -1))],
]


@pytest.mark.parametrize("command,text,line,key", REJECTIONS)
def test_each_rule_rejects_on_its_line(command, text, line, key, tmp_path, capsys):
    line = line or text.count("\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")
    assert re.search(rf"\b{key}\b", str(exc.value))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
    assert main([command, str(cfg)]) == 2
    assert f"line {line}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def snapshot_blob(n=8, nu=1, box_length=4.0, t=0.5, gamma=1.0, parity=0, payload=None):
    """Snapshot bytes with arbitrary header values and a valid payload CRC.

    Format 2 with the parity flag ``parity``, or format 1 for None. The
    payload is ``payload``'s bytes, by default ones on the side that the
    flag says: n/2+1 for 1, else n.
    """
    header = _HEADER.pack(MAGIC, 1 if parity is None else VERSION, n, nu, box_length, t, gamma)
    if parity is not None:
        header += _PARITY.pack(parity)
    if payload is None:
        side = n // 2 + 1 if parity == 1 else n
        payload = np.ones(side * side, dtype="<c16")
    payload = np.ascontiguousarray(payload, dtype="<c16").tobytes()
    return header + payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


class TestSnapshotFormat:
    def make_field(self, n=32, box=8.0, seed=0):
        rng = np.random.default_rng(seed)
        return Field(
            Grid2D(n, box),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        )

    def test_round_trip_bitwise(self, tmp_path):
        field = self.make_field()
        meta = SnapshotMeta(t=0.75, nu=-1, gamma=2.5)
        path = tmp_path / "field.dsbu"
        write_snapshot(str(path), field, meta)
        (values, space), meta_back = read_snapshot(str(path))
        assert meta_back == meta
        assert space == field.grid
        assert values.tobytes() == field.values.tobytes()

    def test_reads_on_one_grid_share_it(self, tmp_path):
        meta = SnapshotMeta(t=0.0, nu=1, gamma=1.0)
        p1, p2, p3 = tmp_path / "a.dsbu", tmp_path / "b.dsbu", tmp_path / "c.dsbu"
        write_snapshot(str(p1), self.make_field(seed=1), meta)
        write_snapshot(str(p2), self.make_field(seed=2), meta)
        write_snapshot(str(p3), self.make_field(box=9.0), meta)
        a, b, c = (read_snapshot(str(p))[0][1] for p in (p1, p2, p3))
        assert a is b
        assert c is not a and c.box_length == 9.0

    def test_rewrite_is_byte_identical(self, tmp_path):
        field = self.make_field()
        meta = SnapshotMeta(t=0.0, nu=1, gamma=1.0)
        p1, p2 = tmp_path / "a.dsbu", tmp_path / "b.dsbu"
        write_snapshot(str(p1), field, meta)
        write_snapshot(str(p2), field, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_byte_rejected_naming_region(self, tmp_path):
        field = self.make_field()
        path = tmp_path / "field.dsbu"
        write_snapshot(str(path), field, SnapshotMeta(0.0, 1, 1.0))
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            read_snapshot(str(path))
        # the header alone is still valid; only the full read checks the payload
        assert read_header(str(path)) == SnapshotMeta(0.0, 1, 1.0)

    def test_truncated_file_rejected(self, tmp_path):
        field = self.make_field()
        path = tmp_path / "field.dsbu"
        write_snapshot(str(path), field, SnapshotMeta(0.0, 1, 1.0))
        blob = path.read_bytes()
        for cut, message in ((200, "size mismatch"), (20, "truncated file")):
            path.write_bytes(blob[:cut])
            for reader in READERS:
                with pytest.raises(SnapshotFormatError, match=message):
                    reader(str(path))

    def test_header_payload_mismatch_rejected(self, tmp_path):
        import struct

        field = self.make_field()
        path = tmp_path / "field.dsbu"
        write_snapshot(str(path), field, SnapshotMeta(0.0, 1, 1.0))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 64)  # lie about n
        path.write_bytes(bytes(blob))
        for reader in READERS:
            with pytest.raises(SnapshotFormatError, match="structural"):
                reader(str(path))

    @pytest.mark.parametrize("key,value", [
        ("n", 4), ("n", 0), ("n", 9),
        ("box_length", 0.0), ("box_length", -1.0), ("box_length", np.nan), ("box_length", np.inf),
        ("nu", 3), ("nu", 0),
        ("gamma", -2.0), ("gamma", 0.0), ("gamma", np.nan), ("gamma", np.inf),
        ("t", np.nan), ("t", np.inf),
    ])
    def test_bad_header_values_rejected(self, key, value, tmp_path):
        path = tmp_path / "bad.dsbu"
        path.write_bytes(snapshot_blob(**{key: value}))
        for reader in READERS:
            with pytest.raises(SnapshotFormatError, match=rf"bad header: .*\b{key}\b"):
                reader(str(path))

    def test_crafted_blob_is_valid_by_default(self, tmp_path):
        path = tmp_path / "good.dsbu"
        path.write_bytes(snapshot_blob())
        (values, space), meta = read_snapshot(str(path))
        assert space.n == 8 and values.shape == (8, 8) and meta == SnapshotMeta(0.5, 1, 1.0)
        assert read_header(str(path)) == meta

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "nope.dsbu"
        path.write_bytes(b"NOPE" + bytes(100))
        for reader in READERS:
            with pytest.raises(SnapshotFormatError, match="magic"):
                reader(str(path))

    def even_field(self, n=32, box=8.0):
        g = Grid2D(n, box)
        x1, x2 = g.coords()
        field = Field(g, np.exp(-(x1**2 + (0.7 * x2) ** 2)) * (1.0 + 0.5j))
        assert Quarter.holds(field.values)
        return field

    @pytest.mark.parametrize("even", [True, False], ids=["even", "not even"])
    def test_even_field_is_stored_as_its_quarter(self, even, tmp_path):
        # an even field's payload is its (n/2+1)^2 quarter, read back as it
        # is stored, on the quarter; any other keeps all n^2 samples on the
        # grid. Both unfold to the field bitwise, and what read_snapshot
        # returns, or its full field, rewrites byte-identically
        field = self.even_field() if even else self.make_field()
        side = 17 if even else 32
        path, again = tmp_path / "field.dsbu", tmp_path / "again.dsbu"
        write_snapshot(str(path), field, SnapshotMeta(0.25, 1, 1.0))
        blob = path.read_bytes()
        assert len(blob) == _HEADER.size + _PARITY.size + 16 * side**2 + 4
        assert _PARITY.unpack_from(blob, _HEADER.size) == (int(even),)
        (values, space), meta = read_snapshot(str(path))
        assert values.shape == space.shape == (side, side)
        assert (space is space.grid.quarter) is even and space.grid == field.grid
        assert full_field(values, space).values.tobytes() == field.values.tobytes()
        assert meta == read_header(str(path)) == SnapshotMeta(0.25, 1, 1.0)
        write_snapshot(str(again), *read_snapshot(str(path)))
        assert again.read_bytes() == blob
        write_snapshot(str(again), full_field(values, space), meta)
        assert again.read_bytes() == blob

    def test_samples_on_the_quarter_write_the_even_field(self, tmp_path):
        # run's sink hands write_snapshot the quarter and its space
        field = self.even_field()
        quarter = field.grid.quarter
        a, b = tmp_path / "a.dsbu", tmp_path / "b.dsbu"
        write_snapshot(str(a), field, SnapshotMeta(0.5, 1, 1.0))
        write_snapshot(str(b), (field.values[:17, :17].copy(), quarter), SnapshotMeta(0.5, 1, 1.0))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("even", [True, False], ids=["even", "not even"])
    def test_version_1_file_reads_bitwise(self, even, tmp_path):
        field = self.even_field() if even else self.make_field()
        path = tmp_path / "v1.dsbu"
        path.write_bytes(snapshot_blob(n=32, box_length=8.0, t=0.75, parity=None,
                                       payload=field.values))
        # the full payload comes on the space its field's parity gives, and
        # rewrites as the version-2 file of the same field
        (values, space), meta = read_snapshot(str(path))
        assert (space is space.grid.quarter) is even and space.grid == field.grid
        assert full_field(values, space).values.tobytes() == field.values.tobytes()
        assert meta == read_header(str(path)) == SnapshotMeta(0.75, 1, 1.0)
        v2, again = tmp_path / "v2.dsbu", tmp_path / "again.dsbu"
        write_snapshot(str(v2), field, meta)
        write_snapshot(str(again), *read_snapshot(str(path)))
        assert again.read_bytes() == v2.read_bytes()

    @pytest.mark.parametrize("parity", [2, 0xFFFFFFFF])
    def test_bad_parity_flag_rejected_naming_its_bytes(self, parity, tmp_path):
        path = tmp_path / "bad.dsbu"
        path.write_bytes(snapshot_blob(parity=parity))
        message = f"bad parity flag {parity} in header bytes [40, 44), must be 0 or 1"
        for reader in READERS:
            with pytest.raises(SnapshotFormatError, match=re.escape(message)):
                reader(str(path))

    @pytest.mark.parametrize("parity,side", [(1, 8), (0, 5)])
    def test_payload_that_does_not_fit_its_parity_rejected(self, parity, side, tmp_path):
        # n = 8: parity 1 promises a 5 x 5 payload, parity 0 an 8 x 8 one
        path = tmp_path / "bad.dsbu"
        path.write_bytes(snapshot_blob(parity=parity, payload=np.ones(side * side)))
        end = 44 + 16 * (5 if parity else 8) ** 2
        message = f"header says n=8, parity {parity}: payload bytes [44, {end})"
        for reader in READERS:
            with pytest.raises(SnapshotFormatError, match=re.escape(message)):
                reader(str(path))

    def test_corrupted_byte_of_a_quarter_payload_fails_the_checksum(self, tmp_path):
        path = tmp_path / "even.dsbu"
        write_snapshot(str(path), self.even_field(), SnapshotMeta(0.0, 1, 1.0))
        blob = bytearray(path.read_bytes())
        blob[_HEADER.size + _PARITY.size + 100] ^= 0x01
        path.write_bytes(bytes(blob))
        end = 44 + 16 * 17**2
        with pytest.raises(SnapshotFormatError,
                           match=re.escape(f"checksum mismatch over payload bytes [44, {end})")):
            read_snapshot(str(path))
        assert read_header(str(path)) == SnapshotMeta(0.0, 1, 1.0)


EVOLVE_CFG = """
mode = evolve
n = 64
box_length = 16
nu = 1
gamma = 1.0
amplitude = 1.2
t_end = 0.2
sample_interval = 0.05
guard = 10.0
output_dir = {out}
"""


def run_cli_process(*args):
    """``python -m dsbu.cli *args`` in a child that imports the dsbu this test
    imports, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dsbu.cli", *args],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def report_pairs(text):
    """The (key, value) pairs of a ``key = value`` report, in file order."""
    return [tuple(line.split(" = ", 1)) for line in text.splitlines()]


class TestCli:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_missing_config_exits_2(self):
        assert main(["evolve", "/nonexistent/path.cfg"]) == 2

    @pytest.mark.parametrize("command,extra,count", [
        ("verify", "", 2), ("evolve", "t_end = 0.01\n", 2), ("evolve", "t_end = 0.01\n", 0),
    ])
    def test_config_argument_count_exits_2_before_output(self, command, extra, count,
                                                         tmp_path, capsys):
        # verify takes at most one config, every other command exactly one
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = {command}\nn = 16\n{extra}")
        assert main([command, *[str(cfg)] * count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one config argument" in captured.err

    def test_config_mode_mismatch_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = evolve\nt_end = 1\n")
        assert main(["ground-state", str(cfg)]) == 2

    def test_verify_runs_with_the_config_nu(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("mode = verify\nn = 64\nnu = -1\n")
        # the ground-state check rejects the defocusing sign before any PASS line
        assert main(["verify", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "focusing sign" in captured.err
        assert "PASS" not in captured.out

    def test_evolve_writes_records_and_snapshots(self, tmp_path):
        out = tmp_path / "run_out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=out))
        assert main(["evolve", str(cfg)]) == 0
        records = (out / "records.csv").read_text().splitlines()
        assert records[0] == "t,mass,energy,grad_sq,second_moment,moment_valid,sup_abs,l4_accum,dt"
        assert len(records) >= 5
        snaps = sorted(out.glob("snap_*.dsbu"))
        assert len(snaps) >= 4
        (values, space), meta = read_snapshot(str(snaps[0]))
        assert space.grid.n == 64
        assert meta.gamma == 1.0

    def test_deterministic_rerun_bitwise(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(EVOLVE_CFG.format(out=out))
            assert main(["evolve", str(cfg)]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        for snap in sorted(a.glob("snap_*.dsbu")):
            assert snap.read_bytes() == (b / snap.name).read_bytes()

    def test_evolve_rerun_replaces_the_earlier_run(self, tmp_path):
        """A rerun into the same directory leaves none of the earlier run's
        records, snapshots or blow-up report, and nothing else is deleted:
        ``analyze`` then traces the rerun alone."""
        out = tmp_path / "run_out"
        cfg = tmp_path / "run.cfg"
        text = ("mode = evolve\nn = 32\nbox_length = 10\ndt0 = 1e-3\nsample_interval = 2e-3\n"
                f"guard = 100\noutput_dir = {out}\nt_end = ")
        cfg.write_text(text + "0.02\n")
        assert main(["evolve", str(cfg)]) == 0
        assert len(list(out.glob("snap_*.dsbu"))) == 11
        for name in ("blowup.txt", "notes.txt", "snap_000007.txt"):
            (out / name).write_text("kept from before\n")  # blowup.txt as a blow-up run leaves it
        cfg.write_text(text + "0.01\n")
        assert main(["evolve", str(cfg)]) == 0
        snaps = [f"snap_{k:06d}.dsbu" for k in range(6)]
        assert sorted(f.name for f in out.iterdir()) == sorted(
            ["notes.txt", "records.csv", "run_config.txt", "snap_000007.txt", *snaps])
        an_out = tmp_path / "analysis"
        an_cfg = tmp_path / "an.cfg"
        an_cfg.write_text(f"mode = analyze\nsnapshot_dir = {out}\ntrace = square\n"
                          f"t_star = 1\noutput_dir = {an_out}\n")
        assert main(["analyze", str(an_cfg)]) == 0
        traced = (an_out / "analysis.csv").read_text().splitlines()[1:]
        recorded = (out / "records.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in traced] == [row.split(",")[0] for row in recorded]
        assert float(recorded[-1].split(",")[0]) == pytest.approx(0.01)

    @pytest.mark.parametrize("command", ["evolve", "ground-state"])
    def test_output_dir_beneath_a_regular_file_exits_2(self, command, tmp_path, capsys):
        # a path that cannot be made (root ignores permission bits, so a
        # read-only directory would not fail) is a usage error naming it
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        cfg = tmp_path / "run.cfg"
        text = EVOLVE_CFG if command == "evolve" else "mode = ground-state\nn = 64\noutput_dir = {out}\n"
        cfg.write_text(text.format(out=out))
        assert main([command, str(cfg)]) == 2
        assert f"cannot write output_dir {out}: " in capsys.readouterr().err

    def test_snapshot_write_that_fails_exits_2(self, tmp_path, capsys):
        # the third snapshot's temp file cannot be opened: evolve stops with a
        # usage error naming it, writes no later snapshot and no records, and
        # leaves no stepper process or open pipe end behind
        out = tmp_path / "run_out"
        (out / "snap_000002.dsbu.tmp").mkdir(parents=True)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=out))
        threads, fds = threading.active_count(), open_fds()
        assert main(["evolve", str(cfg)]) == 2
        assert f"cannot write {out / 'snap_000002.dsbu'}: " in capsys.readouterr().err
        assert sorted(f.name for f in out.glob("snap_*")) == [
            "snap_000000.dsbu", "snap_000001.dsbu", "snap_000002.dsbu.tmp"]
        assert not (out / "records.csv").exists()
        assert threading.active_count() == threads
        assert_no_child_left(fds)

    @pytest.mark.parametrize("trace", ["disk", "square"])
    def test_version_1_snapshots_analyze_to_the_same_bytes(self, trace, tmp_path):
        # an evolve run's even snapshots (quarter payloads) and the same
        # fields repacked in format 1 (full payloads, no parity) give the same
        # analysis.csv and analysis_summary.txt, byte for byte
        runs = {"v2": tmp_path / "v2", "v1": tmp_path / "v1"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=runs["v2"]))
        assert main(["evolve", str(cfg)]) == 0
        runs["v1"].mkdir()
        snaps = sorted(runs["v2"].glob("snap_*.dsbu"))
        for snap in snaps:
            (values, space), meta = read_snapshot(str(snap))
            assert space is space.grid.quarter
            field = full_field(values, space)
            (runs["v1"] / snap.name).write_bytes(snapshot_blob(
                field.grid.n, meta.nu, field.grid.box_length, meta.t, meta.gamma,
                parity=None, payload=field.values))
        outputs = {}
        for name, directory in runs.items():
            an_cfg = tmp_path / f"an_{name}.cfg"
            an_cfg.write_text(f"mode = analyze\nsnapshot_dir = {directory}\ntrace = {trace}\n"
                              f"c_opt = 0.26\nt_star = 0.3\noutput_dir = {tmp_path / ('an_' + name)}\n")
            assert main(["analyze", str(an_cfg)]) == 0
            outputs[name] = [(tmp_path / f"an_{name}" / f).read_bytes()
                             for f in ("analysis.csv", "analysis_summary.txt")]
        assert len(outputs["v2"][0].splitlines()) == len(snaps) + 1
        assert outputs["v1"] == outputs["v2"]

    @pytest.mark.parametrize("trace", ["disk", "square"])
    def test_even_snapshots_analyze_without_an_unfold(self, trace, tmp_path, monkeypatch):
        # read_snapshot hands the trace each stored quarter as it is, which is
        # measured there; walked in this process, so the patches see every
        # read and every measurement
        run_out, cfg = tmp_path / "run", tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=run_out))
        assert main(["evolve", str(cfg)]) == 0
        snaps = sorted(run_out.glob("snap_*.dsbu"))
        unfolds, reads, read = [], [], cli.read_snapshot
        monkeypatch.setattr(concentration, "may_fork", lambda: False)
        monkeypatch.setattr(Quarter, "unfold", lambda *args: unfolds.append(args))
        monkeypatch.setattr(cli, "read_snapshot", lambda path: reads.append(path) or read(path))
        an_cfg = tmp_path / "an.cfg"
        an_cfg.write_text(f"mode = analyze\nsnapshot_dir = {run_out}\ntrace = {trace}\n"
                          f"c_opt = 0.26\nt_star = 0.3\noutput_dir = {tmp_path / 'an'}\n")
        assert main(["analyze", str(an_cfg)]) == 0
        assert len(reads) == len(snaps) >= 4
        assert unfolds == []
        assert len((tmp_path / "an" / "analysis.csv").read_text().splitlines()) == len(snaps) + 1

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        override = tmp_path / "override"
        monkeypatch.setenv("DSBU_OUTPUT_DIR", str(override))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=tmp_path / "ignored"))
        assert main(["evolve", str(cfg)]) == 0
        assert (override / "records.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_snapshot_ic_on_other_grid_exits_2(self, tmp_path, capsys):
        # the config's default grid (256, 20) would set dt0 and the guard
        snap = tmp_path / "start.dsbu"
        write_snapshot(str(snap), Field(Grid2D(64, 16.0), np.ones((64, 64))),
                       SnapshotMeta(0.0, 1, 1.0))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = evolve\nt_end = 0.1\nic = snapshot\n"
                       f"snapshot_path = {snap}\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["evolve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "Grid2D(n=64, box_length=16.0)" in err
        assert "Grid2D(n=256, box_length=20.0)" in err
        assert not (tmp_path / "out").exists()

    def test_snapshot_ic_with_other_couplings_exits_2(self, tmp_path, capsys):
        # run_config.txt would record the config's nu = 1, gamma = 1.0
        g = Grid2D(64, 16.0)
        snap = tmp_path / "start.dsbu"
        write_snapshot(str(snap), Field(g, np.ones((64, 64))), SnapshotMeta(0.0, -1, 3.0))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = evolve\nn = 64\nbox_length = 16\nt_end = 0.1\nic = snapshot\n"
                       f"snapshot_path = {snap}\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["evolve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "nu = -1, gamma = 3.0" in err
        assert "nu = 1, gamma = 1.0" in err
        assert not (tmp_path / "out").exists()

    def test_profile_ic_with_other_couplings_exits_2(self, tmp_path, capsys):
        # a standing wave of the gamma = 1 equation does not solve the gamma = 0.5 one
        g = Grid2D(64, 16.0)
        x1, x2 = g.coords()
        profile = tmp_path / "profile.dsbu"
        write_snapshot(str(profile), Field(g, np.exp(-(x1**2 + x2**2) / 2)),
                       SnapshotMeta(0.0, 1, 1.0))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = evolve\nn = 64\nbox_length = 16\nt_end = 0.01\ngamma = 0.5\n"
                       f"ic = standing_wave\nprofile_path = {profile}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["evolve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"profile_path {profile} carries nu = 1, gamma = 1.0" in err
        assert "nu = 1, gamma = 0.5" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["snapshot_dir", "snapshot_path", "profile_path"])
    def test_unreadable_input_exits_2_before_output(self, key, tmp_path, capsys):
        missing = tmp_path / "missing"
        if key == "snapshot_dir":
            command, head = "analyze", "mode = analyze\ntrace = square\nt_star = 1.0\n"
        else:
            ic = "snapshot" if key == "snapshot_path" else "standing_wave"
            command, head = "evolve", f"mode = evolve\nt_end = 0.1\nic = {ic}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{head}{key} = {missing}\noutput_dir = {tmp_path / 'out'}\n")
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {key} {missing}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_analyze_corrupt_header_exits_1(self, tmp_path, capsys):
        (tmp_path / "snap_000000.dsbu").write_bytes(snapshot_blob(n=4))
        cfg = tmp_path / "an.cfg"
        cfg.write_text(f"mode = analyze\nsnapshot_dir = {tmp_path}\ntrace = square\n"
                       f"t_star = 1.0\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["analyze", str(cfg)]) == 1
        assert "bad header: grid size must be even and >= 8, got n=4" in capsys.readouterr().err

    def test_records_csv_round_trip(self, tmp_path):
        records = [ConservationRecord(0.0, 1.0, -0.25, 3.0, 2.0, True, 1.5, 0.0, 0.0),
                   ConservationRecord(0.1, 1.0, 1 / 3, 3.5, 2.5, False, 1.25, 0.1, 1e-3)]
        path = tmp_path / "records.csv"
        path.write_text(cli._records_csv(records))
        assert path.read_text().splitlines()[2] == (
            "0.10000000000000001,1,0.33333333333333331,3.5,2.5,0,1.25,0.10000000000000001,0.001")
        assert cli._read_records_csv(str(path)) == records

    @pytest.mark.parametrize("row,fault", [
        ("0,1,2,3", "4 columns, expected 9"),
        ("0.1,1,2,3,4,1,six,7,8", "could not convert"),
    ])
    def test_analyze_malformed_records_exits_1(self, row, fault, tmp_path, capsys):
        write_snapshot(str(tmp_path / "snap_000000.dsbu"),
                       Field(Grid2D(16, 4.0), np.ones((16, 16))), SnapshotMeta(0.0, 1, 1.0))
        records = tmp_path / "records.csv"
        records.write_text(f"{cli.RECORD_COLUMNS}\n0,1,2,3,4,1,6,7,8\n{row}\n")
        cfg = tmp_path / "an.cfg"
        cfg.write_text(f"mode = analyze\nsnapshot_dir = {tmp_path}\ntrace = square\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["analyze", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{records}: line 3: malformed record: " in err and fault in err

    def test_snapshot_ic_on_config_grid_uses_its_dt(self, tmp_path):
        g = Grid2D(64, 16.0)
        x1, x2 = g.coords()
        snap = tmp_path / "start.dsbu"
        write_snapshot(str(snap), Field(g, np.exp(-(x1**2 + x2**2) / 2)),
                       SnapshotMeta(0.0, 1, 1.0))
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = evolve\nn = 64\nbox_length = 16\nt_end = 0.1\n"
                       f"ic = snapshot\nsnapshot_path = {snap}\noutput_dir = {out}\n")
        assert main(["evolve", str(cfg)]) == 0
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert float(rows[1].split(",")[-1]) == pytest.approx(g.dx**2 / 4, rel=1e-15)
        assert "n = 64\n" in (out / "run_config.txt").read_text()

    def test_analyze_square_trace_end_to_end(self, tmp_path):
        out = tmp_path / "run_out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=out))
        assert main(["evolve", str(cfg)]) == 0
        an_out = tmp_path / "analysis"
        an_cfg = tmp_path / "an.cfg"
        an_cfg.write_text(
            f"mode = analyze\nsnapshot_dir = {out}\ntrace = square\n"
            f"c_side = 4\nt_star = 0.5\neta = 0.1\noutput_dir = {an_out}\n"
        )
        assert main(["analyze", str(an_cfg)]) == 0
        lines = (an_out / "analysis.csv").read_text().splitlines()
        assert lines[0] == "t,lambda,best_mass,yx,yy,rho,rescaled_energy,rescaled_quartic"
        assert len(lines) >= 4
        # the square trace has no rescaled diagnostics
        assert all(line.split(",")[5:] == ["nan"] * 3 for line in lines[1:])
        pairs = report_pairs((an_out / "analysis_summary.txt").read_text())
        assert [key for key, _ in pairs] == [
            "trace", "t_star", "max_sqrt_mass", "terminal_min_sqrt_mass",
            "terminal_max_sqrt_mass", "eta", "above_eta", "skipped"]
        assert pairs[0] == ("trace", "square") and pairs[1] == ("t_star", "0.5")

    def test_analyze_orders_snapshots_by_t_not_by_name(self, tmp_path):
        out = tmp_path / "run_out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=out))
        assert main(["evolve", str(cfg)]) == 0
        snaps = sorted(out.glob("snap_*.dsbu"))
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        for snap, name in zip(snaps, reversed([snap.name for snap in snaps])):
            (renamed / name).write_bytes(snap.read_bytes())
        outputs = []
        for snapshot_dir in (out, renamed):
            an_out = tmp_path / f"analysis_{snapshot_dir.name}"
            an_cfg = tmp_path / "an.cfg"
            an_cfg.write_text(f"mode = analyze\nsnapshot_dir = {snapshot_dir}\ntrace = disk\n"
                              f"c_opt = 0.26\nt_star = 0.5\noutput_dir = {an_out}\n")
            assert main(["analyze", str(an_cfg)]) == 0
            outputs.append([(an_out / name).read_bytes()
                            for name in ("analysis.csv", "analysis_summary.txt")])
        assert len(snaps) >= 4 and outputs[0] == outputs[1]

    def test_analyze_corrupt_last_snapshot_leaves_no_output(self, tmp_path, capsys):
        # the fields are read one at a time, all of them before any output
        g = Grid2D(16, 4.0)
        for k in range(4):
            write_snapshot(str(tmp_path / f"snap_{k:06d}.dsbu"),
                           Field(g, np.full((16, 16), 1.0 + k)), SnapshotMeta(0.1 * k, 1, 1.0))
        last = tmp_path / "snap_000003.dsbu"
        blob = bytearray(last.read_bytes())
        blob[100] ^= 0xFF
        last.write_bytes(bytes(blob))
        cfg = tmp_path / "an.cfg"
        cfg.write_text(f"mode = analyze\nsnapshot_dir = {tmp_path}\ntrace = square\n"
                       f"t_star = 1.0\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["analyze", str(cfg)]) == 1
        assert f"{last}: checksum mismatch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_snapshots_stream_through_evolve_and_analyze(self, tmp_path, monkeypatch):
        """Neither command holds its snapshots. At n = 128, 51 snapshots raise
        each command's peak traced memory by less than 4 field sizes over the
        same command with 2 (same steps); each held field would add one.
        Each command is measured twice: as it runs, where this process works
        evolve's boundaries and traces the earlier half of the snapshots, and
        with ``os.fork`` taken away, where it does all the work itself."""
        field_bytes = 16 * 128 * 128

        def peak(*argv):
            tracemalloc.start()
            try:
                assert main(list(argv)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = {}
        for here in ("", " here"):
            if here:
                monkeypatch.delattr(os, "fork")
            for name, interval in (("many", 0.004), ("two", 0.2)):
                run_cfg = tmp_path / f"{name}.cfg"
                run_cfg.write_text(f"mode = evolve\nn = 128\nbox_length = 16\namplitude = 1.2\n"
                                   f"t_end = 0.2\ndt0 = 0.004\nsample_interval = {interval}\n"
                                   f"guard = 10.0\noutput_dir = {tmp_path / name}\n")
                peaks["evolve" + here, name] = peak("evolve", str(run_cfg))
        assert len(list((tmp_path / "many").glob("snap_*.dsbu"))) == 51
        read_snapshot(str(tmp_path / "two" / "snap_000000.dsbu"))  # the shared grid, built once
        monkeypatch.undo()
        for command in ("analyze", "analyze here"):
            if command == "analyze here":
                monkeypatch.delattr(os, "fork")
            for name in ("many", "two"):
                an_cfg = tmp_path / f"an_{name}.cfg"
                an_out = tmp_path / f"analysis_{name}_{len(peaks)}"
                an_cfg.write_text(f"mode = analyze\nsnapshot_dir = {tmp_path / name}\n"
                                  f"trace = disk\nc_opt = 0.26\nt_star = 0.5\n"
                                  f"output_dir = {an_out}\n")
                peaks[command, name] = peak("analyze", str(an_cfg))
        for command in ("evolve", "evolve here", "analyze", "analyze here"):
            extra = peaks[command, "many"] - peaks[command, "two"]
            assert extra < 4 * field_bytes, (command, extra / field_bytes)

    def test_evolve_and_ground_state_hold_few_fields(self, tmp_path, capsys, monkeypatch):
        """At n = 128 the traced peak of ``dsbu evolve`` stays within 4.5 field
        sizes and that of ``dsbu ground-state`` within 4: neither builds the
        grid's n x n multipliers for its quarter, evolve lets the initial field
        go after the first snapshot, and the solver frees its loop arrays
        before the full-grid report. ``evolve`` is measured twice: as it runs,
        where this process works the boundaries, and with ``os.fork`` taken
        away, where it takes the steps as well."""
        field_bytes = 16 * 128 * 128
        evolve = (4.5, "mode = evolve\nn = 128\nbox_length = 16\namplitude = 1.2\n"
                       "t_end = 0.2\ndt0 = 0.004\nsample_interval = 0.2\nguard = 10.0\n")
        cfgs = {
            "evolve": evolve,
            "evolve here": evolve,
            "ground-state": (4.0, "mode = ground-state\nn = 128\nbox_length = 16\n"),
        }
        for name, (bound, text) in cfgs.items():
            command = name.split()[0]
            if name == "evolve here":
                monkeypatch.delattr(os, "fork")
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(text + f"output_dir = {tmp_path / command}\n")
            tracemalloc.start()
            try:
                assert main([command, str(cfg)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * field_bytes, (name, peak / field_bytes)
        capsys.readouterr()

    def test_time_steps_reuse_freed_memory(self, tmp_path):
        """A step's n x n temporaries reuse freed heap: the CLI has glibc's
        malloc keep it, so a fresh ``dsbu evolve`` faults in next to no pages
        for 50 more adaptive steps at n = 256 (by default about 1000 a step,
        as the freed heap top goes back to the OS)."""
        resource = pytest.importorskip("resource")
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("the allocator setting is glibc's")
        faults = {}
        for steps in (10, 60):
            cfg = tmp_path / f"run_{steps}.cfg"
            cfg.write_text(f"mode = evolve\nadaptive = true\ndt0 = 0.001\nt_end = {steps / 1000}\n"
                           f"sample_interval = {steps / 1000}\noutput_dir = {tmp_path / str(steps)}\n")
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            assert run_cli_process("evolve", str(cfg)).returncode == 0
            faults[steps] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
        assert faults[60] - faults[10] < 50 * 20, faults

    def test_blowup_report_format(self, tmp_path, monkeypatch, capsys):
        est = BlowupEstimate(t_star_estimate=0.3 + 1 / 3, method="linear_inverse_gradient",
                             fit_window=(0.1, 0.2 + 1 / 7), fit_residual=1 / 9)

        def fake_run(state, cfg, on_snapshot=None):
            end = replace(state, t=0.1 + 0.2, step_index=7)
            return RunResult(state=end, records=[], stop_reason="grad_guard", blowup=est)

        monkeypatch.setattr(cli, "run", fake_run)
        out = tmp_path / "run_out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(EVOLVE_CFG.format(out=out))
        assert main(["evolve", str(cfg)]) == 0
        text = (out / "blowup.txt").read_text()
        pairs = report_pairs(text)
        assert [key for key, _ in pairs] == [
            "t_star_estimate", "fit_window", "fit_residual", "method"]
        values = dict(pairs)
        assert float(values["t_star_estimate"]) == est.t_star_estimate
        assert tuple(map(float, values["fit_window"].split(" .. "))) == est.fit_window
        assert float(values["fit_residual"]) == est.fit_residual
        assert values["method"] == est.method
        stdout = capsys.readouterr().out
        head = report_pairs(stdout)[:3]
        assert head[:2] == [("stop_reason", "grad_guard"), ("steps", "7")]
        assert head[2][0] == "t_final" and float(head[2][1]) == 0.1 + 0.2
        assert stdout.splitlines()[3:] == text.splitlines()

    def test_ground_state_report_format(self, tmp_path, capsys):
        out = tmp_path / "gs"
        cfg = tmp_path / "gs.cfg"
        cfg.write_text(f"mode = ground-state\nn = 64\nbox_length = 20\noutput_dir = {out}\n")
        assert main(["ground-state", str(cfg)]) == 0
        text = (out / "ground_state_report.txt").read_text()
        assert capsys.readouterr().out == text
        pairs = report_pairs(text)
        assert [key for key, _ in pairs] == [
            "mass", "c_opt", "residual", "iterations", "safeguarded_steps", "sharpness_ratio",
            "profile"]
        values = dict(pairs)
        assert 2.0 / float(values["mass"]) == float(values["c_opt"])
        assert int(values["iterations"]) >= 1
        assert values["profile"] == str(out / "ground_state.dsbu")

    def test_analyze_rejects_mixed_couplings(self, tmp_path):
        from dsbu import Field, Grid2D
        from dsbu.snapshot_io import SnapshotMeta, write_snapshot

        g = Grid2D(16, 4.0)
        f = Field(g, np.ones((16, 16)))
        write_snapshot(str(tmp_path / "snap_000000.dsbu"), f, SnapshotMeta(0.0, 1, 1.0))
        write_snapshot(str(tmp_path / "snap_000001.dsbu"), f, SnapshotMeta(0.1, 1, 2.0))
        cfg = tmp_path / "an.cfg"
        cfg.write_text(
            f"mode = analyze\nsnapshot_dir = {tmp_path}\ntrace = square\n"
            f"t_star = 1.0\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["analyze", str(cfg)]) == 1

    def test_console_script_usage_exit(self):
        proc = run_cli_process("bogus")
        assert proc.returncode == 2
        assert "usage" in proc.stderr


def coords_gaussian(cfg):
    """The initial Gaussian of ``cfg`` from the n x n coordinate arrays."""
    x1, x2 = Grid2D(cfg.n, cfg.box_length).coords()
    return cfg.amplitude * np.exp(-(x1**2 + (cfg.aspect * x2) ** 2) / (2 * cfg.width**2))


class TestInitialGaussian:
    """``_initial_state`` builds the Gaussian from the broadcast axes, in place."""

    @pytest.mark.parametrize("path", [p for p in CONFIG_FILES if "ic = gaussian" in p.read_text()],
                             ids=lambda p: p.name)
    def test_shipped_configs_match_the_coordinate_formula(self, path):
        cfg = parse_config(path.read_text())
        assert cfg.mode == "evolve" and cfg.ic == "gaussian"
        u = cli._initial_state(cfg).u
        assert np.array_equal(u.values, coords_gaussian(cfg))
        assert not np.signbit(u.values.imag).any()

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 20.0), st.floats(0.05, 3.0), st.floats(0.1, 4.0),
           st.sampled_from([8, 34, 64]), st.floats(1.0, 30.0))
    @example(1.2, 0.8, 0.25, 64, 12.0)
    def test_drawn_gaussians_match_the_coordinate_formula(self, amplitude, width, aspect, n, box):
        cfg = RunConfig("evolve", n=n, box_length=box, amplitude=amplitude, width=width,
                        aspect=aspect, t_end=1.0)
        u = cli._initial_state(cfg).u
        assert np.array_equal(u.values, coords_gaussian(cfg))
