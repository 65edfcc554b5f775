"""Config parsing, snapshot format, and CLI surface tests."""

import re
import struct
import subprocess
import sys
import zlib
from dataclasses import replace

import numpy as np
import pytest

from dsbu import Field, Grid2D, cli
from dsbu.cli import main
from dsbu.config import RunConfig, parse_config
from dsbu.errors import ConfigError, SnapshotFormatError
from dsbu.evolution import BlowupEstimate, ConservationRecord, EvolveConfig, RunResult
from dsbu.ground_state import GroundStateConfig
from dsbu.snapshot_io import _HEADER, MAGIC, VERSION, SnapshotMeta, read_snapshot, write_snapshot


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


def snapshot_blob(n=8, nu=1, box_length=4.0, t=0.5, gamma=1.0):
    """Snapshot bytes with arbitrary header values and a valid payload CRC."""
    header = _HEADER.pack(MAGIC, VERSION, n, nu, box_length, t, gamma)
    payload = np.ones(n * n, dtype="<c16").tobytes()
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
        back, meta_back = read_snapshot(str(path))
        assert meta_back == meta
        assert back.grid == field.grid
        assert back.values.tobytes() == field.values.tobytes()

    def test_reads_on_one_grid_share_it(self, tmp_path):
        meta = SnapshotMeta(t=0.0, nu=1, gamma=1.0)
        p1, p2, p3 = tmp_path / "a.dsbu", tmp_path / "b.dsbu", tmp_path / "c.dsbu"
        write_snapshot(str(p1), self.make_field(seed=1), meta)
        write_snapshot(str(p2), self.make_field(seed=2), meta)
        write_snapshot(str(p3), self.make_field(box=9.0), meta)
        a, b, c = (read_snapshot(str(p))[0] for p in (p1, p2, p3))
        assert a.grid is b.grid
        assert c.grid is not a.grid and c.grid.box_length == 9.0

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

    def test_truncated_file_rejected(self, tmp_path):
        field = self.make_field()
        path = tmp_path / "field.dsbu"
        write_snapshot(str(path), field, SnapshotMeta(0.0, 1, 1.0))
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(SnapshotFormatError, match="size mismatch"):
            read_snapshot(str(path))

    def test_header_payload_mismatch_rejected(self, tmp_path):
        import struct

        field = self.make_field()
        path = tmp_path / "field.dsbu"
        write_snapshot(str(path), field, SnapshotMeta(0.0, 1, 1.0))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 64)  # lie about n
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="structural"):
            read_snapshot(str(path))

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
        with pytest.raises(SnapshotFormatError, match=rf"bad header: .*\b{key}\b"):
            read_snapshot(str(path))

    def test_crafted_blob_is_valid_by_default(self, tmp_path):
        path = tmp_path / "good.dsbu"
        path.write_bytes(snapshot_blob())
        field, meta = read_snapshot(str(path))
        assert field.grid.n == 8 and meta == SnapshotMeta(0.5, 1, 1.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "nope.dsbu"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(str(path))


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
        field, meta = read_snapshot(str(snaps[0]))
        assert field.grid.n == 64
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

    def test_blowup_report_format(self, tmp_path, monkeypatch, capsys):
        est = BlowupEstimate(t_star_estimate=0.3 + 1 / 3, method="linear_inverse_gradient",
                             fit_window=(0.1, 0.2 + 1 / 7), fit_residual=1 / 9)

        def fake_run(state, cfg):
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
            "mass", "c_opt", "residual", "iterations", "sharpness_ratio", "profile"]
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
        proc = subprocess.run(
            [sys.executable, "-m", "dsbu.cli", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr
