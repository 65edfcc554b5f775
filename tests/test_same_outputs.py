"""The pure comparison of ``scripts/same_outputs.py`` on fixed digests."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_differences_of_fixed_digests():
    parent = {"evolve/records.csv": "a", "evolve/snap_000001.dsbu": "b",
              "evolve/snap_000000.dsbu": "c", "evolve/stdout": "d"}
    change = {"evolve/records.csv": "a", "evolve/snap_000001.dsbu": "B",
              "evolve/snap_000000.dsbu": "c", "evolve/snap_000002.dsbu": "e"}
    assert same_outputs.differences(parent, change) == [
        "differs: evolve/snap_000001.dsbu",
        "only in change: evolve/snap_000002.dsbu",
        "only in parent: evolve/stdout",
    ]
    assert same_outputs.differences(parent, dict(parent)) == []


def test_digests_name_every_file_by_its_relative_path(tmp_path):
    (tmp_path / "evolve").mkdir()
    (tmp_path / "evolve" / "records.csv").write_bytes(b"t\n")
    (tmp_path / "stdout").write_bytes(b"")
    got = same_outputs.digests(tmp_path)
    assert sorted(got) == ["evolve/records.csv", "stdout"]
    assert got["stdout"] == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
