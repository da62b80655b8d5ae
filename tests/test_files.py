"""Atomic writes: a failure in the middle of a write keeps the old file and
leaves no temp file behind."""

import json

import numpy as np
import pytest

from qpattn import cli, files, vit
from qpattn.vit import VitConfig, init_model


class Boom(Exception):
    pass


def test_atomic_open_replaces_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with files.atomic_open(path, "w", encoding="utf-8") as f:
        f.write("new")
        assert path.read_text() == "old"  # nothing visible before the rename
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("existed", [True, False], ids=["old-file", "no-file"])
def test_atomic_open_failure_keeps_old_file_and_no_temp(tmp_path, existed):
    path = tmp_path / "out.bin"
    if existed:
        path.write_bytes(b"old")
    with pytest.raises(Boom):
        with files.atomic_open(path, "wb") as f:
            f.write(b"partial")
            raise Boom
    assert [p.name for p in tmp_path.iterdir()] == (["out.bin"] if existed else [])
    if existed:
        assert path.read_bytes() == b"old"


def test_csv_failing_mid_write_keeps_old_file(tmp_path):
    path = tmp_path / "rows.csv"
    cli._write_csv(path, ["a"], [{"a": 1}])
    before = path.read_text()
    with pytest.raises(ValueError):  # the second row has a field the header lacks
        cli._write_csv(path, ["a"], [{"a": 2}, {"b": 3}])
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_jsonl_and_json_failing_mid_write_keep_old_files(tmp_path):
    jsonl, js = tmp_path / "h.jsonl", tmp_path / "s.json"
    cli._write_jsonl(jsonl, [{"epoch": 1}])
    cli._write_json(js, {"ok": 1})
    before = jsonl.read_text(), js.read_text()
    with pytest.raises(TypeError):  # not JSON-serialisable, after one good record
        cli._write_jsonl(jsonl, [{"epoch": 2}, {"epoch": object()}])
    with pytest.raises(TypeError):
        cli._write_json(js, {"ok": 2, "bad": object()})
    assert (jsonl.read_text(), js.read_text()) == before
    assert json.loads(js.read_text()) == {"ok": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.jsonl", "s.json"]


def test_checkpoint_failing_mid_write_keeps_old_checkpoint(tmp_path, monkeypatch):
    config = VitConfig(8, 1, 4, 1, 2, 8, 16, 2, scorer="qpa", depth=4)
    path = tmp_path / "checkpoint.npz"
    vit.save_checkpoint(init_model(config, 0), path)
    before = path.read_bytes()

    def savez_then_fail(f, **payload):
        f.write(b"PK\x03\x04 half an archive")
        raise Boom

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(Boom):
        vit.save_checkpoint(init_model(config, 1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]
    monkeypatch.undo()
    loaded = vit.load_checkpoint(path)
    assert all(np.array_equal(loaded.params[k], v) for k, v in init_model(config, 0).params.items())
