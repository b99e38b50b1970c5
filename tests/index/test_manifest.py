"""Manifest rewrites are atomic: a write that fails midway leaves the
previous manifest loadable, and no temporary file behind."""

import json
import os

import pytest

from repro.index.builder import build_index, load_manifest
from repro.index.updates import IndexUpdater
from repro.xmltree.generate import dblp_like_tree, plant_keywords

_real_dump = json.dump


def _torn_dump(obj, fh, *args, **kwargs):
    """json.dump that writes half of a manifest, then fails."""
    if isinstance(obj, dict) and "codec" in obj and "version" in obj:
        text = json.dumps(obj)
        fh.write(text[: len(text) // 2])
        fh.flush()
        raise OSError("no space left on device")
    return _real_dump(obj, fh, *args, **kwargs)


def _tree():
    tree = dblp_like_tree(8, venues=2, years_per_venue=2, papers_per_year=6)
    plant_keywords(tree, {"xka": 6, "xkb": 12}, seed=4)
    return tree


@pytest.fixture
def index_dir(tmp_path):
    target = tmp_path / "idx"
    build_index(_tree(), target, page_size=1024)
    return target


def _temp_files(index_dir):
    return [name for name in os.listdir(index_dir) if name.endswith(".tmp")]


def test_failed_updater_close_keeps_previous_manifest(index_dir, monkeypatch):
    before = load_manifest(index_dir)
    updater = IndexUpdater(index_dir)
    updater.add_postings({"zzz": [((0, 0, 1, 1, 0, 0), "title")]})
    monkeypatch.setattr(json, "dump", _torn_dump)
    with pytest.raises(OSError, match="no space"):
        updater.close()
    monkeypatch.undo()
    assert load_manifest(index_dir) == before
    assert _temp_files(index_dir) == []
    updater._pager.close()


def test_failed_rebuild_keeps_previous_manifest(index_dir, monkeypatch):
    before = load_manifest(index_dir)
    monkeypatch.setattr(json, "dump", _torn_dump)
    with pytest.raises(OSError, match="no space"):
        build_index(_tree(), index_dir, page_size=1024)
    monkeypatch.undo()
    assert load_manifest(index_dir) == before
    assert _temp_files(index_dir) == []
