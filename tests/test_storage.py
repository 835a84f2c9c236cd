"""Tests for index persistence."""

import pytest

from repro.graph.static import Graph
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.tgi import TGI, TGIConfig
from repro.storage import PersistenceError, load_index, save_index
from tests.helpers import random_history


@pytest.fixture(scope="module")
def events():
    return random_history(steps=120, seed=55)


def test_save_load_roundtrip_tgi(tmp_path, events):
    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=15,
                        micro_partition_size=8))
    tgi.build(events)
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    loaded = load_index(path)
    t = events[-1].time
    assert loaded.get_snapshot(t) == Graph.replay(events, until=t)


def test_save_load_roundtrip_deltagraph(tmp_path, events):
    idx = DeltaGraphIndex(eventlist_size=20)
    idx.build(events)
    path = tmp_path / "dg.hgs"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.get_snapshot(50) == idx.get_snapshot(50)


def test_loaded_index_supports_update(tmp_path, events):
    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=15,
                        micro_partition_size=8))
    tgi.build(events[:100])
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    loaded = load_index(path)
    loaded.update(events[100:])
    t = events[-1].time
    assert loaded.get_snapshot(t) == Graph.replay(events, until=t)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.hgs"
    path.write_bytes(b"not an index")
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_rejects_wrong_payload(tmp_path):
    import pickle

    from repro.storage import _FORMAT_VERSION

    path = tmp_path / "wrong.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index",
                                   "format": _FORMAT_VERSION,
                                   "class": "X", "index": 42}))
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_rejects_pre_exec_layer_format(tmp_path):
    import pickle

    path = tmp_path / "old.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index", "format": 1,
                                   "class": "TGI", "index": None}))
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_rejects_future_format(tmp_path):
    import pickle

    path = tmp_path / "future.hgs"
    path.write_bytes(pickle.dumps({"magic": "hgs-index", "format": 99,
                                   "class": "TGI", "index": None}))
    with pytest.raises(PersistenceError):
        load_index(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(PersistenceError):
        load_index(tmp_path / "missing.hgs")


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, events):
    import pickle

    tgi = TGI(TGIConfig(events_per_timespan=60, eventlist_size=15,
                        micro_partition_size=8))
    tgi.build(events)
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    before = path.read_bytes()

    def torn_dump(obj, f, protocol=None):
        data = pickle.dumps(obj, protocol=protocol)
        f.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(pickle, "dump", torn_dump)
    with pytest.raises(OSError):
        save_index(tgi, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["index.hgs"]
    t = events[-1].time
    assert load_index(path).get_snapshot(t) == Graph.replay(events, until=t)
