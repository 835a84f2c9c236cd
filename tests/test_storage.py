"""Tests for index persistence."""

import pickle
import random
import zlib

import pytest

from repro.graph.static import Graph
from repro.index.deltagraph import DeltaGraphIndex
from repro.index.tgi import TGI, TGIConfig
from repro.storage import (
    _FORMAT_VERSION,
    _HEADER,
    _MAGIC,
    PersistenceError,
    load_index,
    save_index,
)
from tests.helpers import random_history, small_tgi


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


def envelope(version, payload):
    """A file laid out as ``save_index`` writes one."""
    return _HEADER.pack(_MAGIC, version, zlib.crc32(payload)) + payload


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.hgs"
    path.write_bytes(b"not an index")
    with pytest.raises(PersistenceError, match="not an HGS index"):
        load_index(path)


def test_load_rejects_garbage_behind_a_valid_header(tmp_path):
    path = tmp_path / "junk.hgs"
    path.write_bytes(envelope(_FORMAT_VERSION, b"not a pickle"))
    with pytest.raises(PersistenceError, match="cannot read"):
        load_index(path)


def test_load_rejects_wrong_payload(tmp_path):
    path = tmp_path / "wrong.hgs"
    path.write_bytes(envelope(_FORMAT_VERSION, pickle.dumps(42)))
    with pytest.raises(PersistenceError, match="does not contain an index"):
        load_index(path)


def test_load_rejects_pre_exec_layer_format(tmp_path):
    # formats up to 11 were one pickled envelope dict: recognized and
    # named, not unpickled
    path = tmp_path / "old.hgs"
    for version in (1, 11):
        path.write_bytes(pickle.dumps(
            {"magic": "hgs-index", "format": version, "class": "TGI",
             "index": None}, protocol=pickle.HIGHEST_PROTOCOL,
        ))
        with pytest.raises(
            PersistenceError, match=f"unsupported index format {version} "
        ):
            load_index(path)


def test_load_rejects_future_format(tmp_path):
    # any header format but this build's: a later one, and the one before
    # (14, which may hold pickled EventList / Delta rows that the one
    # packed read path does not replay)
    path = tmp_path / "other.hgs"
    for version in (99, _FORMAT_VERSION - 1):
        path.write_bytes(envelope(version, pickle.dumps(None)))
        with pytest.raises(
            PersistenceError, match=f"unsupported index format {version} "
        ):
            load_index(path)


def test_truncation_and_every_bit_flip_fail_typed(tmp_path):
    """No damaged file loads, and none fails with anything but
    ``PersistenceError``: the header is checked, and the payload
    checksummed, before a byte reaches ``pickle``."""
    tgi = small_tgi(random_history(steps=300, seed=1))
    path = tmp_path / "index.hgs"
    save_index(tgi, path)
    good = path.read_bytes()
    rng = random.Random(0)
    damaged = [good[:cut] for cut in (0, 5, _HEADER.size, len(good) // 2,
                                      len(good) - 1)]
    for _ in range(300):
        bit = rng.randrange(len(good) * 8)
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(flipped))
    for data in damaged:
        path.write_bytes(data)
        with pytest.raises(PersistenceError):
            load_index(path)
    path.write_bytes(good)
    assert isinstance(load_index(path), TGI)


def test_load_missing_file(tmp_path):
    with pytest.raises(PersistenceError):
        load_index(tmp_path / "missing.hgs")


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch, events):
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
