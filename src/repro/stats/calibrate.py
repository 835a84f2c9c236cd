"""Build-time apply-cost microbenchmark.

``CostModel``'s apply constants (payload decode per KiB, replay per
item) defaulted to fixed guesses; this module measures the two
quantities on the actual machine, against the actual rows a build just
wrote, so ``apply_ms`` becomes a real predictor of Python-side cost.

The benchmark is deliberately tiny — a stride sample of stored rows,
decoded and replayed a few times with the best (least-noisy) repeat
kept — so it adds milliseconds to a build, not seconds.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

from repro.kvstore.cost import (
    DEFAULT_APPLY_PER_KB_MS,
    DEFAULT_REPLAY_PER_ITEM_MS,
)
from repro.stats.model import ApplyCalibration

#: Rows the microbenchmark samples (stride-spread over the key space).
SAMPLE_ROWS = 48

#: Timed repeats per measurement; the fastest repeat is kept.
REPEATS = 3

#: Lower bound on either constant (a measured 0 would make warm-path
#: accounting claim replay is free, which it never is).
FLOOR_MS = 1e-5


def _best_ms(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def calibrate_apply_costs(
    cluster, sample_rows: int = SAMPLE_ROWS, repeats: int = REPEATS
) -> ApplyCalibration:
    """Measure decode ms/KiB and replay ms/item against ``cluster``'s
    stored rows.

    Returns the fixed defaults (sample counts 0) when the cluster holds
    nothing to measure — callers can always trust the returned constants.
    """
    # local imports: this module is reached from repro.index.tgi.index at
    # build time, and the replay half needs the query machinery from the
    # same package — importing it lazily keeps the package import acyclic
    from repro.deltas.base import Delta
    from repro.index.tgi.layout import TAG_AUX_EVENTLIST, TAG_EVENTLIST
    from repro.index.tgi.query import PartialState
    from repro.kvstore.codec import decode

    encoded: List[Tuple[Any, Any]] = []
    seen = set()
    for machine in cluster.machines:
        for key, value in machine.items():
            if key in seen:
                continue
            seen.add(key)
            encoded.append((key, value))
    if not encoded:
        return ApplyCalibration(
            DEFAULT_APPLY_PER_KB_MS, DEFAULT_REPLAY_PER_ITEM_MS
        )
    stride = max(1, len(encoded) // sample_rows)
    sampled = encoded[::stride][:sample_rows]

    raw_kib = sum(v.raw_size for _k, v in sampled) / 1024.0
    decode_ms = _best_ms(
        lambda: [decode(v.payload) for _k, v in sampled], repeats
    )
    apply_per_kb = max(
        decode_ms / raw_kib if raw_kib > 0 else FLOOR_MS, FLOOR_MS
    )

    # replay the rows the way queries do: deltas load one by one, but a
    # partition's eventlists apply as one chain per ``apply_eventlists``
    # call (the per-item rate depends on it — the bulk kernel amortizes
    # node thaw/freeze across a chain, exactly as warm replay does)
    deltas: List[Any] = []
    chains: dict = {}
    replay_bytes = 0
    items = 0
    for (key, enc) in sampled:
        value = decode(enc.payload)
        tag, idx = key[2]
        if tag in (TAG_EVENTLIST, TAG_AUX_EVENTLIST):
            # a partition's eventlist rows replay as one chain through
            # the bulk apply_eventlists kernel, as queries replay them
            chains.setdefault((key[0], key[1], tag, key[3]), []).append(
                (idx, value)
            )
        elif isinstance(value, Delta):
            # a packed row builds its StaticNodes on first use and keeps
            # them; thawed here, every timed repeat replays the same
            # thing (the thaw itself is priced by neither constant yet)
            value.static_nodes()
            deltas.append(value)
        else:
            continue  # version chains: neither constant prices them
        items += len(value)
        replay_bytes += enc.raw_size
    chain_lists = [
        [v for _i, v in sorted(rows, key=lambda r: r[0])]
        for _g, rows in sorted(chains.items(), key=lambda kv: repr(kv[0]))
    ]

    def _replay() -> None:
        state = PartialState()
        for delta in deltas:
            state.load_delta(delta)
        for chain in chain_lists:
            state.apply_eventlists(chain)
        state.node_state(0)  # freeze pending accumulators: part of replay

    if items > 0:
        replay_ms = _best_ms(_replay, repeats)
        replay_per_item = max(replay_ms / items, FLOOR_MS)
    else:
        replay_per_item = DEFAULT_REPLAY_PER_ITEM_MS

    return ApplyCalibration(
        apply_per_kb_ms=apply_per_kb,
        replay_per_item_ms=replay_per_item,
        sample_rows=len(sampled),
        sample_items=items,
        items_per_kb=(
            items / (replay_bytes / 1024.0) if replay_bytes > 0 else 0.0
        ),
    )
