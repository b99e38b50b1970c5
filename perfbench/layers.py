"""Per-layer metrics of the traced run, from spans and client records.

``/req`` metrics divide a layer's calls or time, summed over every
process (server and pool workers), by the requests the traced half
completed.  Counts that must repeat exactly for a seed (``core.match_ops``
from each response's ``counters``, pager and buffer-pool movement from
``/statz``) come from the sequential warm-up pass instead, whose request
order does not depend on timing.

``README.md`` maps each layer (module) to its metrics and to the
end-to-end metric and workload each should move.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, Iterable, List, Sequence

from workloads import CHURN_ADDS, CHURN_REMOVES

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def metric_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of one metric list (``end_to_end``, ``per_layer``)
    of ``BENCHMARK.json``, the one place metric names and units are kept."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[section]}


#: Per-layer metric units.
UNITS = metric_units("per_layer")


def merge_totals(roots: Iterable[dict]) -> Dict[str, List[int]]:
    """Sum ``name -> [calls, total_ns, self_ns]`` over root spans."""
    merged: Dict[str, List[int]] = {}
    for root in roots:
        for name, (calls, total, own) in root["totals"].items():
            entry = merged.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
    return merged


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1), interpolating between ranks; 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(dumps, window, records, untraced, warmup, client):
    """``(metrics, units)`` for the traced half.

    ``dumps`` are the span files of the traced server and its workers,
    ``window`` the traced half's ``(start_ns, end_ns)``, ``records`` its
    client records, ``untraced`` the untraced half's records, ``warmup``
    the warm-up counts and ``client`` this process's recorder (builds and
    update sessions).
    """
    lo, hi = window
    requests = [
        root for dump in dumps if dump["role"] == "server" for root in dump["roots"]
        if root["name"] == "server.do_GET"
        and root["attrs"].get("path") == "/api/search" and lo <= root["start"] <= hi
    ]
    worker_roots = [
        root for dump in dumps if dump["role"] == "worker" for root in dump["roots"]
        if lo <= root["start"] <= hi
    ]
    detail = [span for dump in dumps for span in dump["spans"]]
    totals = merge_totals(requests + worker_roots)
    n = max(1, len(records))

    def calls(*names):
        return sum(totals.get(name, (0, 0, 0))[0] for name in names)

    def ms(*names):
        return sum(totals.get(name, (0, 0, 0))[1] for name in names) / 1e6

    def self_ms(*names):
        return sum(totals.get(name, (0, 0, 0))[2] for name in names) / 1e6

    # Parent-side spans of the traced half (workers keep their own).
    server_spans = [
        span for dump in dumps if dump["role"] == "server" for span in dump["spans"]
        if lo <= span["start"] <= hi
    ]

    def server_ms(*names):
        return [(s["end"] - s["start"]) / 1e6 for s in server_spans if s["name"] in names]

    answered = [r for r in records if r.answered]
    worker_ms: Dict[str, float] = {}
    for root in worker_roots:
        trace_id = root["attrs"].get("trace_id")
        if trace_id:
            worker_ms[trace_id] = (
                worker_ms.get(trace_id, 0.0) + (root["end"] - root["start"]) / 1e6
            )
    pooled = [
        s for s in server_spans
        if s["name"] == "parallel.execute" and s["attrs"].get("trace_id") in worker_ms
    ]
    pooled_ms = sum((s["end"] - s["start"]) / 1e6 for s in pooled)
    worker_side_ms = sum(worker_ms[s["attrs"]["trace_id"]] for s in pooled)
    sessions = [root for root in client.roots if root["name"] == "updates.session"]
    writes = [s for s in client.spans if s["name"] == "segments.write"]
    changed = CHURN_ADDS + CHURN_REMOVES
    session_bytes = [
        sum(s["attrs"]["bytes"] for s in writes if root["start"] <= s["start"] <= root["end"])
        / changed
        for root in sessions
    ]
    algorithms = {
        name: count for name, (count, _, _) in totals.items()
        if name.startswith("engine.algorithm_")
    }
    client_ms = sum((r.done - r.sent) / 1e6 for r in records)
    traced_mean = statistics.mean(r.latency_ns for r in records)
    untraced_mean = statistics.mean(r.latency_ns for r in untraced)
    metrics = {
        "server.ttfb_ms.p50": _median([(r.headers - r.sent) / 1e6 for r in answered]),
        "server.body_wait_ms.p50": _median([(r.done - r.headers) / 1e6 for r in answered]),
        "server.self_ms.p50": _median(
            [root["totals"]["server.do_GET"][2] / 1e6 for root in requests]
        ),
        "server.response_bytes.mean": statistics.mean(r.nbytes for r in records),
        "admission.ms_per_req": ms("admission.explain", "admission.decide") / n,
        "engine.search_ids_ms.p50": quantile(server_ms("engine.execute"), 0.5),
        "engine.search_ids_ms.p99": quantile(server_ms("engine.execute"), 0.99),
        "engine.plan_calls_per_req": calls("engine.plan") / n,
        "cache.result_hit_ratio": _ratio(
            calls("cache.result_hit"), calls("cache.result_hit", "cache.result_miss")
        ),
        "cache.lookup_ms_per_req": ms("cache.lookup_result", "cache.lookup_plan") / n,
        "shared_cache.result_hit_ratio": _ratio(
            calls("shared_cache.result_hit"),
            calls("shared_cache.result_hit", "shared_cache.result_miss"),
        ),
        "shared_cache.posting_block_hit_ratio": _ratio(
            calls("shared_cache.block_hit"),
            calls("shared_cache.block_hit", "shared_cache.block_miss"),
        ),
        # A cache miss executes in a pool worker or, without a pool or after
        # a fallback, in-thread; either way this is its cost to the parent.
        "parallel.execute_ms.p50": _median(server_ms("parallel.execute", "engine.run")),
        "parallel.ipc_share": _ratio(pooled_ms - worker_side_ms, pooled_ms),
        "parallel.fallback_ratio": _ratio(
            calls("parallel.fallback"), calls("parallel.execute")
        ),
        "inverted.sources_for_ms_per_req": ms("inverted.sources_for") / n,
        "inverted.generation_ms_per_req": ms("inverted.generation") / n,
        "inverted.bptree_source_share": _ratio(
            calls("inverted.tier_bptree"),
            calls("inverted.tier_bptree", "inverted.tier_segment"),
        ),
        "inverted.refresh_ms.p50": _median(
            [(s["end"] - s["start"]) / 1e6 for s in detail
             if s["name"] == "inverted.refresh" and s["start"] >= lo]
        ),
        "segments.block_calls_per_req": calls("segments.block") / n,
        "segments.decode_calls_per_req": calls("segments.decode") / n,
        "segments.block_hit_ratio": 1.0 - _ratio(
            calls("segments.decode"), calls("segments.block")
        ) if calls("segments.block") else 0.0,
        # Of the distinct blocks each request needs, the share it decodes
        # (not in the LRU when first asked for).
        "segments.cold_block_share": _ratio(
            calls("segments.decode"), calls("segments.block_first")
        ),
        "segments.decode_ms_per_req": ms("segments.decode") / n,
        "segments.lm_rm_calls_per_req": calls("segments.lm", "segments.rm") / n,
        "segments.lm_rm_self_ms_per_req": self_ms("segments.lm", "segments.rm") / n,
        "segments.scan_ms_per_req": ms("segments.scan") / n,
        "segments.write_ms": _median([(s["end"] - s["start"]) / 1e6 for s in writes]),
        "bptree.neighbors_calls_per_req": calls("bptree.neighbors") / n,
        "buffer_pool.hit_ratio": _ratio(
            warmup["pool_hits"], warmup["pool_hits"] + warmup["pool_misses"]
        ),
        "pager.reads_per_req": warmup["pager_reads"] / warmup["requests"],
        "bptree.writes_per_commit": _median(
            [root["totals"].get("bptree.write", (0,))[0] for root in sessions]
        ),
        "core.match_ops_per_req": warmup["match_ops"] / warmup["requests"],
        "core.algo_self_ms_per_req": self_ms("core.eager_slca", "core.stack_slca") / n,
        "core.il_share": _ratio(
            algorithms.get("engine.algorithm_il", 0), sum(algorithms.values())
        ),
        "updates.apply_ms.p50": _median(
            [root["totals"].get("updates.apply", (0, 0))[1] / 1e6 for root in sessions]
        ),
        "updates.close_ms.p50": _median(
            [root["totals"].get("updates.close", (0, 0))[1] / 1e6 for root in sessions]
        ),
        "updates.segment_bytes_per_posting_changed": _median(session_bytes),
        "builder.build_ms": _median(
            [(root["end"] - root["start"]) / 1e6 for root in client.roots
             if root["name"] == "builder.build"]
        ),
        "obs.histogram_observes_per_req": calls("obs.observe") / n,
        "obs.counter_incs_per_req": calls("obs.inc") / n,
        "trace.coverage": _ratio(
            sum(own for root in requests for _, _, own in root["totals"].values()) / 1e6,
            client_ms,
        ),
        "trace.overhead_pct": 100.0 * (traced_mean / untraced_mean - 1.0),
    }
    return metrics, UNITS
