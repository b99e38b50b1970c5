"""Which public functions of each layer the traced run wraps.

Each target is ``(module, attribute path, span name, post hook, lazy)``
for :func:`spans.install`.  Span names use the layer's module as prefix
(``server.``, ``engine.``, ``segments.`` ...), matching the per-layer
metric names.  Post hooks add counts (cache hits, posting tiers, planned
algorithms) under the current request, or attributes on the span.

The trace covers only these calls into the program; nothing inside the
program is instrumented by the benchmark.
"""

from __future__ import annotations

import os
from urllib.parse import urlsplit

#: Spans kept one record per call (all others are folded into totals).
SERVER_DETAIL = ("engine.execute", "engine.run", "parallel.execute", "inverted.refresh")
CLIENT_DETAIL = ("segments.write",)


def _trace_id(rec, args, kwargs, result):
    from repro.obs.logging import current_trace_id

    return {"trace_id": current_trace_id()}


def _request(rec, args, kwargs, result):
    handler = args[0]
    return {"path": urlsplit(handler.path).path, "trace_id": handler._trace_id}


def _pool_task(rec, args, kwargs, result):
    return {"trace_id": kwargs.get("trace_id")}


def _result_lookup(rec, args, kwargs, result):
    rec.count("cache.result_hit" if result[0] else "cache.result_miss")


def _shared_lookup(rec, args, kwargs, result):
    kind = "block" if type(args[0]).__name__ == "PostingBlockCache" else "result"
    rec.count(f"shared_cache.{kind}_{'hit' if result[0] else 'miss'}")


def _tier(rec, args, kwargs, result):
    count = args[1] if len(args) > 1 else kwargs.get("count", 1)
    if count:
        rec.count(f"inverted.tier_{args[0]}", count)


def _algorithm(rec, args, kwargs, result):
    rec.count(f"engine.algorithm_{args[1].algorithm}")


def _block_touch(rec, args, kwargs, result):
    rec.count_first("segments.block_first", (id(args[0]), args[1], args[2]))


def _segment_bytes(rec, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


SERVER_TARGETS = (
    ("repro.xksearch.server", "_Handler.do_GET", "server.do_GET", _request, False),
    ("repro.xksearch.system", "XKSearch.explain", "admission.explain", None, False),
    ("repro.robustness.admission", "AdmissionGate.decide", "admission.decide",
     None, False),
    ("repro.xksearch.engine", "QueryEngine.execute", "engine.execute", _trace_id,
     False),
    ("repro.xksearch.engine", "QueryEngine._plan_atoms", "engine.plan", None, False),
    ("repro.xksearch.engine", "QueryEngine._run_with_retry", "engine.run", None,
     False),
    ("repro.xksearch.engine", "QueryEngine.execute_plan", "engine.execute_plan",
     _algorithm, False),
    ("repro.xksearch.engine", "QueryEngine._note_fallback", "parallel.fallback",
     None, False),
    ("repro.xksearch.engine", "eager_slca", "core.eager_slca", None, True),
    ("repro.xksearch.engine", "stack_slca", "core.stack_slca", None, True),
    ("repro.xksearch.cache", "QueryCache.lookup_result", "cache.lookup_result",
     _result_lookup, False),
    ("repro.xksearch.cache", "QueryCache.lookup_plan", "cache.lookup_plan", None,
     False),
    ("repro.xksearch.shared_cache", "SharedResultCache.lookup",
     "shared_cache.lookup", _shared_lookup, False),
    ("repro.xksearch.parallel", "WorkerPool.execute", "parallel.execute",
     _pool_task, False),
    ("repro.index.inverted", "DiskKeywordIndex.sources_for", "inverted.sources_for",
     None, False),
    ("repro.index.inverted", "DiskKeywordIndex.generation", "inverted.generation",
     _trace_id, False),
    ("repro.index.inverted", "DiskKeywordIndex.refresh", "inverted.refresh", None,
     False),
    ("repro.index.inverted", "DiskKeywordIndex._note_tier", "inverted.note_tier",
     _tier, False),
    ("repro.index.segments", "SegmentReader.block", "segments.block",
     _block_touch, False),
    ("repro.index.segments", "SegmentReader.scan", "segments.scan", None, True),
    ("repro.index.segments", "decode_block", "segments.decode", None, False),
    ("repro.index.segments", "PackedListSource.lm", "segments.lm", None, False),
    ("repro.index.segments", "PackedListSource.rm", "segments.rm", None, False),
    ("repro.storage.bptree", "BPlusTree.neighbors", "bptree.neighbors", None, False),
    ("repro.obs.metrics", "Histogram.observe", "obs.observe", None, False),
    ("repro.obs.metrics", "Counter.inc", "obs.inc", None, False),
)

#: Wrapped in the load generator: index build and update sessions.
CLIENT_TARGETS = (
    ("repro.index.builder", "build_index", "builder.build", None, False),
    ("repro.index.updates", "IndexUpdater.add_postings", "updates.apply", None, False),
    ("repro.index.updates", "IndexUpdater.remove_postings", "updates.apply", None,
     False),
    ("repro.index.updates", "IndexUpdater.close", "updates.close", None, False),
    ("repro.index.segments", "write_segments", "segments.write", _segment_bytes,
     False),
    ("repro.storage.bptree", "BPlusTree.insert", "bptree.write", None, False),
    ("repro.storage.bptree", "BPlusTree.delete", "bptree.write", None, False),
)
