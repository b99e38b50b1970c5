"""Characterization of the engine's tier chain.

Every combination of result cache × worker pool is driven through
``execute``, ``execute_many`` and ``execute(profile=True)``, and each
answer's tier (cache hit, pooled execution, in-thread execution) is
predicted by a small model.  From the predicted tier the test derives what
the engine must report: the answer, ``ExecutionStats``, the
``xks_queries_total{cache}`` label and ``counter_totals()``.

The pool is a fake that does in this process what a pool worker does: it
executes with a cache-less engine (which touches no metric), and ships its
``xks_queries_total`` update as a captured event for the parent to replay.
"""

import threading
from collections import Counter

import pytest

from repro.core.counters import OpCounters
from repro.errors import PoolError
from repro.index.memory import MemoryKeywordIndex
from repro.obs.logging import reset_current_trace_id, set_current_trace_id
from repro.obs.metrics import get_registry
from repro.robustness.deadline import Deadline, bind_deadline
from repro.xksearch.cache import QueryCache, normalize_key
from repro.xksearch.engine import ExecutionStats, QueryEngine, parse_query
from repro.xksearch.parallel import TaskResult

#: One round of queries: a reordered repeat, an empty plan (a keyword that
#: never occurs, which is never pooled) and a single keyword.
QUERIES = [
    "xkrare xkbig",
    "xkmid xkbig",
    "xkbig xkrare",
    "xkrare nosuchword",
    "xkmid",
    "xkrare xkmid xkbig",
]

_QUERIES_HELP = "Queries executed or answered from cache."


def _queries_event(algorithm, cache):
    return (
        "c",
        "xks_queries_total",
        ("semantics", "algorithm", "cache"),
        ("slca", algorithm, cache),
        _QUERIES_HELP,
        1.0,
    )


class FakePool:
    """A worker pool that runs each task in the calling thread."""

    size = 2

    def __init__(self, index, fail=False):
        self.worker = QueryEngine(index)
        self.fail = fail
        self.calls = []
        self._lock = threading.Lock()

    def execute(self, semantics, tokens, algorithm, generation, trace_id=None,
                want_spans=False, deadline_epoch=None):
        with self._lock:
            self.calls.append({"trace_id": trace_id, "deadline_epoch": deadline_epoch})
        if self.fail:
            raise PoolError("injected dispatch failure")
        spans = {"name": "worker"} if want_spans else None
        plan = self.worker.plan(tokens, algorithm)
        stats = ExecutionStats()
        ids = tuple(self.worker.execute_plan(plan, stats))
        return TaskResult(
            ids, stats.counters.as_dict(), 0.5,
            events=[_queries_event(plan.algorithm, "off")], spans=spans,
        )


def _query_labels():
    """``xks_queries_total`` by (algorithm, cache) label."""
    out = Counter()
    for sample in get_registry().collect():
        if sample.name == "xks_queries_total":
            out[(sample.labels["algorithm"], sample.labels["cache"])] += sample.value
    return out


def _label_delta(before, after):
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


@pytest.fixture(scope="module")
def index(planted_dblp_module):
    return MemoryKeywordIndex.from_tree(planted_dblp_module)


@pytest.fixture(scope="module")
def planted_dblp_module():
    from repro.xmltree.generate import dblp_like_tree, plant_keywords

    tree = dblp_like_tree(5, venues=3, years_per_venue=3, papers_per_year=10)
    plant_keywords(tree, {"xkrare": 4, "xkmid": 20, "xkbig": 60}, seed=9)
    return tree


@pytest.fixture(scope="module")
def reference(index):
    """Per query: (key, plan, answer, counters) from a plain in-thread run
    that touches no metric."""
    ref = QueryEngine(index)
    out = {}
    for query in QUERIES:
        plan = ref.plan(query)
        stats = ExecutionStats()
        answer = list(ref.execute_plan(plan, stats))
        key = normalize_key((a.display for a in parse_query(query)), "auto", "slca")
        out[query] = (key, plan, answer, stats.counters.as_dict())
    return out


class TierModel:
    """Predicts which tier answers each query, and what that tier stores."""

    def __init__(self, cache, pool):
        self.cache, self.pool = cache, pool
        self.local = set()

    def tier(self, key, plan, profile):
        if self.cache and key in self.local:
            return "hit"
        if self.cache:
            self.local.add(key)
        pooled = self.pool == "ok" and not profile and not plan.empty
        return "pool" if pooled else "thread"


def _expect(tiers, plans, counters, cache):
    """Expected stats fields and label movement for a set of tiers."""
    labels = Counter()
    totals = {}
    summed = OpCounters()
    for tier, plan, delta in zip(tiers, plans, counters):
        summed.add(OpCounters(**delta))
        if tier == "hit":
            labels[("auto", "hit")] += 1
        else:
            labels[(plan.algorithm, "miss" if cache else "off")] += 1
            totals.setdefault(plan.algorithm, OpCounters()).add(OpCounters(**delta))
    fields = {
        "cache_hits": tiers.count("hit"),
        "cache_misses": sum(1 for t in tiers if t != "hit") if cache else 0,
        "worker_spans": tiers.count("pool"),
        "counters": summed.as_dict(),
    }
    return fields, dict(labels), totals


def _fields(stats):
    return {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "worker_spans": len(stats.worker_spans),
        "counters": stats.counters.as_dict(),
    }


@pytest.mark.parametrize("mode", ["execute", "execute_many", "profile"])
@pytest.mark.parametrize("pool", [None, "ok", "raise"])
@pytest.mark.parametrize("cache", [False, True])
def test_tier_chain(index, reference, cache, pool, mode):
    engine = QueryEngine(index, cache=QueryCache() if cache else None)
    if pool is not None:
        engine.attach_pool(FakePool(index, fail=pool == "raise"))
    model = TierModel(cache, pool)
    expected_totals = {}
    for _round in range(2):
        if mode == "execute_many":
            calls = [QUERIES]
        else:
            calls = [[query] for query in QUERIES]
        for batch in calls:
            distinct = list(dict.fromkeys(reference[q][0] for q in batch))
            by_key = {reference[q][0]: reference[q] for q in batch}
            tiers = [
                model.tier(key, by_key[key][1], mode == "profile")
                for key in distinct
            ]
            plans = [by_key[key][1] for key in distinct]
            counters = [by_key[key][3] for key in distinct]
            fields, labels, totals = _expect(tiers, plans, counters, cache)
            for algorithm, delta in totals.items():
                expected_totals.setdefault(algorithm, OpCounters()).add(delta)

            stats = ExecutionStats()
            before = _query_labels()
            if mode == "execute_many":
                answers = engine.execute_many(batch, stats=stats)
            else:
                answers = [
                    list(engine.execute(batch[0], stats=stats,
                                        profile=mode == "profile"))
                ]
            labels_seen = _label_delta(before, _query_labels())

            context = (cache, pool, mode, batch, tiers)
            assert answers == [reference[q][2] for q in batch], context
            assert _fields(stats) == fields, context
            assert labels_seen == labels, context
            assert stats.result_from_cache == ("hit" in tiers), context
            if mode == "profile":
                assert stats.profile.cache_hit == (tiers[0] == "hit"), context
                assert stats.profile.result_count == len(answers[0]), context
    totals = engine.counter_totals()
    totals.pop("_total")
    assert totals == {
        alg: c.as_dict() for alg, c in sorted(expected_totals.items())
    }


def test_fanned_out_batch_keeps_caller_context(index):
    """execute_many's pool fan-out carries the caller's trace id and
    deadline into every dispatched task, like a plain execute does."""
    engine = QueryEngine(index)
    pool = FakePool(index)
    engine.attach_pool(pool)
    deadline = Deadline.after_ms(60_000)
    token = set_current_trace_id("trace-batch")
    try:
        with bind_deadline(deadline):
            engine.execute_many(["xkrare xkbig", "xkmid xkbig", "xkrare xkmid"])
            list(engine.execute("xkmid xkbig"))
    finally:
        reset_current_trace_id(token)
    assert len(pool.calls) == 4
    for call in pool.calls:
        assert call["trace_id"] == "trace-batch"
        assert call["deadline_epoch"] == pytest.approx(deadline.wall_expiry(), abs=1.0)


@pytest.mark.parametrize("tier", ["hit", "pool"])
def test_batch_flags_cached_answers_like_execute(index, tier):
    """execute_many sets result_from_cache for a cache hit and leaves it
    unset for a pooled answer, exactly as execute does."""
    if tier == "hit":
        engine = QueryEngine(index, cache=QueryCache())
    else:
        engine = QueryEngine(index)
        engine.attach_pool(FakePool(index))
    engine.execute_many(["xkrare xkbig"])
    for run in (
        lambda stats: engine.execute_many(["xkbig xkrare"], stats=stats),
        lambda stats: list(engine.execute("xkrare xkbig", stats=stats)),
    ):
        stats = ExecutionStats()
        run(stats)
        assert stats.result_from_cache == (tier == "hit")
