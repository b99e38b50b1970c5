"""Tests of the benchmark itself: seeded inputs, the oracle check, span arithmetic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder, install  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    return wl.plant(7)


# -- same seed, same inputs ---------------------------------------------------


def test_same_seed_same_query_sequences():
    assert wl.miss_mix(3, 300, 10) == wl.miss_mix(3, 300, 10)
    assert wl.zipf_hot(3, 300, 10) == wl.zipf_hot(3, 300, 10)
    assert wl.miss_mix(3, 300, 10) != wl.miss_mix(4, 300, 10)
    assert wl.zipf_hot(3, 300, 10) != wl.zipf_hot(4, 300, 10)


def test_same_seed_same_update_schedule(corpus):
    first = wl.update_plan(corpus, 5, 4)
    again = wl.update_plan(wl.plant(7), 5, 4)
    assert (first.adds, first.removes, first.versions) == (
        again.adds, again.removes, again.versions
    )
    assert wl.update_plan(corpus, 6, 4).adds != first.adds


def test_update_versions_follow_the_sessions(corpus):
    plan = wl.update_plan(corpus, 5, 3)
    assert plan.versions[0] == sorted(corpus.lists[plan.keyword])
    for i in range(plan.sessions):
        before = set(plan.versions[i])
        assert set(plan.removes[i]) <= before
        assert not set(plan.adds[i]) & before
        assert set(plan.versions[i + 1]) == (before - set(plan.removes[i])) | set(
            plan.adds[i]
        )


def test_miss_mix_never_repeats_a_keyword_set():
    warm, timed = wl.miss_mix(11, 1500, 24)
    keys = [tuple(sorted(r.query.split())) for r in warm + timed]
    assert len(keys) == len(set(keys))


def test_zipf_warmup_is_disjoint_from_the_hot_set():
    warm, timed = wl.zipf_hot(11, 500, 24)
    hot = {tuple(sorted(r.query.split())) for r in timed}
    assert len(hot) <= wl.ZIPF_DISTINCT
    assert not hot & {tuple(sorted(r.query.split())) for r in warm}


# -- the oracle check ---------------------------------------------------------


def test_oracle_matches_a_hand_computed_answer():
    lists = {"a": [(0, 0, 1), (0, 1, 0)], "b": [(0, 0, 2), (0, 2)]}
    answers = wl.oracle(lists, [wl.Request("a b")])
    # (0, 0) holds both a and b; (0,) is their only other common ancestor.
    assert answers == {"a b": ("0.0",)}


def test_check_flags_wrong_and_truncated_answers(corpus):
    request = wl.Request("xk10_0 xk1000_1")
    expected = wl.oracle(corpus.lists, [request])[request.query]
    assert len(expected) > 2
    assert wl.check_answer(expected, None, list(expected))
    assert wl.check_answer(expected, 2, list(expected[:2]))
    assert not wl.check_answer(expected, None, list(expected[:-1]))
    assert not wl.check_answer(expected, 2, list(expected[:1]))
    wrong = list(expected)
    wrong[0] = wrong[0] + ".0"
    assert not wl.check_answer(expected, None, wrong)


def _record(request, ids, status=200, sent=0, done=1):
    record = loadgen.Record(request)
    record.sent, record.done, record.status = sent, done, status
    record.ids = tuple(ids) if ids is not None else None
    return record


def test_run_counts_wrong_truncated_and_failed_requests(corpus):
    bench = run.Run("miss-mix", 7, 10, False)
    bench.corpus = corpus
    bench.plan = wl.update_plan(corpus, 7, 1)
    good = wl.Request("xk10_0 xk1000_1")
    paged = wl.Request("xk10_0 xk1000_1", 2)
    expected = wl.oracle(corpus.lists, [good])[good.query]
    assert len(expected) > 2
    bench.answers = {(0, good.query): expected}
    v0 = frozenset([0])
    bench._keep([_record(good, expected), _record(paged, expected[:2])], v0)
    assert bench.check() == (2, 0, 0)
    bench._keep([_record(good, expected[:-1])], v0)  # truncated
    bench._keep([_record(paged, expected[1:3])], v0)  # wrong page
    bench._keep([_record(good, None, status=500)], v0)  # failed, not wrong
    assert bench.check() == (5, 3, 2)


def test_live_versions_cover_every_overlapping_version():
    bench = run.Run("update-churn", 7, 10, False)
    # Session 0 turns version 0 into 1 over [10, 20]; session 1: 1 -> 2.
    bench.sessions = [(10, 20), (30, 40)]
    live = lambda sent, done: bench._live_versions(_record(None, (), sent=sent, done=done))  # noqa: E731
    assert live(0, 5) == {0}
    assert live(0, 12) == {0, 1}
    assert live(21, 29) == {1}
    assert live(35, 50) == {1, 2}
    assert live(41, 50) == {2}


def test_churn_warmup_is_checked_at_every_version():
    # The traced half of update-churn warms up after the untraced half's
    # commits, so a warm-up query naming the churn keyword is checked
    # against a version above 0.
    seed = next(
        s for s in range(1, 200)
        if any("xk1000_0" in r.query.split() for r in wl.miss_mix(s, 0, run.WARMUP)[0])
    )
    bench = run.Run("update-churn", seed, 4, True)
    bench.prepare()
    churned = [r for r in bench.warm if bench.plan.keyword in r.query.split()]
    assert churned
    last = bench.plan.sessions
    bench.sessions = [(i, i) for i in range(last)]
    for request in churned:
        ids = bench.answers[(last, request.query)]
        page = ids if request.limit is None else ids[: request.limit]
        bench._keep([_record(request, page)], frozenset([last]))
    assert bench.check() == (len(churned) + last, 0, 0)


# -- no process outlives a run -------------------------------------------------


def test_pooled_oracle_leaves_no_process_behind():
    """The oracle's pool is forked and joined; a spawned one would start
    multiprocessing's resource tracker, which outlives the benchmark."""
    script = (
        "import multiprocessing, workloads as wl\n"
        "from multiprocessing import resource_tracker\n"
        "corpus = wl.plant(7)\n"
        "requests = wl.miss_mix(7, 40, 0)[1]\n"
        "assert wl.oracle(corpus.lists, requests, processes=2) == "
        "wl.oracle(corpus.lists, requests)\n"
        "assert multiprocessing.active_children() == []\n"
        "assert resource_tracker._resource_tracker._pid is None\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_end_group_kills_and_waits_for_orphaned_workers():
    # A killed server's pool workers outlive it in its process group.
    leader = subprocess.Popen(
        ["sh", "-c", "sleep 60 & sleep 60 & wait"], start_new_session=True
    )
    time.sleep(0.2)
    leader.kill()
    leader.wait()
    os.killpg(leader.pid, 0)  # the sleeps are still there
    run._end_group(leader.pid)
    with pytest.raises(ProcessLookupError):
        os.killpg(leader.pid, 0)


# -- metric names -------------------------------------------------------------


def test_reported_metrics_are_the_ones_benchmark_json_lists():
    request = wl.Request("xk10_0 xk10_1")
    record = _record(request, (), sent=0, done=2_000_000)
    record.headers = 1_000_000
    bench = run.Run("miss-mix", 7, 10, False)
    bench.corpus = wl.plant(7)
    bench.setup_s, bench.index_bytes = [1.0], 1000
    reported = bench.end_to_end([record], 50.0)
    assert set(reported) == set(layers.metric_units("end_to_end"))
    warmup = {"requests": 1, "match_ops": 0, "pager_reads": 0, "pool_hits": 0,
              "pool_misses": 0}
    metrics, units = layers.per_layer(
        [], (0, 1), [record], [record], warmup, Recorder()
    )
    assert set(metrics) == set(units) == set(layers.metric_units("per_layer"))


# -- span arithmetic ----------------------------------------------------------


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_on_a_hand_built_span_tree():
    # a [0, 20] holds b [1, 4] and c [5, 15]; c holds d [6, 9] and e [10, 11].
    rec = Recorder(clock=_fake_clock([0, 1, 4, 5, 6, 9, 10, 11, 15, 20]))
    a = rec.enter("a")
    rec.exit(rec.enter("b"))
    c = rec.enter("c")
    rec.exit(rec.enter("d"))
    rec.exit(rec.enter("e"))
    rec.exit(c)
    rec.exit(a, {"path": "/api/search"})
    (root,) = rec.roots
    assert (root["start"], root["end"]) == (0, 20)
    totals = root["totals"]
    assert totals["a"] == [1, 20, 20 - 3 - 10]
    assert totals["b"] == [1, 3, 3]
    assert totals["c"] == [1, 10, 10 - 3 - 1]
    assert totals["d"] == [1, 3, 3] and totals["e"] == [1, 1, 1]
    # Self times tile the root: their sum is the root's duration.
    assert sum(own for _, _, own in totals.values()) == 20


def test_lazy_spans_time_each_resumption_and_count_once():
    clock = _fake_clock([0, 1, 2, 3, 5, 6, 9, 10, 11, 12])
    rec = Recorder(clock=clock)

    def produce():
        yield 1
        yield 2

    traced = install_one(rec, produce)
    root = rec.enter("root")
    assert list(traced()) == [1, 2]  # call [1, 2], nexts [3, 5] [6, 9] [10, 11]
    rec.exit(root)
    totals = rec.roots[0]["totals"]
    assert totals["gen"] == [1, 1 + 2 + 3 + 1, 1 + 2 + 3 + 1]
    assert totals["root"][2] == 12 - 7


def install_one(rec, fn):
    import types

    module = types.ModuleType("fake_layer")
    module.produce = fn
    sys.modules["fake_layer"] = module
    install(rec, [("fake_layer", "produce", "gen", None, True)])
    return module.produce


def test_counts_and_detail_spans_land_on_the_root():
    rec = Recorder(clock=_fake_clock([0, 1, 3, 4]), detail=("inner",))
    outer = rec.enter("outer")
    inner = rec.enter("inner")
    rec.count("cache.result_hit")
    rec.exit(inner, {"trace_id": "t"})
    rec.exit(outer)
    assert rec.roots[0]["totals"]["cache.result_hit"] == [1, 0, 0]
    assert rec.spans == [
        {"name": "inner", "start": 1, "end": 3, "self": 2, "attrs": {"trace_id": "t"}}
    ]
    merged = layers.merge_totals(rec.roots + rec.roots)
    assert merged["inner"] == [2, 4, 4]


def test_first_touch_counts_once_per_root():
    rec = Recorder(clock=_fake_clock(range(100)))
    for _ in range(2):
        root = rec.enter("root")
        for key in ("a", "b", "a", "a"):
            frame = rec.enter("block")
            rec.count_first("block_first", key)
            rec.exit(frame)
        rec.exit(root)
    assert [r["totals"]["block_first"][0] for r in rec.roots] == [2, 2]
    assert [r["totals"]["block"][0] for r in rec.roots] == [4, 4]
