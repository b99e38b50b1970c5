"""Seeded inputs of the serving benchmark: corpus, query streams, oracle.

Everything a run sends or checks is derived here from ``--seed`` before
any timing starts, so the same seed gives the same corpus, the same query
sequence and the same update schedule.  The
server only ever receives the generated queries.

The corpus is a planted one (:class:`repro.workloads.datasets.PlantedCorpus`):
``variants`` keywords ``xk<freq>_<i>`` at each frequency of the paper's
``|S1|×|S2|`` grid, placed over a virtual grouped-DBLP document.  Expected
answers come from :func:`repro.core.brute.slca_by_containment`, the
repository's linear-time SLCA oracle, which shares no code with the
serving algorithms.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.brute import slca_by_containment
from repro.workloads.datasets import PlantedCorpus, keyword_name
from repro.xmltree.dewey import DeweyTuple

#: (frequency, variants) of the planted corpus every workload indexes:
#: 138 800 postings in 1 573 segment blocks of up to 128 entries, six
#: times what the 256-block ``SegmentReader`` LRU holds.  The 640 lists of
#: 10 and 100 entries (one block each) are more than the LRU holds, so the
#: cheap cells read cold blocks too; the 48 lists of 1000 entries keep the
#: scanned blocks from fitting in the LRU.
CORPUS_SPEC: Tuple[Tuple[int, int], ...] = (
    (10, 480),
    (100, 160),
    (1000, 48),
    (10000, 2),
    (50000, 1),
)

#: miss-mix cells: (frequencies of the query's keywords, request share).
#: Skewed cells plan to Indexed Lookup, near-equal cells to Scan.  About
#: four fifths of the blocks a request needs are not in the LRU when it
#: arrives, so every cell decodes.  Indexed Lookup probes from 10-entry
#: lists land on random blocks of the 10 000- and 50 000-entry lists.
#: Over a kept-alive connection the server's delayed-ACK stall rounds
#: latency up to a 4 ms timer tick, so a latency quantile jumps a whole
#: tick when the server time under it crosses one, and server time drifts
#: by a third on a shared host.  The cells of small lists (2-3 ms to the
#: response headers, cold blocks included) therefore take 88%, so about
#: 83% of requests fall in the first tick and the median stays there when
#: the host slows (at 72% it crossed in some runs).
MISS_CELLS: Tuple[Tuple[Tuple[int, ...], float], ...] = (
    ((10, 10), 0.24),
    ((10, 100), 0.22),
    ((10, 10, 10), 0.16),
    ((10, 10, 100), 0.14),
    ((10, 100, 100), 0.06),
    ((100, 100), 0.03),
    ((10, 1000), 0.03),
    ((100, 1000), 0.01),
    ((10, 10000), 0.03),
    ((10, 50000), 0.03),
    ((10, 1000, 10000), 0.01),
    ((10, 10000, 50000), 0.01),
    ((1000, 1000), 0.02),
    ((1000, 1000, 1000), 0.01),
)

#: zipf-hot draws from this many distinct queries over small-to-mid cells.
ZIPF_CELLS: Tuple[Tuple[int, ...], ...] = (
    (10, 100),
    (10, 1000),
    (100, 100),
    (100, 1000),
    (1000, 1000),
    (10, 100, 1000),
)
ZIPF_DISTINCT = 200
ZIPF_SKEW = 1.1

#: Share of requests that ask for a results page (``limit=20``).
PAGE_SHARE = 0.5
PAGE_LIMIT = 20

#: The keyword every update session rewrites, and the session's size.
CHURN_FREQUENCY = 1000
CHURN_ADDS = 24
CHURN_REMOVES = 24


@dataclass(frozen=True)
class Request:
    """One ``/api/search`` call: the query text and an optional page size."""

    query: str
    limit: Optional[int] = None

    def path(self) -> str:
        path = "/api/search?q=" + self.query.replace(" ", "+")
        if self.limit is not None:
            path += f"&limit={self.limit}"
        return path


@dataclass
class UpdatePlan:
    """A seeded sequence of update sessions on one keyword.

    ``versions[i]`` is the keyword's posting list after ``i`` sessions
    (``versions[0]`` is the built index); session ``i`` turns version
    ``i`` into ``i + 1`` by adding ``adds[i]`` and removing ``removes[i]``.
    """

    keyword: str
    adds: List[List[DeweyTuple]] = field(default_factory=list)
    removes: List[List[DeweyTuple]] = field(default_factory=list)
    versions: List[List[DeweyTuple]] = field(default_factory=list)

    @property
    def sessions(self) -> int:
        return len(self.adds)


def plant(seed: int) -> PlantedCorpus:
    """The seeded planted corpus (the input lists the index is built from)."""
    return PlantedCorpus.for_frequencies(CORPUS_SPEC, seed=seed)


def _names(frequency: int) -> List[str]:
    variants = dict(CORPUS_SPEC)[frequency]
    return [keyword_name(frequency, v) for v in range(variants)]


def _draw(rng: random.Random, cell: Sequence[int]) -> Tuple[str, ...]:
    """Distinct planted keywords for one cell, as a sorted key."""
    chosen: List[str] = []
    for frequency in cell:
        pool = [n for n in _names(frequency) if n not in chosen]
        chosen.append(rng.choice(pool))
    return tuple(sorted(chosen))


def distinct_queries(
    rng: random.Random,
    cells: Sequence[Tuple[Sequence[int], float]],
    count: int,
    exclude: frozenset = frozenset(),
) -> List[Tuple[str, ...]]:
    """``count`` keyword sets, each used once, in random order.

    Each cell gets its share of ``count`` exactly (largest remainder), so
    the mix's composition, and with it the latency tail, is the same for
    every seed.  A keyword set is never repeated, in any order, so every
    request of a run misses the result cache.
    """
    seen = set(exclude)
    out: List[Tuple[str, ...]] = []
    for (cell, _), wanted in zip(cells, _allocate(count, [w for _, w in cells])):
        if wanted > _cell_capacity(cell):
            raise ValueError(f"cell {cell} has fewer than {wanted} distinct queries")
        drawn = attempts = 0
        while drawn < wanted:
            attempts += 1
            if attempts > 100 * wanted:
                raise ValueError(f"cell {cell} ran out of distinct queries")
            key = _draw(rng, cell)
            if key not in seen:
                seen.add(key)
                out.append(key)
                drawn += 1
    rng.shuffle(out)
    return out


def _allocate(count: int, weights: Sequence[float]) -> List[int]:
    """Split ``count`` in proportion to ``weights``, largest remainder first."""
    total = sum(weights)
    exact = [count * w / total for w in weights]
    shares = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: exact[i] - shares[i],
                          reverse=True)
    for i in by_remainder[: count - sum(shares)]:
        shares[i] += 1
    return shares


def _cell_capacity(cell: Sequence[int]) -> int:
    """Number of distinct keyword sets a cell can produce."""
    total = 1
    for frequency, group in itertools.groupby(sorted(cell)):
        total *= math.comb(dict(CORPUS_SPEC)[frequency], len(list(group)))
    return total


def with_pages(rng: random.Random, keys: Sequence[Tuple[str, ...]]) -> List[Request]:
    """Requests for the keyword sets; about half ask for a results page.

    The keyword order sent is shuffled, so the server's order-insensitive
    cache key is exercised, not bypassed.
    """
    requests = []
    for key in keys:
        words = list(key)
        rng.shuffle(words)
        limit = PAGE_LIMIT if rng.random() < PAGE_SHARE else None
        requests.append(Request(" ".join(words), limit))
    return requests


def miss_mix(seed: int, count: int, warmup: int) -> Tuple[List[Request], List[Request]]:
    """(warm-up requests, timed requests), all keyword sets distinct."""
    rng = random.Random(seed * 7919 + 1)
    keys = distinct_queries(rng, MISS_CELLS, warmup + count)
    requests = with_pages(rng, keys)
    return requests[:warmup], requests[warmup:]


def zipf_hot(seed: int, count: int, warmup: int) -> Tuple[List[Request], List[Request]]:
    """(warm-up requests, timed requests) for the Zipf workload.

    The timed stream is Zipf(``ZIPF_SKEW``) over ``ZIPF_DISTINCT`` distinct
    requests; the warm-up uses other keyword sets (miss-mix cells) so it
    warms the code paths without warming the result caches.
    """
    rng = random.Random(seed * 7919 + 2)
    cells = [(cell, 1.0) for cell in ZIPF_CELLS]
    hot = with_pages(rng, distinct_queries(rng, cells, ZIPF_DISTINCT))
    weights = [1.0 / rank ** ZIPF_SKEW for rank in range(1, len(hot) + 1)]
    timed = rng.choices(hot, weights=weights, k=count)
    excluded = frozenset(tuple(sorted(r.query.split())) for r in hot)
    warm = with_pages(rng, distinct_queries(rng, MISS_CELLS, warmup, excluded))
    return warm, timed


def update_plan(corpus: PlantedCorpus, seed: int, sessions: int) -> UpdatePlan:
    """``sessions`` seeded add/remove sessions on the churn keyword."""
    rng = random.Random(seed * 7919 + 4)
    keyword = corpus.keyword(CHURN_FREQUENCY, 0)
    shape = corpus.shape
    current = sorted(corpus.lists[keyword])
    plan = UpdatePlan(keyword, versions=[current])
    for _ in range(sessions):
        present = set(current)
        removes = sorted(rng.sample(current, CHURN_REMOVES))
        adds: List[DeweyTuple] = []
        while len(adds) < CHURN_ADDS:
            dewey = shape.slot_dewey(rng.randrange(shape.slots))
            if dewey not in present:
                present.add(dewey)
                adds.append(dewey)
        adds.sort()
        current = sorted((set(current) - set(removes)) | set(adds))
        plan.adds.append(adds)
        plan.removes.append(removes)
        plan.versions.append(current)
    return plan


def churn_queries(corpus: PlantedCorpus, seed: int, distinct: int) -> List[Request]:
    """Distinct requests that all include the churn keyword."""
    rng = random.Random(seed * 7919 + 5)
    churn = corpus.keyword(CHURN_FREQUENCY, 0)
    partners = _names(10) + _names(100)
    rng.shuffle(partners)
    keys = [tuple(sorted((churn, p))) for p in partners[:distinct]]
    return with_pages(rng, keys)


def expected_ids(lists: Sequence[Sequence[DeweyTuple]]) -> Tuple[str, ...]:
    """The oracle's SLCA set, in document order, as the API renders ids."""
    return tuple(
        ".".join(str(c) for c in dewey) for dewey in sorted(slca_by_containment(lists))
    )


_LISTS: Dict[str, List[DeweyTuple]] = {}


def _init_oracle(corpus_lists: Dict[str, List[DeweyTuple]]) -> None:
    _LISTS.update(corpus_lists)


def _answer(query: str) -> Tuple[str, ...]:
    return expected_ids([_LISTS[word] for word in query.split()])


def oracle(
    corpus_lists: Dict[str, List[DeweyTuple]],
    requests: Sequence[Request],
    processes: int = 1,
) -> Dict[str, Tuple[str, ...]]:
    """Expected full answer per distinct query text (page cut applied later).

    With ``processes > 1`` the queries are split over that many forked
    processes, which share the corpus.  Forked, not spawned: a spawned pool
    starts multiprocessing's resource tracker, a helper process that
    outlives the benchmark by up to a few seconds.
    """
    queries = list(dict.fromkeys(request.query for request in requests))
    if processes > 1:
        context = multiprocessing.get_context("fork")
        with context.Pool(
            processes, initializer=_init_oracle, initargs=(corpus_lists,)
        ) as pool:
            answers = pool.map(_answer, queries, chunksize=32)
    else:
        answers = [
            expected_ids([corpus_lists[word] for word in query.split()])
            for query in queries
        ]
    return dict(zip(queries, answers))


def check_answer(
    expected: Tuple[str, ...], limit: Optional[int], ids: Sequence[str]
) -> bool:
    """Whether a response's ``ids`` are exactly the expected (paged) answer."""
    want = expected if limit is None else expected[:limit]
    return tuple(ids) == want
