"""The repository benchmark: XKSearch's HTTP serving stack under three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload miss-mix --seed 1 --seconds 30 --trace 0

For the workload it plants the seeded input lists, then sets up several
times (``build_index`` plus starting the real ``serve()`` stack in its
own process until ``/healthz`` answers), computes every expected answer
with the brute-force oracle, warms the server with a short sequential
pass whose exact counts it records, and drives ``/api/search`` over
persistent connections for ``--seconds``.  Every answer is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the
time into an untraced half and a traced half on a fresh server whose
layer functions are wrapped (see ``launcher.py``), and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any answer differs from the oracle, 2 when the benchmark
cannot run (for instance without the program's sources).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: Full set-ups per run; setup_s is their median.
SETUPS = 7
#: Sequential warm-up requests; their counts must repeat exactly per seed.
WARMUP = 24
#: Update sessions after the traced half (miss-mix, zipf-hot), for the
#: update, refresh and segment-write layers.
POST_SESSIONS = 3
#: Verification requests after each update session.
VERIFY = 4
#: miss-mix sends at most this many distinct queries per second of run
#: (each needs an oracle answer); its closed loop ends early if they run out.
MISS_MAX_QPS = 50
#: Length of the zipf-hot stream per second of run (repeats are free).
ZIPF_MAX_QPS = 400
#: update-churn commits one IndexUpdater session this often (s).
COMMIT_INTERVAL_S = 2.0
#: update-churn reader cycles over this many distinct churn queries.
CHURN_DISTINCT = 16

WORKLOADS = {
    "miss-mix": {"workers_proc": 0, "senders": 2},
    "zipf-hot": {"workers_proc": 2, "senders": 2},
    "update-churn": {"workers_proc": 0, "senders": 1},
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isdir(os.path.join(SRC, "repro")):
    fail(f"no program sources at {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder, install, load  # noqa: E402
from targets import CLIENT_DETAIL, CLIENT_TARGETS  # noqa: E402

#: End-to-end metric units; update_p50_ms is reported on update-churn only.
END_TO_END = dict(layers.metric_units("end_to_end"), update_p50_ms="ms")


class Server:
    """One ``launcher.py`` process serving an index directory."""

    def __init__(self, index_dir: str, workers_proc: int, trace_out: Optional[str]):
        self.log_path = f"{index_dir}.{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        argv = [sys.executable, "-u", os.path.join(HERE, "launcher.py"), index_dir,
                "--workers-proc", str(workers_proc)]
        if trace_out:
            argv += ["--trace-out", trace_out]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        # Its own process group, so that stop() can find every pool worker.
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True,
        )
        try:
            self.port = self._await_port()
            self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout_s: float = 60.0) -> int:
        marker = "XKSearch demo at http://127.0.0.1:"
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as fh:
                for line in fh:
                    if marker in line:
                        return int(line.split(marker, 1)[1].split("/", 1)[0])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log_path}")
            time.sleep(0.005)
        raise RuntimeError("server did not start")

    def _await_health(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                loadgen.get_json(self.port, "/healthz")
                return
            except (OSError, RuntimeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def statz(self) -> dict:
        return loadgen.get_json(self.port, "/statz")

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the server process plus its pool workers."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        total_kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except FileNotFoundError:
                continue
        return total_kb / 1024.0

    def stop(self, drain: bool = True) -> None:
        """Stop the server and wait for it.

        With ``drain`` it gets SIGTERM (graceful drain, spans written) and
        is killed only if stuck; without, it is killed at once (a set-up
        server that served nothing but ``/healthz``).  Whatever of its
        process group is left after that (pool workers of a killed server)
        is killed and waited for too.
        """
        if drain and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        _end_group(self.proc.pid)
        self._log.close()


def _end_group(pgid: int, timeout_s: float = 10.0) -> None:
    """SIGKILL every process left in a group and wait until none is."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            print(f"perfbench: process group {pgid} did not end", file=sys.stderr)
            return
        time.sleep(0.01)


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                out.extend(int(p) for p in fh.read().split())
    except FileNotFoundError:
        pass
    return out


class Run:
    """Inputs, servers and records of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.servers: List[Server] = []
        self.records: List[Tuple[loadgen.Record, frozenset]] = []
        self.sessions: List[Tuple[int, int]] = []
        self.rec = Recorder(detail=CLIENT_DETAIL) if trace else None
        if self.rec is not None:
            install(self.rec, CLIENT_TARGETS)
        from repro.index import builder

        self.builder = builder

    # -- inputs --------------------------------------------------------------

    def prepare(self) -> None:
        """Plant the lists and derive every request and expected answer."""
        self.corpus = wl.plant(self.seed)
        phase = self.seconds / 2 if self.trace else self.seconds
        phases = 2 if self.trace else 1
        if self.workload == "miss-mix":
            self.warm, self.timed = wl.miss_mix(
                self.seed, int(phase * MISS_MAX_QPS) + 1, WARMUP
            )
            sessions = POST_SESSIONS
        elif self.workload == "zipf-hot":
            self.warm, self.timed = wl.zipf_hot(
                self.seed, int(phase * ZIPF_MAX_QPS) + 1, WARMUP
            )
            sessions = POST_SESSIONS
        else:
            self.warm, _ = wl.miss_mix(self.seed, 0, WARMUP)
            churn = wl.churn_queries(self.corpus, self.seed, CHURN_DISTINCT)
            self.timed = [churn[i % len(churn)] for i in range(int(phase * 60) + 1)]
            sessions = phases * (int(phase / COMMIT_INTERVAL_S) + 1)
        self.plan = wl.update_plan(self.corpus, self.seed, sessions)
        self.verify = wl.churn_queries(self.corpus, self.seed, VERIFY)
        self.answers: Dict[Tuple[int, str], Tuple[str, ...]] = {
            (0, query): ids
            for query, ids in wl.oracle(
                self.corpus.lists, self.warm + self.timed, processes=2
            ).items()
        }
        # Every request naming the churn keyword may be checked against any
        # version: the traced half's warm-up runs after the untraced half's
        # commits.
        churn_requests = [
            request for request in self.verify + self.warm + self.timed
            if self.plan.keyword in request.query.split()
        ]
        for version, postings in enumerate(self.plan.versions):
            lists = dict(self.corpus.lists, **{self.plan.keyword: postings})
            for query, ids in wl.oracle(lists, churn_requests).items():
                self.answers[(version, query)] = ids

    # -- servers -------------------------------------------------------------

    def start(self, index_dir: str, trace_out: Optional[str] = None) -> Server:
        server = Server(index_dir, self.spec["workers_proc"], trace_out)
        self.servers.append(server)
        return server

    def setup(self) -> Server:
        """Build and start ``SETUPS`` times; keep the last server running."""
        self.setup_s: List[float] = []
        server = None
        for i in range(SETUPS):
            if server is not None:
                server.stop(drain=False)
            index_dir = os.path.join(self.work, f"index{i}")
            started = time.perf_counter()
            self.builder.build_index(self.corpus.lists, index_dir)
            server = self.start(index_dir)
            self.setup_s.append(time.perf_counter() - started)
        self.index_dir = index_dir
        self.index_bytes = sum(
            os.path.getsize(os.path.join(index_dir, name)) for name in os.listdir(index_dir)
        )
        return server

    # -- phases --------------------------------------------------------------

    def counted(self, server: Server, phase) -> Tuple[list, dict]:
        """Run ``phase()`` and the program's own counts over it: response
        ``counters`` and the ``/statz`` pager and buffer-pool movement."""
        before = server.statz()["storage"]
        records = phase()
        after = server.statz()["storage"]
        delta = lambda layer, key: after[layer][key] - before[layer][key]  # noqa: E731
        return records, {
            "requests": len(records),
            "match_ops": sum(r.match_ops for r in records),
            "pager_reads": delta("pager", "reads"),
            "pool_hits": delta("buffer_pool", "hits"),
            "pool_misses": delta("buffer_pool", "misses"),
        }

    def warm_up(self, server: Server) -> dict:
        """The sequential warm-up pass; its counts repeat exactly per seed."""
        records, counts = self.counted(
            server, lambda: loadgen.sequential(server.port, self.warm)
        )
        self._keep(records, frozenset([0]))
        return counts

    def timed_phase(self, server: Server, first_session: int) -> List[loadgen.Record]:
        """Drive the workload for one phase; returns the timed records."""
        phase = self.seconds / 2 if self.trace else self.seconds
        senders = self.spec["senders"]
        if self.workload != "update-churn":
            records = loadgen.closed_loop(server.port, self.timed, phase, senders)
            self._keep(records, frozenset([0]))
            return records
        stop = threading.Event()
        errors: List[BaseException] = []
        writer = threading.Thread(
            target=self._writer, args=(first_session, stop, errors), daemon=True
        )
        writer.start()
        try:
            records = loadgen.closed_loop(server.port, self.timed, phase, senders)
        finally:
            stop.set()
            writer.join()
        if errors:
            raise errors[0]
        for record in records:
            self.records.append((record, self._live_versions(record)))
        return records

    def _writer(self, first: int, stop: threading.Event, errors: list) -> None:
        session = first
        try:
            while not stop.wait(COMMIT_INTERVAL_S) and session < self.plan.sessions:
                self.commit(session)
                session += 1
        except BaseException as exc:  # re-raised by timed_phase after join
            errors.append(exc)

    def _live_versions(self, record: loadgen.Record) -> frozenset:
        """Versions that were live at some point while the request ran.

        Version ``v`` can be seen from the start of the session that
        creates it until the end of the session that replaces it.
        """
        live = set()
        for version in range(len(self.sessions) + 1):
            begins = self.sessions[version - 1][0] if version else -1
            ends = (
                self.sessions[version][1] if version < len(self.sessions) else 1 << 62
            )
            if begins <= record.done and ends >= record.sent:
                live.add(version)
        return frozenset(live)

    def commit(self, session: int) -> None:
        """One IndexUpdater session: open, add, remove, close."""
        from repro.index.updates import IndexUpdater

        keyword = self.plan.keyword
        frame = self.rec.enter("updates.session") if self.rec else None
        started = time.perf_counter_ns()
        with IndexUpdater(self.index_dir) as updater:
            updater.add_postings(
                {keyword: [(dewey, "") for dewey in self.plan.adds[session]]}
            )
            updater.remove_postings({keyword: self.plan.removes[session]})
        self.sessions.append((started, time.perf_counter_ns()))
        if frame is not None:
            self.rec.exit(frame)

    def post_updates(self, server: Server) -> None:
        """Commit sessions after the timed phase, each checked by queries."""
        for session in range(POST_SESSIONS):
            self.commit(session)
            records = loadgen.sequential(server.port, self.verify)
            self._keep(records, frozenset([session + 1]))

    def _keep(self, records, versions: frozenset) -> None:
        self.records.extend((record, versions) for record in records)

    # -- checks and metrics --------------------------------------------------

    def check(self) -> Tuple[int, int, int]:
        """(attempted, failed, wrong) over every request and commit.

        A commit that raised ends the run, so every recorded one succeeded.
        """
        failed = wrong = 0
        keyword = self.plan.keyword
        for record, versions in self.records:
            if not record.answered:
                failed += 1
                continue
            words = record.request.query.split()
            candidates = versions if keyword in words else (0,)
            if not any(
                wl.check_answer(
                    self.answers[(v, record.request.query)], record.request.limit,
                    record.ids,
                )
                for v in candidates
            ):
                wrong += 1
                failed += 1
        return len(self.records) + len(self.sessions), failed, wrong

    def end_to_end(self, records, rss_mb: float) -> Dict[str, float]:
        answered = [r for r in records if r.answered]
        latencies = [r.latency_ns / 1e6 for r in records]
        start = min(r.sent for r in records)
        end = max(r.done for r in records)
        metrics = {
            "setup_s": statistics.median(self.setup_s),
            "qps": len(answered) / ((end - start) / 1e9),
            "latency_p50_ms": layers.quantile(latencies, 0.50),
            "latency_p99_ms": layers.quantile(latencies, 0.99),
            "rss_mb": rss_mb,
            "index_bytes_per_posting": self.index_bytes / self.corpus.total_postings,
        }
        if self.sessions:
            metrics["update_p50_ms"] = statistics.median(
                (end - begin) / 1e6 for begin, end in self.sessions
            )
        return metrics

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        self.prepare()
        server = self.setup()
        counts = self.warm_up(server)
        timed, timed_counts = self.counted(
            server, lambda: self.timed_phase(server, 0)
        )
        rss_mb = server.peak_rss_mb()
        server.stop()
        if not self.trace:
            metrics = self.end_to_end(timed, rss_mb)
            units = END_TO_END
            summary = {"warmup": counts, "timed": timed_counts}
        else:
            traced_records, window, dumps = self._traced_half()
            metrics, units = layers.per_layer(
                dumps=dumps,
                window=window,
                records=traced_records,
                untraced=timed,
                warmup=counts,
                client=self.rec,
            )
            summary = {
                "warmup": counts,
                "timed": timed_counts,
                "traced_requests": len(traced_records),
            }
        attempted, failed, wrong = self.check()
        summary.update(attempted=attempted, failed=failed, wrong_answers=wrong)
        return {
            "summary": summary,
            "result": {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            },
        }

    def _traced_half(self):
        """Fresh traced server on the same index: warm, time, update, stop."""
        trace_out = os.path.join(self.work, "spans")
        server = self.start(self.index_dir, trace_out)
        first = len(self.sessions)
        self._keep(loadgen.sequential(server.port, self.warm), frozenset([first]))
        window_start = time.perf_counter_ns()
        records = self.timed_phase(server, first)
        window = (window_start, time.perf_counter_ns())
        if self.workload != "update-churn":
            self.post_updates(server)
        server.stop()
        names = [n for n in os.listdir(self.work) if n.startswith("spans.")]
        dumps = load(os.path.join(self.work, n) for n in names)
        return records, window, dumps

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the finally below, which stops the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        os.makedirs(run.work, exist_ok=True)
        outcome = run.execute()
    finally:
        run.close()
    result = outcome["result"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("summary " + json.dumps(outcome["summary"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
