"""Load generation over persistent HTTP/1.1 connections.

One process, at most one thread and one kept-alive connection per
sender.  Every request yields a :class:`Record` with client-side
timestamps (``time.perf_counter_ns``, the same monotonic clock the span
recorder uses in every process): when it was sent, when the response
headers were parsed and when the body was read.  A dropped
connection is recorded as a failure and the sender reconnects; nothing is
retried.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import List, Optional, Sequence

from workloads import Request

TIMEOUT_S = 60.0


class Record:
    """One request as the client saw it (times in ns)."""

    __slots__ = ("request", "sent", "headers", "done", "status", "nbytes", "ids",
                 "match_ops", "error")

    def __init__(self, request: Request):
        self.request = request
        self.sent = self.headers = self.done = 0
        self.status = 0
        self.nbytes = 0
        self.ids: Optional[tuple] = None
        self.match_ops = 0
        self.error: Optional[str] = None

    @property
    def latency_ns(self) -> int:
        return self.done - self.sent

    @property
    def answered(self) -> bool:
        return self.status == 200 and self.ids is not None


class Connection:
    """A kept-alive connection that reconnects after a failure."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request) -> Record:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=TIMEOUT_S
            )
        record = Record(request)
        record.sent = time.perf_counter_ns()
        try:
            self._conn.request("GET", request.path())
            response = self._conn.getresponse()
            record.headers = time.perf_counter_ns()
            body = response.read()
            record.done = time.perf_counter_ns()
            record.status = response.status
            record.nbytes = len(body)
        except (http.client.HTTPException, OSError) as exc:
            record.done = time.perf_counter_ns()
            record.error = f"{type(exc).__name__}: {exc}"
            self.close()
            return record
        if record.status == 200:
            payload = json.loads(body)
            record.ids = tuple(payload["ids"])
            counters = payload.get("counters") or {}
            record.match_ops = counters.get("lm_ops", 0) + counters.get("rm_ops", 0)
        return record

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def get_json(port: int, path: str) -> dict:
    """One GET on a fresh connection (health and stats probes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(body) if path != "/healthz" else {}
    finally:
        conn.close()


def sequential(port: int, requests: Sequence[Request]) -> List[Record]:
    """Send requests one after another over one connection."""
    conn = Connection(port)
    try:
        return [conn.send(request) for request in requests]
    finally:
        conn.close()


def closed_loop(
    port: int, requests: Sequence[Request], seconds: float, senders: int
) -> List[Record]:
    """``senders`` clients each send their next request when the last returns.

    Stops issuing at ``seconds`` or when the request list is used up.
    """
    lock = threading.Lock()
    records: List[Record] = []
    errors: List[BaseException] = []
    cursor = iter(requests)
    stop_at = time.perf_counter_ns() + int(seconds * 1e9)

    def sender() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter_ns() < stop_at:
                with lock:
                    request = next(cursor, None)
                if request is None:
                    return
                record = conn.send(request)
                with lock:
                    records.append(record)
        except BaseException as exc:  # re-raised in the caller after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records
