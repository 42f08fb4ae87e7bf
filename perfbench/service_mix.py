"""The ``service-mix`` workload: ``repro serve`` with a fresh WAL store,
driven by two closed-loop clients.

A round sends 12 distinct queries (8 geometries on pdp11 ED and 4 on
OPSYS, at 1M accesses) and 181 repeats to one fresh server.  A distinct
query is computed and committed to the store; a repeat is answered from
memory.
The round runs in six segments.  Both clients start a segment together
and each sends one distinct query, so two simulate threads share the
server's interpreter lock; then each sends 15 repeats of queries it
knows are complete.  In the first segment the second client first asks
for the first client's query, which joins that computation in flight.
The two distinct queries of a segment are two geometries on one trace.
``--seed`` orders the segments after the first, picks which client
takes which geometry and draws the repeats, so every seed asks for the
same work.

Latencies are what a client waits, so ``service-mix`` is timed in wall
time.  A :mod:`hostspeed` sampler runs in this process, unpinned so that
the server is not pinned too, and each server set-up and each round is
scaled by the samples taken while it ran.  The record keeps the
unscaled figures.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.trace.filters as filters_module
from repro.core.config import CacheGeometry
from repro.core.stats import CacheStats
from repro.engine.vectorized import VectorizedEngine
from repro.runner.runner import cell_key
from repro.trace.record import Trace
from repro.workloads.suites import clear_trace_cache, suite_specs

from checks import compare_counters, conservation_failures, counters_digest
from hostspeed import HostSpeed
from spans import Recorder
from sweeps import Outcome, peak_rss_mb, trace_digest

__all__ = ["run_service_mix"]

LENGTH = 1_000_000
SUITE = "pdp11"
TRACES = ("ED", "OPSYS")
WORD_SIZE = 2

#: The two distinct queries of each segment: a trace and two geometries
#: (net, block, sub, assoc).  No two geometries of a trace share
#: (block, sets), so the server never answers two distinct queries from
#: one stack-distance pass: every distinct query runs the per-cell
#: engine.  OPSYS cells take about twice as long as ED cells; with as
#: many queries on each, the median computed latency would fall in the
#: gap between the two traces' latencies and jump with every small
#: change, so ED gets twice as many.
PAIRS = (
    ("ED", (256, 16, 8, 1), (512, 16, 16, 4)),
    ("ED", (1024, 16, 8, 2), (2048, 16, 16, 2)),
    ("ED", (512, 8, 4, 2), (1024, 32, 16, 4)),
    ("ED", (128, 8, 4, 1), (2048, 32, 16, 2)),
    ("OPSYS", (256, 16, 8, 1), (1024, 32, 16, 4)),
    ("OPSYS", (1024, 16, 8, 2), (512, 8, 4, 2)),
)
#: One priming query per trace during set-up; not part of the mix.
PRIMING = (128, 16, 16, 2)
CLIENTS = 2
REPEATS_PER_CLIENT = 15
#: Rounds per run, each on its own freshly spawned and primed server.
ROUNDS = 3
CHECK_SAMPLES = 2
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


def _query(trace: str, geometry: Tuple[int, int, int, int]) -> Dict[str, Any]:
    net, block, sub, assoc = geometry
    return {
        "suite": SUITE, "trace": trace, "length": LENGTH,
        "net": net, "block": block, "sub": sub, "assoc": assoc,
    }


def _geometry(query: Dict[str, Any]) -> CacheGeometry:
    return CacheGeometry(
        query["net"], query["block"], query["sub"], associativity=query["assoc"]
    )


def _label(query: Dict[str, Any]) -> str:
    return cell_key(_geometry(query), query["trace"])


#: Per segment, the indices into the distinct queries each client sends.
Segments = List[Tuple[List[int], List[int]]]


def build_mix(seed: int) -> Tuple[List[Dict[str, Any]], Segments]:
    """The distinct queries and what each client sends in each segment."""
    rng = random.Random(seed)
    # Fixed pairs, so every seed overlaps the same computations, and a
    # fixed first pair, whose requests run alone while one coalesces;
    # the seed orders the other pairs and picks the sides.
    rest = list(PAIRS[1:])
    rng.shuffle(rest)
    distinct = []
    for trace, *geometries in (PAIRS[0], *rest):
        pair = [_query(trace, geometry) for geometry in geometries]
        rng.shuffle(pair)
        distinct += pair
    segments: Segments = []
    for first in range(0, len(distinct), 2):
        done = list(range(first))
        mine, theirs = [first], [first + 1]
        if not first:
            theirs.insert(0, first)  # coalesces with the computation
        segments.append((
            mine + [rng.choice(done + mine) for _ in range(REPEATS_PER_CLIENT)],
            theirs + [rng.choice(done + theirs) for _ in range(REPEATS_PER_CLIENT)],
        ))
    return distinct, segments


class Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.store = workdir / "store"
        log_path = workdir / "server.log"
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--length", str(LENGTH),
                "serve", "--port", "0", "--store-dir", str(self.store),
                "--log-level", "warning",
            ],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            self.port = self._wait_for_port(log_path)
            self._wait_until_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, log_path: Path) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[\d.]+:(\d+)", log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {log_path.read_text()}")
            time.sleep(0.02)
        raise RuntimeError("server never reported its port")

    def _wait_until_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server never became healthy")

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` as {series with labels: value}."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        series = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                series[name] = float(value)
        return series

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.store.rglob("*") if p.is_file())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _start_primed(root: Path, workdir: Path) -> Server:
    """Spawn, wait for readiness and prime each trace once."""
    server = Server(root, workdir)
    try:
        for trace in TRACES:
            status, body = server.request("POST", "/simulate", _query(trace, PRIMING))
            if status != 200:
                raise RuntimeError(f"priming {trace} returned {status}: {body[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server


# -- One round of the mix ----------------------------------------------------


@dataclass
class _Round:
    #: perf_counter readings at the start and end of the round
    started: float
    ended: float
    #: (distinct index, HTTP status, response body, client latency in s,
    #: perf_counter reading when the request was sent)
    results: List[Tuple[int, int, Dict[str, Any], float, float]]
    spans: List[Dict[str, Any]]
    before: Dict[str, float]
    after: Dict[str, float]
    rss_mb: float
    store_bytes: int

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def delta(self, series: str) -> float:
        return self.after.get(series, 0.0) - self.before.get(series, 0.0)

    def answered(self, *sources: str) -> List[Tuple[int, float]]:
        """(distinct index, latency) of the 200 answers from ``sources``."""
        return [
            (index, latency) for index, status, body, latency, _ in self.results
            if status == 200 and body.get("source") in sources
        ]

    def computed_windows(self) -> List[Tuple[float, float]]:
        """(sent, answered) perf_counter readings of the computed answers."""
        return [
            (sent, sent + latency) for _, status, body, latency, sent in self.results
            if status == 200 and body.get("source") == "computed"
        ]


def _drive(server: Server, distinct: List[Dict[str, Any]], segments: Segments,
           tracing: bool) -> _Round:
    """Send the mix from closed-loop clients: each sends its next request
    only after the previous answer arrived, and both start every segment
    together."""
    barrier = threading.Barrier(CLIENTS, timeout=REQUEST_TIMEOUT_S)
    spans: List[Dict[str, Any]] = []

    def client(number: int) -> List[Tuple[int, int, Dict[str, Any], float, float]]:
        results = []
        try:
            for segment in segments:
                barrier.wait()
                for index in segment[number]:
                    started = time.perf_counter()
                    status, raw = server.request("POST", "/simulate", distinct[index])
                    ended = time.perf_counter()
                    body = json.loads(raw) if status == 200 else {}
                    results.append((index, status, body, ended - started, started))
                    if tracing:
                        spans.append({
                            "name": "client.request", "start": started,
                            "end": ended, "parent": None, "client": number,
                            "status": status, "source": body.get("source"),
                        })
        except BaseException:
            barrier.abort()  # release the other client
            raise
        return results

    before = server.metrics()
    started = time.perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        futures = [pool.submit(client, n) for n in range(CLIENTS)]
        results = [result for future in futures for result in future.result()]
    ended = time.perf_counter()
    return _Round(started, ended, results, spans, before, server.metrics(),
                  peak_rss_mb(str(server.proc.pid)), server.store_bytes())


# -- Checks ------------------------------------------------------------------


def _checks(distinct: List[Dict[str, Any]], rnd: _Round,
            traces: Dict[str, Trace], seed: int
            ) -> Tuple[List[str], Dict[str, Dict[str, Any]]]:
    failures: List[str] = []
    first: Dict[int, Dict[str, Any]] = {}
    for index, status, body, _, _ in rnd.results:
        label = _label(distinct[index])
        if status != 200:
            failures.append(f"{label}: status {status}")
        elif index not in first:
            first[index] = body
        elif (body["stats"], body["result"]) != (first[index]["stats"], first[index]["result"]):
            failures.append(f"{label}: a repeat differs from the first answer")
    computed = sorted(index for index, _ in rnd.answered("computed"))
    if computed != list(range(len(distinct))):
        failures.append(f"computed {computed}, expected each distinct query once")
    if rnd.answered("disk"):
        failures.append("answers came from disk: the store was not fresh")
    counters = {}
    for index, body in first.items():
        label = _label(distinct[index])
        counters[label] = body["stats"]
        failures += conservation_failures(
            label, CacheStats.from_dict(body["stats"]),
            _geometry(distinct[index]), WORD_SIZE,
        )
    for index in random.Random(seed).sample(sorted(first), min(CHECK_SAMPLES, len(first))):
        query = distinct[index]
        expected = VectorizedEngine().run(
            _geometry(query), traces[query["trace"]], word_size=WORD_SIZE, warmup="fill"
        ).to_dict()
        failures += compare_counters(
            f"{_label(query)} vs in-process vectorized", expected, first[index]["stats"]
        )
    return failures, counters


# -- Metrics -------------------------------------------------------------------


def _stage(rnd: _Round, stage: str, part: str) -> float:
    return rnd.delta(f'repro_service_stage_seconds_{part}{{stage="{stage}"}}')


def _layers(rnd: _Round) -> Dict[str, float]:
    lookups = {
        outcome: rnd.delta(f'repro_service_cache_lookups_total{{outcome="{outcome}"}}')
        for outcome in ("memory", "disk", "miss")
    }
    hits = lookups["memory"] + lookups["disk"]
    hit_ms = sorted(1000 * latency for _, latency in rnd.answered("memory", "disk"))
    return {
        "service.prepare_s": _stage(rnd, "prepare", "sum"),
        "service.queue_s": _stage(rnd, "queue", "sum"),
        "service.simulate_s": _stage(rnd, "simulate", "sum"),
        "service.stage_count": _stage(rnd, "total", "count"),
        "service.hit_ratio": hits / (hits + lookups["miss"]) if hits + lookups["miss"] else 0.0,
        "service.coalesced": rnd.delta("repro_service_coalesced_total"),
        "service.store_bytes": rnd.store_bytes,
        "service.unaccounted_s": (
            sum(result[3] for result in rnd.results) - _stage(rnd, "total", "sum")
        ),
        "service.hit_p50_ms": statistics.median(hit_ms) if hit_ms else 0.0,
        "service.hit_p95_ms": (
            statistics.quantiles(hit_ms, n=20)[-1] if len(hit_ms) > 1 else 0.0
        ),
    }


def run_service_mix(root: Path, seed: int, tracing: bool, tmp: Path) -> Outcome:
    """Set up, drive and check ``ROUNDS`` rounds of the mix.

    Each round needs a fresh server and store, so a run measures a fixed
    number of rounds rather than repeating for ``--seconds``.  Each
    server's spawn, readiness and priming is one set-up repeat.  A traced
    run traces the middle round only, and the tracing overhead is its
    wall time minus the median of the untraced rounds.
    """
    distinct, segments = build_mix(seed)
    setup_walls: List[float] = []
    setup_scaled: List[float] = []
    rounds: List[_Round] = []
    with HostSpeed(pin=False) as host:
        for number in range(ROUNDS):
            started = time.perf_counter()
            server = _start_primed(root, tmp / f"server{number}")
            ended = time.perf_counter()
            setup_walls.append(ended - started)
            setup_scaled.append((ended - started) * host.factor(started, ended))
            try:
                rounds.append(
                    _drive(server, distinct, segments, tracing and number == 1)
                )
            finally:
                server.stop()

    # The server's traces, built again in-process for the sample check.
    clear_trace_cache()
    recorder = Recorder(tracing)
    traces: Dict[str, Trace] = {}
    with recorder.installed():
        for name in TRACES:
            (spec,) = [s for s in suite_specs(SUITE) if s.name == name]
            traces[name] = filters_module.reads_only(spec.build(LENGTH))

    failures: List[str] = []
    digests = set()
    for rnd in rounds:
        found, counters = _checks(distinct, rnd, traces, seed)
        failures += found
        digests.add(counters_digest(counters))
    if len(digests) != 1:
        failures.append("rounds disagree on the counters")

    untraced = [rnd for number, rnd in enumerate(rounds) if not (tracing and number == 1)]

    def figures(scaled: bool) -> Dict[str, List[float]]:
        """Per-round rates and per-request latencies, each scaled by the
        samples taken while it ran when ``scaled``."""

        def factor(start: float, end: float) -> float:
            return host.factor(start, end) if scaled else 1.0

        return {
            "rps": [
                len(r.results) / (r.wall * factor(r.started, r.ended)) for r in untraced
            ],
            "maccesses_per_s": [
                sum(len(traces[distinct[i]["trace"]]) for i, _ in r.answered("computed"))
                / (r.wall * factor(r.started, r.ended)) / 1e6
                for r in untraced
            ],
            "compute_ms": [
                1000 * (end - sent) * factor(sent, end)
                for r in untraced for sent, end in r.computed_windows()
            ],
        }

    repeats = {
        "setup_s": setup_scaled,
        **figures(scaled=True),
        "peak_rss_mb": [rnd.rss_mb for rnd in untraced],
    }
    unscaled = {"setup_s": setup_walls, **figures(scaled=False)}
    if tracing:
        traced = rounds[1]
        metrics = _layers(traced)
        metrics["workloads.generate_s"] = recorder.total("workloads.generate")
        metrics["trace.filter_s"] = recorder.total("trace.filter")
        metrics["bench.tracing_overhead_s"] = (
            traced.wall - statistics.median(rnd.wall for rnd in untraced)
        )
        spans = [
            {"phase": "trace-build", "spans": [s.to_dict() for s in recorder.spans]},
            {"phase": "round", "spans": traced.spans},
        ]
    else:
        metrics = {
            key: statistics.median(repeats[key])
            for key in ("setup_s", "rps", "maccesses_per_s", "peak_rss_mb")
        }
        metrics["compute_p50_ms"] = statistics.median(repeats["compute_ms"])
        spans = []
    return Outcome(
        metrics=metrics,
        repeats=repeats,
        attempted=sum(len(rnd.results) for rnd in rounds),
        failed=sum(1 for rnd in rounds for _, status, *_ in rnd.results if status != 200),
        failures=failures,
        digest=digests.pop() if len(digests) == 1 else "",
        host_factor=host.overall(),
        record={
            "host": {"factor": host.overall(), "samples": len(host.samples)},
            "unscaled_wall": {
                "compute_p50_ms": statistics.median(unscaled.pop("compute_ms")),
                **{key: statistics.median(values) for key, values in unscaled.items()},
            },
            "inputs": {
                "mix": counters_digest({"distinct": distinct, "segments": segments})[:16],
                **{name: trace_digest(trace) for name, trace in traces.items()},
            },
            "mix": {
                "distinct": len(distinct),
                "requests": len(rounds[0].results),
                "clients": CLIENTS,
                "rounds": ROUNDS,
            },
            "sources": {
                source: len(rounds[0].answered(source))
                for source in ("computed", "coalesced", "memory", "disk")
            },
        },
        spans=spans,
    )
