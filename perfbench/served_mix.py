"""``served-mix``: a closed loop of ``/analyze`` requests against ``repro serve``.

Two keep-alive connections (one per vCPU of the reference guest) send
requests back to back.  The server runs as a ``repro serve`` subprocess on a
fresh skeleton store, pinned to a different CPU from this client process.

* The pool is a fixed set of random trees, independent of the seed, with
  Zipf popularity; four of the twelve carry an FDEP and three of those are
  CTMDPs (bound measures).  Set-up warms the pool into the store.
* Every request re-jitters the tree's rates, so it hits the cached skeleton
  under a new assignment.
* One request in every pass of 100 carries a small structure never seen
  before: a store miss, so a build and an entry write happen beside the reads.
* The seed draws the request order, the rates, the mission times, the miss
  positions and structures, and which responses are re-checked after the run.

Every response must be a 200 with a valid curve and the expected cache
outcome; a seeded sample is re-evaluated in-process after the timed window
and must match bit for bit apart from timings.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import check_bounds, check_curve
from harness import PassRecord, peak_rss_mb, percentile

from repro.core import Study, StudyOptions
from repro.dft import galileo
from repro.dft.hashing import structural_hash
from repro.service.app import query_from_payload
from repro.service.server import serve
from repro.service.store import SkeletonStore
from repro.systems import random_dft

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores and server logs (inside the checkout).
TMP_ROOT = ROOT / ".perfbench_tmp"

#: (basic events, seed, fdep) of the pool, most popular first.  Ranks 2 and 3
#: are the two structures with the dearest store loads (~20 ms a hit), about
#: a quarter of all requests: the p90 then lies inside their latency mode,
#: not in the sparse tail above the typical request.
POOL = (
    (10, 2, False), (9, 3, False), (10, 3, True), (10, 5, True),
    (9, 2, False), (11, 5, False), (10, 0, True), (10, 1, False),
    (9, 3, True), (11, 2, False), (10, 0, False), (10, 5, False),
)
ZIPF_EXPONENT = 1.0
REQUESTS_PER_PASS = 100
MISSES_PER_PASS = 1
#: Responses per pass re-evaluated in-process after the timed window.
VERIFIED_PER_PASS = 4
CONNECTIONS = 2
STARTUP_TIMEOUT_S = 60.0
_RATE = re.compile(r"lambda=([0-9.eE+-]+)")


def zipf_counts(total: int, size: int, exponent: float) -> List[int]:
    """Requests per pool rank: Zipf shares of ``total``, largest remainder."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    shares = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(size), key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def jitter(text: str, rng: random.Random) -> str:
    """The Galileo ``text`` with every failure rate scaled by a factor in [0.8, 1.25]."""
    return _RATE.sub(
        lambda match: f"lambda={float(match.group(1)) * rng.uniform(0.8, 1.25)!r}", text
    )


class _Request:
    __slots__ = ("body", "text", "query", "miss", "verify", "latency", "response", "problem")

    def __init__(self, text: str, query: dict, miss: bool, verify: bool):
        self.text = text
        self.query = query
        self.body = json.dumps({"tree": text, "query": query}).encode("utf-8")
        self.miss = miss
        self.verify = verify
        self.latency = 0.0
        self.response: Optional[dict] = None
        self.problem: Optional[str] = None


def check_response(request: _Request, status: int, payload: dict) -> Optional[str]:
    if status != 200:
        return f"HTTP {status}: {payload.get('error')}"
    cache = payload["service"]["cache"]
    if cache != ("miss" if request.miss else "hit"):
        return f"cache {cache} for a {'new' if request.miss else 'pooled'} structure"
    measure = payload["measures"][0]
    if measure.get("error"):
        return f"measure error: {measure['error']}"
    if measure["kind"] == "unreliability_bounds":
        return check_bounds(measure["lower"], measure["upper"])
    return check_curve(measure["values"])


def _comparable(result: dict) -> dict:
    """A study result without what legitimately differs: timings and cache tags."""
    slim = {key: value for key, value in result.items() if key not in ("timings", "service")}
    slim["options"] = {
        key: value for key, value in result["options"].items() if key != "skeleton_cache"
    }
    return slim


class ServedMix:
    name = "served-mix"
    nominal_pass_s = 3.2
    trace_passes = 2
    setup_repeats = 3
    clients = CONNECTIONS

    def __init__(self, seed: int, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process
        self.rng = random.Random(seed)
        self.pool = [galileo.write(random_dft(n, seed=s, fdep=f)) for n, s, f in POOL]
        self.pool_hashes = {structural_hash(galileo.parse(text)) for text in self.pool}
        self.counts = zipf_counts(
            REQUESTS_PER_PASS - MISSES_PER_PASS, len(self.pool), ZIPF_EXPONENT
        )
        self._miss_seeds = iter(range(1000 + 1000 * (seed % 1000), 10**9))
        self._miss_hashes: set = set()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.process: Optional[subprocess.Popen] = None
        self.server = None
        self.server_thread: Optional[threading.Thread] = None
        self.store_dir: Optional[str] = None
        self.connections: List[http.client.HTTPConnection] = []
        self.to_verify: List[_Request] = []

    # ----------------------------------------------------------- lifecycle
    def setup(self) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="served-mix-", dir=TMP_ROOT)
        if self.in_process:
            self.server = serve(self.store_dir, port=0)
            self.server_thread = threading.Thread(target=self.server.serve_forever, daemon=True)
            self.server_thread.start()
            host, port = self.server.server_address[:2]
        else:
            host, port = self._start_subprocess()
        self.connections = [
            http.client.HTTPConnection(host, port, timeout=120) for _ in range(CONNECTIONS)
        ]
        for text in self.pool:
            request = _Request(text, {"times": [1.0]}, miss=True, verify=False)
            status, payload = self._send(self.connections[0], request)
            problem = check_response(request, status, payload)
            if problem:
                raise RuntimeError(f"warming the pool failed: {problem}")

    def _start_subprocess(self) -> Tuple[str, int]:
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        log = open(Path(self.store_dir) / "server.log", "wb")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--cache-dir", self.store_dir,
                 "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env, cwd=str(ROOT),
            )
        finally:
            log.close()
        if len(self.cpus) >= 2:
            # Client on the first CPU, server on the second: unpinned, the
            # two contend for one core in bursts and throughput swings.
            os.sched_setaffinity(self.process.pid, {self.cpus[1]})
            os.sched_setaffinity(0, {self.cpus[0]})
        banner: Dict[str, str] = {}

        def read_banner() -> None:
            banner["line"] = self.process.stdout.readline()

        reader = threading.Thread(target=read_banner, daemon=True)
        reader.start()
        reader.join(STARTUP_TIMEOUT_S)
        line = banner.get("line", "")
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, port = line.split()[2][len("http://"):].rsplit(":", 1)
        return host, int(port)

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
            self.process.stdout.close()
            self.process = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server_thread.join(timeout=10)
            self.server = None
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, set(self.cpus))
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None
            try:
                TMP_ROOT.rmdir()
            except OSError:
                pass  # another run still uses it

    # ---------------------------------------------------------------- ops
    def _miss_text(self) -> str:
        """A small tree whose structure neither the pool nor earlier misses have."""
        while True:
            tree = random_dft(6, seed=next(self._miss_seeds))
            key = structural_hash(tree)
            if key not in self.pool_hashes and key not in self._miss_hashes:
                self._miss_hashes.add(key)
                return galileo.write(tree)

    def _pass_requests(self) -> List[_Request]:
        rng = self.rng
        ranks = [rank for rank, count in enumerate(self.counts) for _ in range(count)]
        ranks += [-1] * MISSES_PER_PASS
        rng.shuffle(ranks)
        verified = set(rng.sample(range(len(ranks)), VERIFIED_PER_PASS))
        # The longest mission time is stratified over [1, 2] across the pass,
        # so every seed asks for nearly the same solver work.
        horizons = list(range(len(ranks)))
        rng.shuffle(horizons)
        requests = []
        for index, rank in enumerate(ranks):
            text = self._miss_text() if rank < 0 else self.pool[rank]
            horizon = 1.0 + (horizons[index] + rng.random()) / len(ranks)
            times = [round(horizon * share, 4) for share in (0.25, 0.5, 1.0)]
            requests.append(
                _Request(jitter(text, rng), {"times": times}, rank < 0, index in verified)
            )
        return requests

    @staticmethod
    def _send(connection: http.client.HTTPConnection, request: _Request):
        start = time.perf_counter()
        connection.request(
            "POST", "/analyze", body=request.body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        request.latency = time.perf_counter() - start
        return response.status, json.loads(body)

    def run_pass(self, index: int, tracer=None) -> PassRecord:
        requests = self._pass_requests()
        cursor = iter(requests)
        lock = threading.Lock()
        errors: List[BaseException] = []

        def client(connection: http.client.HTTPConnection) -> None:
            try:
                while True:
                    with lock:
                        request = next(cursor, None)
                    if request is None:
                        return
                    with tracer.span("client.request") if tracer else nullcontext():
                        status, payload = self._send(connection, request)
                    request.problem = check_response(request, status, payload)
                    if request.verify:
                        request.response = payload
            except BaseException as error:  # noqa: BLE001 - reported by the caller
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(connection,)) for connection in self.connections
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record = PassRecord(wall_s=time.perf_counter() - start)
        if errors:
            raise errors[0]
        for request in requests:
            record.samples.append(request.latency)
            record.attempted += 1
            if request.problem:
                record.failed += 1
                record.problems.append(f"pass {index}: {request.problem}")
            elif request.verify:
                self.to_verify.append(request)
        return record

    # ------------------------------------------------------------- results
    def verify(self) -> List[str]:
        """Re-evaluate the sampled responses in-process on the same store."""
        problems = []
        store = SkeletonStore(self.store_dir)
        for request in self.to_verify:
            study = Study(galileo.parse(request.text, name="<request>"), StudyOptions(),
                          skeleton_cache=store)
            query = query_from_payload(request.query, nondeterministic=study.is_nondeterministic)
            local = study.evaluate(query, on_error="record").to_dict(include_steps=False)
            local = json.loads(json.dumps(local))
            if _comparable(local) != _comparable(request.response):
                problems.append(f"served response differs from in-process: {request.text[:40]!r}")
        return problems

    def latency_percentiles(self, passes) -> Tuple[float, float]:
        """Each percentile's median across passes: a pass has 100 requests,
        10 of them beyond its p90, and a slow burst of host time that hits a
        few passes moves neither median."""
        return tuple(
            statistics.median(percentile(record.samples, fraction) for record in passes)
            for fraction in (0.5, 0.9)
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(None if self.process is None else self.process.pid)
