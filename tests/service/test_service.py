"""The serving layer: dict-level handlers, the HTTP round trip, the client.

The central assertion everywhere: a served response carries byte-for-byte
the measures/model/statistics an in-process ``Study``/``SweepStudy`` with the
same skeleton cache computes (timings are wall-clock and excluded).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.measures import MTTF, Unreliability
from repro.core.study import Study, StudyOptions
from repro.core.sweep import RateSweep, SweepStudy
from repro.dft import galileo
from repro.service import store as store_module
from repro.service.app import AnalysisService, query_from_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import _ServiceHandler, serve
from repro.service.store import SkeletonStore

AND_TREE = """
toplevel "sys";
"sys" and "a" "b";
"a" lambda=0.5;
"b" lambda=0.7;
"""

PARAM_TREE = """
param lam = 0.5;
toplevel "sys";
"sys" or "a" "b";
"a" lambda=lam;
"b" lambda=0.7;
"""

OR_TREE = """
toplevel "sys";
"sys" or "a" "b";
"a" lambda=0.5;
"b" lambda=0.7;
"""

TRIPLE_TREE = """
toplevel "sys";
"sys" and "a" "b" "c";
"a" lambda=0.5;
"b" lambda=0.7;
"c" lambda=0.9;
"""

def _nondet_tree_text():
    from repro.systems import pand_race_system

    return galileo.write(pand_race_system())

BROKEN_TREE = "this is not galileo"


def _strip(response):
    """A served study response minus its wall-clock noise."""
    slim = dict(response)
    slim.pop("timings", None)
    slim.pop("service", None)
    options = dict(slim.get("options", {}))
    options.pop("skeleton_cache", None)
    slim["options"] = options
    return slim


def _local_study_dict(text, store, query, options=None):
    tree = galileo.parse(text, name="<request>")
    result = Study(tree, options or StudyOptions(), skeleton_cache=store).evaluate(
        query, on_error="record"
    )
    return _strip(result.to_dict(include_steps=False))


@pytest.fixture
def service(tmp_path):
    app = AnalysisService(SkeletonStore(tmp_path / "cache"))
    yield app
    app.close()


class TestQueryFromPayload:
    def test_defaults(self):
        query = query_from_payload(None)
        assert [measure.kind for measure in query] == ["unreliability"]

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception, match="unknown query field"):
            query_from_payload({"time": [1.0]})

    def test_bad_times_rejected(self):
        with pytest.raises(Exception, match="times"):
            query_from_payload({"times": []})
        with pytest.raises(Exception, match="times"):
            query_from_payload({"times": ["soon"]})

    def test_nondeterministic_upgrades_to_bounds(self):
        query = query_from_payload({"times": [1.0]}, nondeterministic=True)
        assert [measure.kind for measure in query] == ["unreliability_bounds"]


class TestDictHandlers:
    def test_routing(self, service):
        assert service.handle("GET", "/nope", None)[0] == 404
        assert service.handle("GET", "/analyze", None)[0] == 405
        assert service.handle("POST", "/healthz", None)[0] == 405
        assert service.handle("GET", "/healthz", None)[0] == 200

    def test_analyze_bad_tree_is_400(self, service):
        status, payload = service.handle("POST", "/analyze", {"tree": BROKEN_TREE})
        assert status == 400
        assert "error" in payload

    def test_analyze_hit_miss_and_bit_identity(self, service):
        request = {"tree": AND_TREE, "query": {"times": [1.0, 2.0], "mttf": True}}
        status, first = service.handle("POST", "/analyze", request)
        assert status == 200
        assert first["service"]["cache"] == "miss"
        status, second = service.handle("POST", "/analyze", request)
        assert second["service"]["cache"] == "hit"
        assert _strip(first) == _strip(second)
        local = _local_study_dict(
            AND_TREE, service.store, Unreliability([1.0, 2.0]) + MTTF()
        )
        assert _strip(second) == local

    def test_nondeterministic_tree_served_with_bounds(self, service):
        status, response = service.handle(
            "POST", "/analyze", {"tree": _nondet_tree_text(), "query": {"times": [1.0]}}
        )
        assert status == 200
        kinds = [measure["kind"] for measure in response["measures"]]
        assert kinds == ["unreliability_bounds"]

    def test_sweep_matches_in_process(self, service):
        request = {
            "tree": PARAM_TREE,
            "axes": {"lam": [0.1, 0.5, 1.0]},
            "query": {"times": [1.0]},
            "share_uniformisation": True,
        }
        status, served = service.handle("POST", "/sweep", request)
        assert status == 200
        tree = galileo.parse(PARAM_TREE, name="<request>")
        local = SweepStudy(tree, StudyOptions(), skeleton_cache=service.store).run(
            RateSweep.grid(Unreliability([1.0]), lam=[0.1, 0.5, 1.0]),
            share_uniformisation=True,
        )
        for mine, theirs in zip(served["rows"], local.to_dict()["rows"]):
            assert mine["sample"] == theirs["sample"]
            assert mine["measures"] == theirs["measures"]

    def test_sweep_axis_naming_a_basic_event(self, service):
        status, served = service.handle(
            "POST",
            "/sweep",
            {"tree": AND_TREE, "axes": {"a": [0.1, 0.5]}},
        )
        assert status == 200
        assert [row["sample"] for row in served["rows"]] == [
            {"a": 0.1},
            {"a": 0.5},
        ]

    def test_sweep_needs_exactly_one_of_axes_and_samples(self, service):
        assert service.handle("POST", "/sweep", {"tree": PARAM_TREE})[0] == 400
        both = {
            "tree": PARAM_TREE,
            "axes": {"lam": [0.1]},
            "samples": [{"lam": 0.1}],
        }
        assert service.handle("POST", "/sweep", both)[0] == 400

    def test_batch_mixes_good_and_bad_rows(self, service):
        status, response = service.handle(
            "POST",
            "/batch",
            {"trees": [AND_TREE, BROKEN_TREE, AND_TREE], "query": {"times": [1.0]}},
        )
        assert status == 200
        assert response["aggregate"]["trees"] == 3
        assert response["aggregate"]["failed"] == 1
        oks = [row["ok"] for row in response["rows"]]
        assert oks == [True, False, True]
        assert response["rows"][0]["result"]["measures"] == (
            response["rows"][2]["result"]["measures"]
        )
        # Rows 1 and 3 share a structural class: one miss builds, one hit.
        assert response["service"]["cache_hits"] == 1
        assert response["service"]["cache_misses"] == 1

    def test_metrics_accumulate(self, service):
        service.handle("POST", "/analyze", {"tree": AND_TREE})
        service.handle("POST", "/analyze", {"tree": BROKEN_TREE})
        status, payload = service.handle("GET", "/metrics", None)
        assert status == 200
        analyze = payload["endpoints"]["/analyze"]
        assert analyze["requests"] == 2
        assert analyze["errors"] == 1
        assert payload["store"]["entries"] == 1
        assert payload["cache"] == {
            "resident_hits": 0, "disk_hits": 0, "misses": 1, "resident_entries": 1,
        }
        service.handle("POST", "/analyze", {"tree": AND_TREE})
        assert service.metrics_payload()["cache"]["resident_hits"] == 1
        fresh = AnalysisService(SkeletonStore(service.store.root))
        try:
            fresh.handle("POST", "/analyze", {"tree": AND_TREE})
            assert fresh.metrics_payload()["cache"] == {
                "resident_hits": 0, "disk_hits": 1, "misses": 0, "resident_entries": 1,
            }
        finally:
            fresh.close()


@pytest.fixture
def http_server(tmp_path):
    server = serve(str(tmp_path / "cache"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHttpRoundTrip:
    def test_mixed_concurrent_requests_bit_identical(self, http_server):
        client = ServiceClient(http_server.url)
        store = SkeletonStore(http_server.service.store.root)

        def analyze(_):
            return ("analyze", client.analyze(AND_TREE, times=[1.0, 2.0], mttf=True))

        def sweep(_):
            return ("sweep", client.sweep(PARAM_TREE, axes={"lam": [0.1, 0.5]}))

        def health(_):
            return ("healthz", client.healthz())

        jobs = [analyze, sweep, health] * 3
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(lambda job: job[0](job[1]), ((j, None) for j in jobs)))

        local_analyze = _local_study_dict(
            AND_TREE, store, Unreliability([1.0, 2.0]) + MTTF()
        )
        tree = galileo.parse(PARAM_TREE, name="<request>")
        local_sweep = SweepStudy(tree, StudyOptions(), skeleton_cache=store).run(
            RateSweep.grid(Unreliability([1.0]), lam=[0.1, 0.5])
        ).to_dict()
        for kind, response in outcomes:
            if kind == "analyze":
                assert _strip(response) == local_analyze
            elif kind == "sweep":
                for mine, theirs in zip(response["rows"], local_sweep["rows"]):
                    assert mine["sample"] == theirs["sample"]
                    assert mine["measures"] == theirs["measures"]
            else:
                assert response["status"] == "ok"

    def test_client_accepts_in_memory_trees(self, http_server):
        tree = galileo.parse(AND_TREE, name="mem")
        client = ServiceClient(http_server.url)
        response = client.analyze(tree, times=[1.0])
        assert response["measures"][0]["values"] == pytest.approx(
            [0.19807824840815813]
        )

    def test_analyze_result_round_trip(self, http_server):
        client = ServiceClient(http_server.url)
        result = client.analyze_result(AND_TREE, times=[1.0], mttf=True)
        assert result["mttf"].value == pytest.approx(2.5952380952, rel=1e-9)

    def test_4xx_raises_immediately_with_server_message(self, http_server):
        client = ServiceClient(http_server.url, retries=0)
        with pytest.raises(ServiceError, match="cannot parse"):
            client.analyze(BROKEN_TREE)

    def test_unreachable_server_raises_after_retries(self):
        client = ServiceClient("http://127.0.0.1:9", retries=1, backoff=0.01)
        with pytest.raises(ServiceError, match="attempts"):
            client.healthz()

    def test_invalid_json_body_is_400(self, http_server):
        import urllib.request

        request = urllib.request.Request(
            http_server.url + "/analyze",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            assert error.code == 400
            assert "JSON" in json.loads(error.read().decode())["error"]
        else:  # pragma: no cover
            pytest.fail("expected a 400 response")


class TestWorkerPool:
    def test_pool_measures_match_inline(self, tmp_path):
        request = {"tree": AND_TREE, "query": {"times": [1.0, 2.0], "mttf": True}}
        inline = AnalysisService(SkeletonStore(tmp_path / "a"))
        pooled = AnalysisService(SkeletonStore(tmp_path / "b"), processes=1)
        try:
            _, inline_response = inline.handle("POST", "/analyze", request)
            _, cold = pooled.handle("POST", "/analyze", request)
            _, warm = pooled.handle("POST", "/analyze", request)
            assert inline_response["measures"] == cold["measures"] == warm["measures"]
        finally:
            inline.close()
            pooled.close()


def _gated_build(monkeypatch, release: threading.Event, started: threading.Event):
    """Make every ``build_entry`` call wait for ``release``; returns the call log."""
    calls = []
    real_build = store_module.build_entry

    def gated(*args, **kwargs):
        calls.append(args[0].name)
        started.set()
        assert release.wait(30), "the gated build was never released"
        return real_build(*args, **kwargs)

    monkeypatch.setattr(store_module, "build_entry", gated)
    return calls


class TestHotPath:
    def test_accepted_connections_set_tcp_nodelay(self, http_server, monkeypatch):
        seen = []
        original_setup = _ServiceHandler.setup

        def setup(handler):
            original_setup(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_ServiceHandler, "setup", setup)
        assert ServiceClient(http_server.url).healthz()["status"] == "ok"
        assert seen and all(seen)

    @pytest.mark.parametrize("processes", [0, 1])
    @pytest.mark.parametrize("kind", ["ctmc", "ctmdp"])
    def test_resident_disk_and_in_process_bit_identical(self, tmp_path, kind, processes):
        text = AND_TREE if kind == "ctmc" else _nondet_tree_text()
        request = {"tree": text, "query": {"times": [0.5, 1.0]}}
        root = tmp_path / "cache"
        first = AnalysisService(SkeletonStore(root), processes=processes)
        second = AnalysisService(SkeletonStore(root), processes=processes)
        try:
            _, built = first.handle("POST", "/analyze", request)
            _, resident = first.handle("POST", "/analyze", request)
            _, disk = second.handle("POST", "/analyze", request)
            assert first.metrics_payload()["cache"]["resident_hits"] == 1
            assert second.metrics_payload()["cache"]["disk_hits"] == 1
        finally:
            first.close()
            second.close()
        assert [r["service"]["cache"] for r in (built, resident, disk)] == [
            "miss", "hit", "hit",
        ]
        query = query_from_payload(request["query"], nondeterministic=kind == "ctmdp")
        local = _local_study_dict(text, SkeletonStore(root), query)
        assert _strip(built) == _strip(resident) == _strip(disk) == local

    def test_hits_return_while_a_miss_build_is_blocked(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        SkeletonStore(root).get_or_build(galileo.parse(OR_TREE))  # on disk only
        service = AnalysisService(SkeletonStore(root))
        service.handle("POST", "/analyze", {"tree": AND_TREE})  # resident
        release, started = threading.Event(), threading.Event()
        _gated_build(monkeypatch, release, started)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                miss = pool.submit(service.handle, "POST", "/analyze", {"tree": TRIPLE_TREE})
                try:
                    assert started.wait(30)
                    _, resident = service.handle("POST", "/analyze", {"tree": AND_TREE})
                    _, disk = service.handle("POST", "/analyze", {"tree": OR_TREE})
                    assert not miss.done()
                finally:
                    release.set()
                status, built = miss.result(30)
        finally:
            service.close()
        assert resident["service"]["cache"] == disk["service"]["cache"] == "hit"
        assert status == 200 and built["service"]["cache"] == "miss"

    def test_concurrent_misses_on_one_key_build_once(self, service, monkeypatch):
        release, started = threading.Event(), threading.Event()
        calls = _gated_build(monkeypatch, release, started)
        request = {"tree": AND_TREE, "query": {"times": [1.0]}}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(service.handle, "POST", "/analyze", request) for _ in range(2)]
            assert started.wait(30)
            time.sleep(0.2)  # let the second request queue on the build lock
            release.set()
            responses = [future.result(30)[1] for future in futures]
        assert len(calls) == 1
        assert sorted(r["service"]["cache"] for r in responses) == ["hit", "miss"]
        assert _strip(responses[0]) == _strip(responses[1])

    def test_corrupt_entry_not_resident_is_evicted_and_rebuilt(self, tmp_path):
        root = tmp_path / "cache"
        entry, _ = SkeletonStore(root).get_or_build(galileo.parse(AND_TREE))
        path = SkeletonStore(root).path_of(entry.key)
        path.write_bytes(path.read_bytes()[:-7])
        service = AnalysisService(SkeletonStore(root))
        try:
            status, response = service.handle("POST", "/analyze", {"tree": AND_TREE})
        finally:
            service.close()
        assert status == 200 and response["service"]["cache"] == "miss"
        assert service.store.corrupt_evictions == 1
        local = _local_study_dict(AND_TREE, SkeletonStore(root), Unreliability([1.0]))
        assert _strip(response) == local

    def test_sweep_reads_its_entry_once(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        SkeletonStore(root).get_or_build(galileo.parse(PARAM_TREE))  # on disk only
        service = AnalysisService(SkeletonStore(root))
        loads = []
        real_load = SkeletonStore.load

        def counting_load(store, key):
            loads.append(key)
            return real_load(store, key)

        monkeypatch.setattr(SkeletonStore, "load", counting_load)
        request = {"tree": PARAM_TREE, "axes": {"lam": [0.1, 0.5]}}
        try:
            _, disk = service.handle("POST", "/sweep", request)
            assert len(loads) == 1
            _, resident = service.handle("POST", "/sweep", request)
            assert len(loads) == 1
        finally:
            service.close()
        assert disk["service"]["cache"] == resident["service"]["cache"] == "hit"
        assert [row["measures"] for row in disk["rows"]] == [
            row["measures"] for row in resident["rows"]
        ]

    def test_resident_hits_keep_their_file_under_a_byte_cap(self, tmp_path):
        probe = SkeletonStore(tmp_path / "probe")
        sizes = [
            probe.path_of(probe.get_or_build(galileo.parse(text))[0].key).stat().st_size
            for text in (AND_TREE, OR_TREE, TRIPLE_TREE)
        ]
        # Room for any two entries but not all three: the next store evicts one.
        cap = sum(sizes) - min(sizes) // 2
        service = AnalysisService(SkeletonStore(tmp_path / "cache", max_bytes=cap))
        try:
            hot = service.handle("POST", "/analyze", {"tree": AND_TREE})[1]["service"]["key"]
            cold = service.handle("POST", "/analyze", {"tree": OR_TREE})[1]["service"]["key"]
            hot_path, cold_path = service.store.path_of(hot), service.store.path_of(cold)
            past = time.time() - 1000.0
            os.utime(hot_path, (past, past))  # written first, so oldest on disk
            os.utime(cold_path, (past + 100.0, past + 100.0))
            for _ in range(3):
                response = service.handle("POST", "/analyze", {"tree": AND_TREE})[1]
                assert response["service"]["cache"] == "hit"
            service.handle("POST", "/analyze", {"tree": TRIPLE_TREE})
        finally:
            service.close()
        assert service.store.evictions == 1
        assert hot_path.exists()
        assert not cold_path.exists()
