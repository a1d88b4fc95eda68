"""End-to-end daemon tests — the PR's acceptance criteria live here.

A real daemon (``ThreadedService``, ephemeral port, ``--jobs 2``) is
exercised over TCP with the blocking client:

* 64 concurrent ``POST /lint`` over a mixed compliant/noncompliant set,
  every response byte-identical to ``python -m repro lint --json``;
* repeats served from cache (hit counter up, no new worker dispatch);
* a full admission queue answers 429 + ``Retry-After``;
* structured errors, batch endpoint, introspection routes, drain.
"""

import base64
import concurrent.futures
import json
import threading

import pytest

from repro.engine.stats import StageTimings
from repro.lint.parallel import ShardResult
from repro.lint.reference import reference_run_lints
from repro.lint.serialization import report_to_json
from repro.service.client import LintServiceClient, ServiceError
from repro.service.server import ServiceConfig
from repro.service.testing import ThreadedService
from repro.x509.pem import encode_pem

from .conftest import build_cert


class TestLintParity:
    def test_64_concurrent_requests_match_cli_byte_for_byte(
        self, service, mixed_certs, cli_json_for
    ):
        # 16 distinct certs x 4 repeats = 64 concurrent requests.
        payloads = [
            (cert, encode_pem(cert.to_der()).encode("utf-8"))
            for cert in mixed_certs * 4
        ]

        def _one(item):
            cert, pem = item
            status, body = service.client().lint_raw(pem)
            return cert, status, body

        with concurrent.futures.ThreadPoolExecutor(max_workers=64) as pool:
            outcomes = list(pool.map(_one, payloads))

        assert len(outcomes) == 64
        for cert, status, body in outcomes:
            assert status == 200
            assert body == cli_json_for(cert)

    def test_der_and_base64_bodies_hit_the_same_path(
        self, service, mixed_certs, cli_json_for
    ):
        cert = mixed_certs[1]
        client = service.client()
        for body in (
            cert.to_der(),
            base64.b64encode(cert.to_der()),
            encode_pem(cert.to_der()).encode(),
        ):
            status, payload = client.lint_raw(body)
            assert status == 200
            assert payload == cli_json_for(cert)

    def test_report_is_json_with_findings(self, service, mixed_certs):
        bad = next(c for c in mixed_certs if "bad" in c.subject.rfc4514_string())
        report = service.client().lint(bad.to_der())
        assert report["noncompliant"] is True
        assert any(
            f["lint"] == "e_rfc_subject_dn_not_printable_characters"
            for f in report["findings"]
        )


class TestCaching:
    def test_repeat_served_from_cache_without_dispatch(self, service, mixed_certs):
        cert = build_cert("cache-probe.example.com", serial=777)
        client = service.client()
        status, first = client.lint_raw(cert.to_der())
        assert status == 200
        before = client.metrics()

        status, second = client.lint_raw(cert.to_der())
        assert status == 200
        assert second == first

        after = client.metrics()
        assert after["cache"]["hits"] == before["cache"]["hits"] + 1
        # No worker dispatch happened for the cached answer.
        assert (
            after["batcher"]["certs_dispatched"]
            == before["batcher"]["certs_dispatched"]
        )
        assert after["certs_linted"] == before["certs_linted"]

    def test_service_process_never_decodes_a_certificate(
        self, service, monkeypatch
    ):
        from repro.x509.certificate import Certificate

        cert = build_cert("spy-probe.example.com", serial=780)  # sign() decodes
        calls = []
        real = Certificate.from_der.__func__

        def spy(cls, data, strict=False):
            calls.append(data)
            return real(cls, data, strict)

        # The pool's workers are already running, so the spy sees only
        # this process: a miss decodes in the worker, a hit nowhere.
        monkeypatch.setattr(Certificate, "from_der", classmethod(spy))
        client = service.client()
        assert client.lint_raw(cert.to_der())[0] == 200
        hits = client.metrics()["cache"]["hits"]
        assert client.lint_raw(encode_pem(cert.to_der()).encode())[0] == 200
        assert client.metrics()["cache"]["hits"] == hits + 1
        assert calls == []

    def test_pem_and_der_share_one_cache_entry(self, service):
        cert = build_cert("alias-probe.example.com", serial=778)
        client = service.client()
        client.lint_raw(cert.to_der())
        before = client.metrics()["cache"]["size"]
        client.lint_raw(encode_pem(cert.to_der()).encode())
        assert client.metrics()["cache"]["size"] == before


class TestErrors:
    def test_garbage_body_is_structured_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client().lint(b"\xff\xfenot a cert")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_body"

    def test_valid_base64_invalid_der_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client().lint(base64.b64encode(b"\x30\x03\x02\x01\x01"))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unparseable_certificate"

    def test_empty_body_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client().lint(b"")
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client()._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client()._json("GET", "/lint")
        assert excinfo.value.status == 405

    def test_oversized_body_is_413(self, service, mixed_certs):
        big = ServiceConfig().max_body  # the module fixture keeps defaults
        with pytest.raises(ServiceError) as excinfo:
            service.client().lint(b"A" * (big + 1))
        assert excinfo.value.status == 413


class TestBatchEndpoint:
    def test_batch_mixed_good_and_bad_items(
        self, service, mixed_certs, cli_json_for
    ):
        good = mixed_certs[0]
        payload = json.dumps(
            {
                "certificates": [
                    base64.b64encode(good.to_der()).decode(),
                    "definitely-not-a-certificate",
                ]
            }
        ).encode()
        document = service.client()._json("POST", "/lint/batch", payload)
        assert document["count"] == 2
        report = document["results"][0]["report"]
        assert report == json.loads(cli_json_for(good))
        assert document["results"][1]["error"]["status"] == 400

    def test_good_and_unparseable_items_share_one_micro_batch(self):
        good = build_cert("mixed-batch.example.com", serial=781)
        bad = base64.b64encode(b"\x30\x03\x02\x01\x00").decode()
        payload = json.dumps(
            {"certificates": [base64.b64encode(good.to_der()).decode(), bad]}
        ).encode()
        config = ServiceConfig(port=0, jobs=1, batch_delay=0.05)
        with ThreadedService(config) as threaded:
            document = threaded.client()._json("POST", "/lint/batch", payload)
            batcher = threaded.service.batcher
            assert batcher.batches_dispatched == 1
            assert batcher.certs_dispatched == 2
        assert document["results"][0]["report"] == json.loads(
            report_to_json(reference_run_lints(good), good)
        )
        error = document["results"][1]["error"]
        assert error["status"] == 400
        assert error["code"] == "unparseable_certificate"

    def test_batch_rejects_non_list(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.client()._json("POST", "/lint/batch", b'{"certificates": 3}')
        assert excinfo.value.code == "bad_batch"


class TestIntrospection:
    def test_healthz(self, service):
        health = service.client().healthz()
        assert health["status"] == "ok"
        assert health["jobs"] == 2

    def test_rules_route_lists_95(self, service):
        document = service.client().rules()
        assert document["count"] == 95
        sample = document["rules"][0]
        for key in ("rule_id", "lint", "requirement_level", "type", "new"):
            assert key in sample

    def test_metrics_shape(self, service):
        metrics = service.client().metrics()
        for key in (
            "requests_total",
            "responses_by_status",
            "cache",
            "batcher",
            "queue",
            "rejected_total",
            "stages",
        ):
            assert key in metrics
        assert metrics["queue"]["max"] == 256

    def test_metrics_stages_block(self, service):
        # The engine's per-stage collector surfaces through /metrics:
        # after a real lint the worker's decode/lint/sink seconds are
        # folded into the daemon-lifetime stages block.
        cert = build_cert("stages-probe.example.com", serial=779)
        client = service.client()
        status, _body = client.lint_raw(cert.to_der())
        assert status == 200
        stages = client.metrics()["stages"]
        assert stages["certs"] >= 1
        for stage in ("decode", "lint", "sink"):
            # Worker batches merge with worker=True: their CPU seconds
            # and item counts are additive across processes, while the
            # wall column stays parent-side only (zero here).
            assert stages["stages"][stage]["cpu_seconds"] >= 0.0
            assert stages["stages"][stage]["wall_seconds"] == 0.0
            assert stages["stages"][stage]["items"] >= 1
        # A repeat of the same certificate is an engine-level cache hit.
        client.lint_raw(cert.to_der())
        assert client.metrics()["stages"]["cache"]["hits"] >= 1


class _StuckPool:
    """A pool bridge whose futures only resolve when released — lets the
    admission queue fill deterministically."""

    jobs = 1

    def __init__(self):
        self.gate = threading.Event()
        self._futures = []
        self.dispatched = 0

    def submit_shard(self, task):
        import concurrent.futures as cf

        count = len(task.certs_der)
        self.dispatched += count
        future: cf.Future = cf.Future()
        self._futures.append((future, count))

        def _release():
            self.gate.wait(timeout=30)
            future.set_result(
                ShardResult(
                    index=task.index,
                    count=count,
                    reports=["{}"] * count,
                    timings=StageTimings(),
                )
            )

        threading.Thread(target=_release, daemon=True).start()
        return future

    def shutdown(self, wait=True):
        self.gate.set()


class TestBackpressure:
    def test_queue_full_yields_429_with_retry_after(self, mixed_certs):
        pool = _StuckPool()
        config = ServiceConfig(
            port=0, max_queue=4, cache_size=0, batch_delay=0.0, max_batch=1
        )
        with ThreadedService(config, pool=pool) as threaded:
            client = threaded.client(timeout=10)
            # Fill the admission queue with requests that cannot finish.
            with concurrent.futures.ThreadPoolExecutor(max_workers=12) as tp:
                futures = [
                    tp.submit(client.lint_raw, cert.to_der())
                    for cert in mixed_certs[:12]
                ]
                rejected = []
                completed = []
                # The stuck pool holds 4 admitted; the rest must bounce
                # with 429 instead of queueing unboundedly.
                for future in concurrent.futures.as_completed(futures, timeout=20):
                    status, body = future.result()
                    (completed if status == 200 else rejected).append(
                        (status, body)
                    )
                    if len(rejected) == 8:
                        pool.gate.set()  # release the admitted four
            assert len(rejected) == 8
            for status, body in rejected:
                assert status == 429
                error = json.loads(body)["error"]
                assert error["code"] == "queue_full"
            metrics = client.metrics()
            assert metrics["rejected_total"] >= 8
        # Retry-After header is present on a raw 429.
        pool2 = _StuckPool()
        config2 = ServiceConfig(
            port=0, max_queue=1, cache_size=0, batch_delay=0.0, max_batch=1
        )
        with ThreadedService(config2, pool=pool2) as threaded:
            client = threaded.client(timeout=10)
            cert_a, cert_b = mixed_certs[0], mixed_certs[1]
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as tp:
                stuck = tp.submit(client.lint_raw, cert_a.to_der())
                try:
                    # Wait until the first request is admitted.
                    for _ in range(200):
                        if pool2.dispatched:
                            break
                        import time

                        time.sleep(0.01)
                    with pytest.raises(ServiceError) as excinfo:
                        client.lint(cert_b.to_der())
                    assert excinfo.value.status == 429
                    assert excinfo.value.retry_after is not None
                finally:
                    pool2.gate.set()
                    stuck.result(timeout=10)


class TestDrain:
    def test_drain_finishes_admitted_work(self, mixed_certs, cli_json_for):
        config = ServiceConfig(port=0, jobs=2)
        threaded = ThreadedService(config).start()
        client = threaded.client()
        cert = mixed_certs[2]
        status, body = client.lint_raw(cert.to_der())
        assert status == 200
        threaded.stop()
        # Daemon is gone: new connections fail.
        with pytest.raises(OSError):
            LintServiceClient(port=threaded.service.port, timeout=1).healthz()
