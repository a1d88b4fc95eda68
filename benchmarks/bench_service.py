"""Lint service benchmark: latency distribution, throughput, cache.

Runs a real daemon (``ThreadedService``, ephemeral port, 2 workers) and
drives it with concurrent blocking clients over TCP — the same path a
CT-ingestion pipeline would use:

* a cold phase of distinct certificates (every request reaches a
  worker) and a warm phase that replays them (every request should hit
  the cache),
* p50/p99 latency per phase, end-to-end throughput, cache hit rate,
* a parity assertion: one response is compared byte-for-byte with the
  offline ``python -m repro lint --json`` output.

Besides the human-readable ``bench_service.txt``, the run emits
machine-readable ``BENCH_service.json`` so the bench trajectory can be
tracked across PRs.
"""

import concurrent.futures
import contextlib
import io
import json
import os
import pathlib
import time

from repro.cli import main as cli_main
from repro.service.server import ServiceConfig
from repro.service.testing import ThreadedService
from repro.x509.builder import CertificateBuilder
from repro.x509.extensions import subject_alt_name
from repro.x509.general_name import GeneralName
from repro.x509.keys import generate_keypair
from repro.x509.pem import encode_pem

import datetime as dt

JOBS = int(os.environ.get("REPRO_BENCH_SERVICE_JOBS", 2))
DISTINCT = int(os.environ.get("REPRO_BENCH_SERVICE_CERTS", 96))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_SERVICE_CONCURRENCY", 16))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

KEY = generate_keypair(seed=909)
WHEN = dt.datetime(2024, 5, 1)


def _build_certs(count: int):
    certs = []
    for i in range(count):
        cn = f"bench{i}\x00.example.com" if i % 2 else f"bench{i}.example.com"
        certs.append(
            CertificateBuilder()
            .subject_cn(cn)
            .serial(i + 1)
            .not_before(WHEN)
            .add_extension(subject_alt_name(GeneralName.dns(f"bench{i}.example.com")))
            .sign(KEY)
        )
    return certs


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _fire(client_factory, payloads):
    """Send every payload with CONCURRENCY client threads; returns
    (per-request latencies in seconds, wall seconds)."""

    def _one(payload):
        client = client_factory()
        start = time.perf_counter()
        status, _body = client.lint_raw(payload)
        elapsed = time.perf_counter() - start
        assert status == 200, f"expected 200, got {status}"
        return elapsed

    wall_start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        latencies = list(pool.map(_one, payloads))
    return latencies, time.perf_counter() - wall_start


def test_service_latency_throughput_cache(write_output):
    certs = _build_certs(DISTINCT)
    payloads = [cert.to_der() for cert in certs]

    config = ServiceConfig(port=0, jobs=JOBS, cache_size=DISTINCT * 2)
    with ThreadedService(config) as threaded:
        client_factory = threaded.client

        # Parity first: the service body is the CLI body, byte for byte.
        pem_path = OUTPUT_DIR / "bench_service_parity.pem"
        OUTPUT_DIR.mkdir(exist_ok=True)
        pem_path.write_text(encode_pem(payloads[0]))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli_main(["lint", str(pem_path), "--json"])
        pem_path.unlink()
        status, body = client_factory().lint_raw(payloads[0])
        assert status == 200
        assert body == buffer.getvalue().encode("utf-8")

        # Cold: every remaining cert is new to the service.
        cold_latencies, cold_wall = _fire(client_factory, payloads[1:])
        # Warm: replay everything; each answer should come from cache.
        warm_latencies, warm_wall = _fire(client_factory, payloads)

        metrics = client_factory().metrics()

    cold_sorted = sorted(cold_latencies)
    warm_sorted = sorted(warm_latencies)
    cache = metrics["cache"]
    record = {
        "bench": "service",
        "jobs": JOBS,
        "distinct_certs": DISTINCT,
        "concurrency": CONCURRENCY,
        "cold": {
            "requests": len(cold_latencies),
            "p50_ms": round(_percentile(cold_sorted, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(cold_sorted, 0.99) * 1e3, 3),
            "throughput_rps": round(len(cold_latencies) / cold_wall, 1),
        },
        "warm": {
            "requests": len(warm_latencies),
            "p50_ms": round(_percentile(warm_sorted, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(warm_sorted, 0.99) * 1e3, 3),
            "throughput_rps": round(len(warm_latencies) / warm_wall, 1),
        },
        "cache": {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "hit_rate": cache["hit_rate"],
        },
        "batcher": metrics["batcher"],
        "parity_with_cli_json": True,
    }
    (OUTPUT_DIR / "BENCH_service.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"daemon: jobs={JOBS}, {DISTINCT} distinct certs, "
        f"{CONCURRENCY} concurrent clients",
        f"cold: {record['cold']['requests']} reqs  "
        f"p50 {record['cold']['p50_ms']:.1f}ms  "
        f"p99 {record['cold']['p99_ms']:.1f}ms  "
        f"{record['cold']['throughput_rps']:.0f} req/s",
        f"warm: {record['warm']['requests']} reqs  "
        f"p50 {record['warm']['p50_ms']:.1f}ms  "
        f"p99 {record['warm']['p99_ms']:.1f}ms  "
        f"{record['warm']['throughput_rps']:.0f} req/s",
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.2%})",
        f"batcher: {metrics['batcher']['batches_dispatched']} batches, "
        f"largest {metrics['batcher']['largest_batch']}",
        "response bodies byte-identical to `repro lint --json`: yes",
        "machine-readable record: output/BENCH_service.json",
    ]
    write_output("bench_service", lines)

    # The warm phase must actually have been served from cache.
    assert cache["hits"] >= DISTINCT
    # Warm throughput should beat cold (no parsing, linting, or worker
    # round-trip); allow generous slack for scheduling noise.
    assert record["warm"]["throughput_rps"] > record["cold"]["throughput_rps"] * 0.8
