"""Tests for the Section 6.1 CT-monitor-misleading experiment."""

import pytest

from repro.threats.monitor_misleading import (
    TECHNIQUES,
    concealment_matrix,
    craft_forged_certificates,
    run_experiment,
)

VICTIM = "victim.example.com"


@pytest.fixture(scope="module")
def results():
    return run_experiment(VICTIM)


class TestCrafting:
    def test_one_cert_per_technique(self):
        forged = craft_forged_certificates(VICTIM)
        assert set(forged) == set(TECHNIQUES)

    def test_nul_cert_contains_victim(self):
        forged = craft_forged_certificates(VICTIM)
        assert VICTIM in forged["nul_in_cn"].subject_common_names[0]
        assert "\x00" in forged["nul_in_cn"].subject_common_names[0]

    def test_zero_width_is_an_alabel(self):
        forged = craft_forged_certificates(VICTIM)
        assert forged["zero_width_label"].subject_common_names[0].startswith("xn--")


class TestExperiment:
    def test_full_coverage(self, results):
        pairs = {(r.monitor, r.technique) for r in results}
        assert len(pairs) == 5 * len(TECHNIQUES)

    def test_case_variation_concealed_nowhere(self, results):
        # P1.1: case-insensitive search defeats case variation.
        for r in results:
            if r.technique == "case_variation":
                assert not r.concealed, r.monitor

    def test_sslmate_special_char_concealment(self, results):
        # P1.4: SSLMate fails to index certs with special characters.
        outcome = {r.technique: r.concealed for r in results if r.monitor == "SSLMate Spotter"}
        assert outcome["nul_in_cn"]
        assert outcome["space_in_cn"]

    def test_exact_match_monitors_miss_subdomains(self, results):
        # P1.2: no fuzzy search -> subdomain variants hide.
        for r in results:
            if r.technique == "subdomain_variant":
                if r.monitor in ("SSLMate Spotter", "Facebook Monitor", "Entrust Search"):
                    assert r.concealed, r.monitor
                if r.monitor in ("Crt.sh", "MerkleMap"):
                    assert not r.concealed, r.monitor

    def test_fuzzy_monitors_catch_nul(self, results):
        # Substring search still finds the victim name around a NUL.
        for r in results:
            if r.technique == "nul_in_cn" and r.monitor in ("Crt.sh", "MerkleMap"):
                assert not r.concealed, r.monitor

    def test_every_monitor_concealable_somehow(self, results):
        # The paper's core claim: monitors can be misled.
        by_monitor: dict[str, list[bool]] = {}
        for r in results:
            by_monitor.setdefault(r.monitor, []).append(r.concealed)
        for monitor, concealed in by_monitor.items():
            assert any(concealed), monitor

    def test_matrix_shape(self, results):
        matrix = concealment_matrix(results)
        assert set(matrix) == set(TECHNIQUES)
        assert all(len(row) == 5 for row in matrix.values())
