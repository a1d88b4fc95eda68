"""Section 6.2 — traffic obfuscation against middleboxes and clients."""

from repro.threats.traffic import ALL_CLIENTS, duplicate_position_evasion, evasion_experiment
from repro.uni.variants import VariantStrategy


def test_sec62_variant_evasion(write_output):
    results = evasion_experiment("Evil Entity Ltd")
    middleboxes = sorted({r.middlebox for r in results})
    by_strategy: dict[VariantStrategy, dict[str, bool]] = {}
    for r in results:
        by_strategy.setdefault(r.strategy, {})[r.middlebox] = r.evaded
    lines = [
        "Section 6.2: rule evasion via Table 3 subject variants",
        f"{'Strategy':<44}" + "".join(f"{m:>10}" for m in middleboxes),
    ]
    for strategy, row in by_strategy.items():
        lines.append(
            f"{strategy.value:<44}"
            + "".join(f"{'EVADED' if row.get(m) else 'caught':>10}" for m in middleboxes)
        )
    outcome = duplicate_position_evasion()
    lines += ["", "P2.1 duplicate-CN placement:"]
    for key, value in outcome.items():
        lines.append(f"  {key}: {value}")
    lines += ["", "P2.2 client SAN format checks:"]
    for client in ALL_CLIENTS:
        lines.append(
            f"  {client.name}: U-label SAN accepted={client.accepts_san_value('münchen.de')}, "
            f"bad punycode accepted={client.accepts_san_value('xn--999999999.de')}"
        )
    write_output("sec62_traffic", lines)

    assert by_strategy[VariantStrategy.NON_PRINTABLE_ADDITION]["Snort"]
    assert by_strategy[VariantStrategy.CASE_CONVERSION]["Suricata"]
    assert not by_strategy[VariantStrategy.CASE_CONVERSION]["Snort"]
    assert outcome["snort_evaded_by_evil_last"]
    assert outcome["zeek_evaded_by_evil_first"]


def test_sec62_client_checks(write_output):
    outcome = {
        client.name: (
            client.accepts_san_value("münchen.de"),
            client.accepts_san_value("xn--999999999.de"),
            client.accepts_san_value("xn--mnchen-3ya.de"),
        )
        for client in ALL_CLIENTS
    }
    # urllib3/requests over-tolerantly accept Latin-1 U-labels (P2.2).
    assert outcome["urllib3"][0] and outcome["requests"][0]
    assert not outcome["libcurl"][0]
    # libcurl validates punycode; HttpClient does not.
    assert not outcome["libcurl"][1]
    assert outcome["HttpClient"][1]
    # Everyone takes a valid A-label.
    assert all(v[2] for v in outcome.values())
    write_output(
        "sec62_clients",
        [f"{name}: ulabel={v[0]} bad_punycode={v[1]} valid_alabel={v[2]}" for name, v in outcome.items()],
    )
