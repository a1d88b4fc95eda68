"""User spoofing and traffic obfuscation demos (Section 6.2, Appendix F).

Shows (1) the bidi-override warning-page spoof in the browser models,
(2) subject-variant evasion of middlebox rules, and (3) the duplicate-CN
placement trick that defeats Snort and Zeek in opposite directions.

Run with:  python examples/spoofing_and_traffic.py
"""

from repro.threats.spoofing import ALL_BROWSERS, chrome_warning_spoof_demo, derive_browser_matrix
from repro.threats.traffic import duplicate_position_evasion, evasion_experiment


def main() -> None:
    crafted, displayed = chrome_warning_spoof_demo()
    print("warning-page spoof (paper Figure 7):")
    print(f"  certificate CN : {crafted!r}")
    print(f"  user sees      : {displayed!r}\n")

    print("per-browser feasibility (Table 14):")
    for browser, results in derive_browser_matrix().items():
        verdict = "VULNERABLE" if results["warning_spoof_feasible"] else "protected"
        print(f"  {browser:<16} warning spoof: {verdict}")

    print("\nmiddlebox rule evasion via subject variants (Section 6.2):")
    for result in evasion_experiment("Evil Entity Ltd"):
        if result.evaded:
            print(f"  {result.middlebox:<10} evaded by {result.strategy.name}: {result.variant!r}")

    print("\nduplicate-CN placement (P2.1):")
    for key, value in duplicate_position_evasion().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
