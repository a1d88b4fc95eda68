"""Mislead CT monitors with crafted Unicerts (RQ3, Section 6.1).

Issues forged certificates for a victim domain using the paper's
concealment techniques, indexes them into five CT monitor models, and
shows which monitors a vigilant domain owner would still be blind on.

Run with:  python examples/ct_monitor_evasion.py [victim-domain]
"""

import sys

from repro.threats.monitor_misleading import (
    concealment_matrix,
    craft_forged_certificates,
    run_experiment,
    derive_monitor_matrix,
)


def main(victim: str = "victim.example.com") -> None:
    print(f"victim domain: {victim}\n")

    print("forged certificates crafted by the malicious CA:")
    for technique, cert in craft_forged_certificates(victim).items():
        cn = cert.subject_common_names[0]
        print(f"  {technique:<20} CN={cn!r}")

    print("\nconcealment outcome per monitor:")
    results = run_experiment(victim)
    matrix = concealment_matrix(results)
    monitors = sorted({r.monitor for r in results})
    print(f"{'technique':<22}" + "".join(f"{m[:14]:>16}" for m in monitors))
    for technique, row in matrix.items():
        print(
            f"{technique:<22}"
            + "".join(f"{'CONCEALED' if row[m] else 'found':>16}" for m in monitors)
        )

    print("\nmonitor feature matrix (Table 6, derived by probing):")
    for monitor, features in derive_monitor_matrix().items():
        gaps = [name for name, ok in features.items() if not ok]
        print(f"  {monitor:<18} gaps: {', '.join(gaps) or 'none'}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "victim.example.com")
