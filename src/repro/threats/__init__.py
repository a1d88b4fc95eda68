"""Empirical threat scenarios (Section 6 + Appendix F)."""
