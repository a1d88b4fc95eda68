"""Test-Unicert generation (Section 3.2)."""
