"""Minimal TLS 1.2 record/handshake substrate (Section 6.2's wire view)."""
