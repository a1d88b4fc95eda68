"""Computations behind every table and figure of the paper."""
