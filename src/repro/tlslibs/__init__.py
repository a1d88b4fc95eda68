"""TLS-library behaviour models and the differential testing harness."""
