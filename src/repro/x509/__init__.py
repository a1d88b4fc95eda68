"""X.509 substrate: names, general names, extensions, certificates."""
