"""Benchmark of the finnets pipeline; see README.md here."""
