"""Benchmark of the soficlab package; see README.md."""
