"""Benchmark package: see run.py."""
