"""Benchmark of the arcreg package; run it with ``python3 perfbench/run.py``."""
