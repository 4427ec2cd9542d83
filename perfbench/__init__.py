"""Crawl benchmark: seeded workloads, oracle checks and a per-layer trace.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
