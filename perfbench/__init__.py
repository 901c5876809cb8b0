"""Seeded benchmark of the asymflat CLI; `python3 perfbench/run.py --help`."""
