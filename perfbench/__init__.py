"""Whole-system benchmark for the repro HiCS library (run ``python3 perfbench/run.py``)."""
