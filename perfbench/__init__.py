"""End-to-end and per-layer benchmark of the multirail engine simulator.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md`` for
the workloads, the metrics and the layer table.
"""
