"""The repository benchmark: end-to-end and per-layer performance of
the TAQ simulator on four workloads (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.
"""
