"""The repository benchmark: workloads, layer tracing and the driver.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
