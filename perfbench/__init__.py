"""Layered benchmark for scorefusion: end-to-end workloads plus a traced
run that reports per-layer busy time and counts. See perfbench/README.md."""
