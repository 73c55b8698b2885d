"""Benchmark of the manolab package: workloads, checks and spans."""
