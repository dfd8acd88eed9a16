"""Benchmark of hopflck: closed-loop workloads, known answers, tracing.

Run ``python3 -m perfbench --help`` from the repository root.
"""
