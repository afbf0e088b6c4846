"""The repository's benchmark: LPQ-search workloads with end-to-end and
per-layer metrics.  ``python3 perfbench/run.py --help`` runs one
workload; ``perfbench/README.md`` describes the workloads and metrics."""
