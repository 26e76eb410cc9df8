"""The repository benchmark: seeded workloads over the serving, LSM,
Bloom and learned-index layers, an oracle for every answer, and a
traced run that prices each layer.  Run it with ``python3
perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace
<0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.
"""
