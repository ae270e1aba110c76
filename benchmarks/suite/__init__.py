"""The V-ETL benchmark: four calibrated workloads with an outside-in layer trace.

``benchmarks/suite/run.py`` runs one workload once (the command named in
``BENCHMARK.json``); ``python -m benchmarks.suite`` runs sets of runs,
compares two sets, and regenerates the golden digests.  See README.md in
this directory.
"""
