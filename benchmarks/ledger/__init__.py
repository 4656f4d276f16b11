"""The repo's performance ledger: one benchmark for the whole path.

File -> digest, and tailed log -> ``repro serve`` -> HTTP, end to end and
layer by layer.  ``BENCHMARK.json`` at the repo root is the contract (the
workload and metric names, units, directions and regression bounds);
``README.md`` beside this file is the glossary.  Nothing under ``src/``
knows this package exists: every layer is timed from outside.
"""
