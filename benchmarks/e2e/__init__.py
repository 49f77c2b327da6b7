"""The repository's one performance ledger (see ``README.md`` next to this file).

``python3 -m benchmarks.e2e`` runs four workloads — ``sht_L128``,
``fit_L48``, ``campaign_L64``, ``serve_mixed_L32`` — each in a fresh
process, checks every output and prints every metric by name with its
unit.  The metric and workload names are declared once, in the
``BENCHMARK.json`` at the root of the repository.
"""
