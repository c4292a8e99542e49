"""The repo's one benchmark: four named workloads, six end-to-end
metrics, and a per-layer ledger measured from outside the program.

``run.py`` is the entry point; see ``README.md`` for the catalogue.
"""
