"""perfbench — the yardstick every later performance claim uses.

Four named workloads over ``repro``'s public API, end-to-end metrics from an
untraced run and per-layer metrics from a traced one.  ``BENCHMARK.json`` at
the repository root is the contract the driver reads; ``README.md`` here has
the metric catalogue and the workload rationale.
"""

#: the four workload names; later issues cite them
WORKLOADS = ("read_mapping", "homology_search", "serve_gateway", "storage_lifecycle")
