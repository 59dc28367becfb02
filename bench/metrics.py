"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json lists the same metrics (the bench tests keep the two equal).
Its schema has no field for the prediction each per-layer metric carries,
so that prediction lives here, in the fourth column: which end-to-end
metric the layer metric should move, on which workload.
"""

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# (name, unit, better, bound: the share of the parent's median by which the
# metric may worsen before a change counts as a regression)
END_TO_END = (
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("req_per_s", "1/s", "higher", 0.25),
    # Correctly answered / attempted requests, i.e. 1 - error_rate.  The
    # complement is reported because a metric must never read 0.
    ("correct_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_COMMANDS = (
    "dsep", "derive", "augment", "project", "verify", "identify", "gformula", "ace", "lognormal", "simulate",
    "render",
)
LAYER_SHARES = ("dsl", "statements", "graph", "dsep", "augment", "eci", "oracle", "decision")

# (name, unit, better, what it should move)
PER_LAYER = (
    ("cli.interp_start_ms", "ms", "lower", "floor under latency_p50_ms on cli_corpus; no code change moves it"),
    ("cli.import_ms", "ms", "lower", "latency_p50_ms and req_per_s on cli_corpus"),
    ("cli.import_numpy_ms", "ms", "lower", "latency_p50_ms and req_per_s on cli_corpus (lazy numpy import)"),
    *(
        (f"cli.{cmd}.p50_ms", "ms", "lower", "latency_p50_ms and req_per_s on cli_corpus")
        for cmd in CLI_COMMANDS
    ),
    ("cli.import_share_pct", "%", "lower", "latency_p50_ms on cli_corpus"),
    ("dsl.load_doc_calls", "count", "lower", "cli_corpus and symbolic, by small amounts"),
    ("dsl.parse_ms", "ms", "lower", "cli_corpus and symbolic, by small amounts"),
    ("statements.parse_ms", "ms", "lower", "cli_corpus and symbolic, by small amounts"),
    ("graph.dag_of_calls", "count", "lower", "req_per_s on symbolic (per-query rebuilds)"),
    ("graph.dag_of_ms", "ms", "lower", "req_per_s on symbolic"),
    ("graph.restrict_calls", "count", "lower", "req_per_s on symbolic"),
    ("graph.topo_calls", "count", "lower", "req_per_s on symbolic"),
    ("dsep.query_calls", "count", "lower", "symbolic; not oracle_build or oracle_query"),
    ("dsep.query_ms", "ms", "lower", "symbolic; not oracle_build or oracle_query"),
    ("dsep.implied_calls", "count", "lower", "symbolic"),
    ("dsep.implied_ms", "ms", "lower", "symbolic"),
    ("dsep.certified_ratio", "ratio", "higher", "symbolic (useful answers per separation query)"),
    ("augment.eliminate_calls", "count", "lower", "latency_p90_ms on symbolic"),
    ("augment.eliminate_ms", "ms", "lower", "latency_p90_ms on symbolic"),
    ("augment.refused_ratio", "ratio", "lower", "fixed by the inputs; a change must not move it"),
    ("augment.build_itt_ms", "ms", "lower", "latency_p90_ms on symbolic"),
    ("eci.derivable_calls", "count", "lower", "symbolic"),
    ("eci.derivable_ms", "ms", "lower", "latency_p90_ms and req_per_s on symbolic"),
    ("eci.derived_ratio", "ratio", "higher", "symbolic (completeness of the closure)"),
    ("eci.trace_steps", "count", "lower", "symbolic"),
    ("eci.replay_ms", "ms", "lower", "symbolic"),
    ("oracle.load_model_ms", "ms", "lower", "latency on oracle_build"),
    ("oracle.joint_calls", "count", "lower", "oracle_build and oracle_query"),
    ("oracle.joint_builds", "count", "lower", "latency and peak_rss_mb on oracle_build; not oracle_query"),
    ("oracle.joint_hit_ratio", "ratio", "higher", "oracle_build; 1 on oracle_query"),
    ("oracle.joint_build_ms", "ms", "lower", "latency and req_per_s on oracle_build; not oracle_query"),
    ("oracle.states_enumerated", "count", "lower", "latency and peak_rss_mb on oracle_build"),
    ("oracle.states_per_s", "1/s", "higher", "latency and req_per_s on oracle_build"),
    ("oracle.joint_build_share_pct", "%", "lower", "oracle_build latency"),
    ("oracle.eci_holds_calls", "count", "lower", "oracle_query"),
    ("oracle.eci_holds_ms", "ms", "lower", "latency and req_per_s on oracle_query"),
    ("oracle.eci_holds_share_pct", "%", "lower", "oracle_query latency"),
    ("oracle.eci_cells", "count", "lower", "latency on oracle_query"),
    ("oracle.check_ms", "ms", "lower", "oracle_query"),
    ("oracle.gformula_ms", "ms", "lower", "oracle_query"),
    ("request.self_share_pct", "%", "lower", "time in no traced function: harness, process start"),
    *(
        (f"{layer}.share_pct", "%", "lower", "latency on the workloads that use the layer")
        for layer in LAYER_SHARES
    ),
    ("trace.overhead_pct", "%", "lower", "nothing end to end: untraced minus traced req_per_s"),
)
