"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; the
benchmark's tests hold the two lists equal.
"""
from __future__ import annotations

# name, unit, better
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# fail_ratio is printed beside them; the result line carries it as
# attempted/failed, because a metric that is 0 on a correct run cannot be
# compared as a share of its median.
FAIL_RATIO = ("fail_ratio", "ratio", "lower")

# spans whose calls, errors and self seconds are reported; a metric built
# from several spans adds them up
CALL_METRICS = {
    "terms.eval_term": ("terms.eval_term",),
    "types.render_value": ("types.render_value",),
    "algebra.build_factorisation": ("algebra.build_factorisation",),
    "registers.product_list_updates": tuple(
        f"registers.product_list_updates.k{k}" for k in (1, 2, 3, 4)),
    "registers.homogeneous_product": ("registers.homogeneous_product",),
    "registers.run_sst_structured": ("registers.run_sst_structured",),
    "logic.apply_transduction": tuple(
        f"logic.apply.{n}" for n in ("reverse", "append", "coappend", "flat",
                                     "block", "ab_example")),
    "logic.encode_value": ("logic.encode_value",),
    "logic.decode_structure": ("logic.decode_structure",),
    "fileio.save_structure": ("fileio.save_structure",),
    "fileio.load_structure": ("fileio.load_structure",),
}

# spans reported by self seconds only: the pieces of a call metric above,
# the rational pipeline's stages, set-up steps and the oracles
SECONDS_METRICS = (
    CALL_METRICS["registers.product_list_updates"]
    + CALL_METRICS["logic.apply_transduction"]
    + tuple(f"rational.stage.{s}" for s in
            ("forest", "profiles", "ancestors", "classify", "table"))
    + ("import", "terms.infer_type", "stdlib.build", "syntax.render_term",
       "syntax.parse_term", "rational.compile", "registers.t_k_monoid")
    + ("stdlib.oracle", "rational.direct", "registers.fold",
       "registers.run_sst_naive", "logic.oracle")
)

# counts over one round of a workload's inputs: name, unit, better
COUNT_METRICS = [
    ("terms.nodes", "count", "lower"),
    ("terms.distinct", "count", "lower"),
    ("types.value_size.in", "nodes", "lower"),
    ("types.value_size.out", "nodes", "lower"),
    ("algebra.forest_depth.max", "count", "lower"),
    ("algebra.forest_nodes", "count", "lower"),
    ("rational.positions", "count", "lower"),
    ("rational.live_ratio", "ratio", "higher"),
    ("registers.updates", "count", "lower"),
    ("registers.wide_nodes", "count", "lower"),
    ("registers.binary_nodes", "count", "lower"),
    ("logic.universe_in", "count", "lower"),
    ("logic.universe_out", "count", "lower"),
    ("logic.kept_ratio", "ratio", "higher"),
    ("fileio.bytes", "bytes", "lower"),
]

TRACE_METRICS = [
    # traced ÷ untraced ops_per_s
    ("trace.overhead_ratio", "ratio", "higher"),
    # share of traced op time inside no library span: benchmark glue and
    # the tracer itself
    ("trace.unattributed_ratio", "ratio", "lower"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for name in CALL_METRICS:
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.s", "s", "lower"),
                  (f"{name}.errors", "count", "lower")]
    specs += [(f"{name}.s", "s", "lower") for name in SECONDS_METRICS]
    return specs + COUNT_METRICS + TRACE_METRICS


def per_layer_values(summary: dict, aliases: dict, counts: dict,
                     trace: dict) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload does not run the layer."""
    def agg(span: str, key: str) -> float:
        return summary.get(aliases.get(span, span), {}).get(key, 0)

    out: dict[str, float] = {}
    for name, spans in CALL_METRICS.items():
        out[f"{name}.calls"] = sum(agg(s, "calls") for s in spans)
        out[f"{name}.s"] = sum(agg(s, "self_s") for s in spans)
        out[f"{name}.errors"] = sum(agg(s, "errors") for s in spans)
    for name in SECONDS_METRICS:
        out[f"{name}.s"] = agg(name, "self_s")
    for name, _, _ in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    for name, _, _ in TRACE_METRICS:
        out[name] = trace[name]
    return out
