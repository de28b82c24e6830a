"""Declared metrics, and the per-layer metrics computed from a traced pass.

The layers are the package modules ``groups``, ``actions``, ``intlin``,
``microstates`` and ``measures`` (``errors`` does no work).  Annotators attach
work counts to spans (points counted, candidates tested, table bytes) so that
ratios are measured where the work happens.
"""

from __future__ import annotations

from .recorder import Recorder
from .workloads import LAYERS, REACH_FAMILIES

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("intlin.det_bareiss.s", "s"),
    ("intlin.det_bareiss.calls", "count"),
    ("intlin.smith_normal_form.s", "s"),
    ("intlin.smith_normal_form.calls", "count"),
    ("intlin.smith_normal_form.max_entry_bits", "bits"),
    ("intlin.kernel_count_mod.s", "s"),
    ("actions.count_kernel_points.self_s", "s"),
    ("actions.grid_tolerance.us_per_point", "us"),
    ("groups.quotient_sofic.s", "s"),
    ("groups.quotient_sofic.us_per_entry", "us"),
    ("groups.perturb.s", "s"),
    ("groups.sofic_defects.s", "s"),
    ("actions.instantiate_Xf.s", "s"),
    ("actions.sigma_matrix.us_per_row", "us"),
    ("actions.dual_model.s", "s"),
    ("actions.dual_model.self_s", "s"),
    ("actions.verify_hypotheses.s", "s"),
    ("actions.product_model.s", "s"),
    ("actions.diagonal_action.s", "s"),
    ("microstates.doubled_metric.s", "s"),
    ("microstates.doubled_metric.table_mb", "MB"),
    ("microstates.top_microstate_mask.us_per_candidate", "us"),
    ("microstates.meas_microstate_mask.us_per_candidate", "us"),
    ("microstates.enumerate.brute.us_per_candidate", "us"),
    ("microstates.enumerate.equivariant.s", "s"),
    ("microstates.enumerate.equivariant.solutions", "count"),
    ("microstates.sample_microstates.s", "s"),
    ("microstates.sample_microstates.yield", "ratio"),
    ("measures.convolve.s", "s"),
    ("measures.doubled.s", "s"),
    ("measures.marginal.s", "s"),
    ("measures.exact_support.s", "s"),
    ("measures.exact_support.atoms", "count"),
    ("measures.mass.s", "s"),
    ("measures.mass.exact_frac", "ratio"),
    ("measures.sample.us_per_candidate", "us"),
    *((f"{m}.failed", "count") for m in LAYERS),
    *((f"reach_d.{mode}", "d") for mode in REACH_FAMILIES),
    ("trace.overhead_s", "s"),
)


def extra_targets(sl) -> dict[str, tuple[object, str]]:
    """Methods traced besides the modules' public functions."""
    return {"measures.SiteMeasure.convolve": (sl.measures.SiteMeasure, "convolve")}


def _smith_bits(span, args, out, children):
    _, u, v = out
    span.info["bits"] = max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)


def _count_points(span, args, out, children):
    if args["mode"] == "grid-tolerance":
        span.info["points"] = out


def _enumerate_path(span, args, out, children):
    # the brute-force path tests candidates with top_microstate_mask; the
    # equivariant solver does not
    if "microstates.top_microstate_mask" in children:
        span.info["brute_candidates"] = args["model"].n_points ** args["sigma"].d
    else:
        span.info["solutions"] = out.shape[0]


ANNOTATORS = {
    "intlin.smith_normal_form": _smith_bits,
    "actions.count_kernel_points": _count_points,
    "groups.quotient_sofic": lambda s, a, out, c: s.info.update(entries=out.d * len(out.table)),
    "actions.sigma_matrix": lambda s, a, out, c: s.info.update(rows=out.shape[0]),
    "microstates.doubled_metric": lambda s, a, out, c: s.info.update(
        mb=out.table_num.nbytes / 1e6 if out.table_num is not None else 0.0
    ),
    "microstates.top_microstate_mask": lambda s, a, out, c: s.info.update(candidates=a["xs"].shape[0]),
    "microstates.meas_microstate_mask": lambda s, a, out, c: s.info.update(candidates=a["xs"].shape[0]),
    "microstates.enumerate_top_microstates": _enumerate_path,
    "microstates.sample_microstates": lambda s, a, out, c: s.info.update(
        requested=a["n_samples"], found=out.shape[0]
    ),
    "measures.exact_support": lambda s, a, out, c: s.info.update(
        atoms=out.points.shape[0] if out is not None else 0
    ),
    "measures.mass": lambda s, a, out, c: s.info.update(exact=int(out.n_samples is None)),
    "measures.sample": lambda s, a, out, c: s.info.update(candidates=a["k"]),
}


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(spans, failures: list[tuple[str, str]]) -> dict[str, float]:
    """Per-layer values of one traced pass.  A rate whose layer did no work in
    the pass is 0."""
    rec = Recorder()
    rec.spans = spans
    us = 1e6

    def spans_with(name, key):
        return [s for s in rec.outermost(name) if key in s.info]

    grid = spans_with("actions.count_kernel_points", "points")
    brute = spans_with("microstates.enumerate_top_microstates", "brute_candidates")
    equiv = spans_with("microstates.enumerate_top_microstates", "solutions")
    mass_calls = rec.outermost("measures.mass")
    out = {
        "intlin.det_bareiss.s": rec.total_s("intlin.det_bareiss"),
        "intlin.det_bareiss.calls": rec.calls("intlin.det_bareiss"),
        "intlin.smith_normal_form.s": rec.total_s("intlin.smith_normal_form"),
        "intlin.smith_normal_form.calls": rec.calls("intlin.smith_normal_form"),
        "intlin.smith_normal_form.max_entry_bits": rec.info_max("intlin.smith_normal_form", "bits"),
        "intlin.kernel_count_mod.s": rec.total_s("intlin.kernel_count_mod"),
        "actions.count_kernel_points.self_s": rec.self_s("actions.count_kernel_points"),
        "actions.grid_tolerance.us_per_point": _per(
            sum(s.duration for s in grid), sum(s.info["points"] for s in grid), us
        ),
        "groups.quotient_sofic.s": rec.total_s("groups.quotient_sofic"),
        "groups.quotient_sofic.us_per_entry": _per(
            rec.total_s("groups.quotient_sofic"), rec.info_sum("groups.quotient_sofic", "entries"), us
        ),
        "groups.perturb.s": rec.total_s("groups.perturb"),
        "groups.sofic_defects.s": rec.total_s("groups.sofic_defects"),
        "actions.instantiate_Xf.s": rec.total_s("actions.instantiate_Xf"),
        "actions.sigma_matrix.us_per_row": _per(
            rec.total_s("actions.sigma_matrix"), rec.info_sum("actions.sigma_matrix", "rows"), us
        ),
        "actions.dual_model.s": rec.total_s("actions.dual_model"),
        "actions.dual_model.self_s": rec.self_s("actions.dual_model"),
        "actions.verify_hypotheses.s": rec.total_s("actions.verify_hypotheses"),
        "actions.product_model.s": rec.total_s("actions.product_model"),
        "actions.diagonal_action.s": rec.total_s("actions.diagonal_action"),
        "microstates.doubled_metric.s": rec.total_s("microstates.doubled_metric"),
        "microstates.doubled_metric.table_mb": rec.info_max("microstates.doubled_metric", "mb"),
        "microstates.top_microstate_mask.us_per_candidate": _per(
            rec.total_s("microstates.top_microstate_mask"),
            rec.info_sum("microstates.top_microstate_mask", "candidates"),
            us,
        ),
        "microstates.meas_microstate_mask.us_per_candidate": _per(
            rec.total_s("microstates.meas_microstate_mask"),
            rec.info_sum("microstates.meas_microstate_mask", "candidates"),
            us,
        ),
        "microstates.enumerate.brute.us_per_candidate": _per(
            sum(s.duration for s in brute), sum(s.info["brute_candidates"] for s in brute), us
        ),
        "microstates.enumerate.equivariant.s": sum(s.duration for s in equiv),
        "microstates.enumerate.equivariant.solutions": sum(s.info["solutions"] for s in equiv),
        "microstates.sample_microstates.s": rec.total_s("microstates.sample_microstates"),
        "microstates.sample_microstates.yield": _per(
            rec.info_sum("microstates.sample_microstates", "found"),
            rec.info_sum("microstates.sample_microstates", "requested"),
        ),
        "measures.convolve.s": rec.total_s("measures.convolve", "measures.SiteMeasure.convolve"),
        "measures.doubled.s": rec.total_s("measures.doubled"),
        "measures.marginal.s": rec.total_s("measures.marginal"),
        "measures.exact_support.s": rec.total_s("measures.exact_support"),
        "measures.exact_support.atoms": rec.info_sum("measures.exact_support", "atoms"),
        "measures.mass.s": rec.total_s("measures.mass"),
        "measures.mass.exact_frac": _per(sum(s.info["exact"] for s in mass_calls), len(mass_calls)),
        "measures.sample.us_per_candidate": _per(
            rec.total_s("measures.sample"), rec.info_sum("measures.sample", "candidates"), us
        ),
    }
    for m in LAYERS:
        out[f"{m}.failed"] = sum(1 for module, _ in failures if module == m)
    return out
