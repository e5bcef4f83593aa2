"""Summarize and diff slot-level JSONL traces (``repro trace``).

Turns a trace written by :class:`repro.obs.trace.TraceRecorder` into the
aggregate view an operator wants first: how many slots were recorded, where
the wall-time went per span, how far realized compound reward tracked its
expectation, assignment occupancy, and how the Lagrange multipliers moved.
Works on any record set satisfying ``repro.obs.trace.TRACE_SCHEMA`` —
including partial traces from a crashed run, which is precisely when the
summary matters most.

``repro trace --diff A B`` (:func:`diff_traces` / :func:`format_trace_diff`)
compares two traces slot by slot — the tool for hunting down where two runs
that should be bit-identical (different window sizes, worker counts,
shard counts) first part ways.  Records are aligned on ``t``;
non-timing fields are compared exactly (span timings are wall-clock noise
and never compared), and the report leads with the first divergent slot and
its field-level deltas.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.trace import iter_trace

__all__ = [
    "diff_trace_files",
    "diff_traces",
    "format_trace_diff",
    "format_trace_summary",
    "summarize_trace",
    "summarize_trace_file",
]

#: Trace fields compared by :func:`diff_traces` — every schema field except
#: ``t`` (the alignment key) and ``spans`` (nondeterministic wall-clock).
DIFF_FIELDS = (
    "policy",
    "assigned",
    "per_scn_assigned",
    "reward",
    "expected_reward",
    "violation_qos",
    "violation_resource",
    "multipliers_qos",
    "multipliers_resource",
)


def summarize_trace(records: Iterable[Mapping]) -> dict:
    """Aggregate statistics over trace records (streaming, O(1) memory)."""
    n = 0
    t_min = t_max = None
    policies: set[str] = set()
    reward_sum = 0.0
    expected_sum = 0.0
    expected_n = 0
    assigned_sum = 0
    viol_qos_sum = 0.0
    viol_res_sum = 0.0
    span_totals: dict[str, float] = {}
    span_counts: dict[str, int] = {}
    mult_qos_last: list[float] | None = None
    mult_res_last: list[float] | None = None

    for rec in records:
        n += 1
        t = rec["t"]
        t_min = t if t_min is None else min(t_min, t)
        t_max = t if t_max is None else max(t_max, t)
        policies.add(rec["policy"])
        reward_sum += rec["reward"]
        if rec.get("expected_reward") is not None:
            expected_sum += rec["expected_reward"]
            expected_n += 1
        assigned_sum += rec["assigned"]
        viol_qos_sum += rec["violation_qos"]
        viol_res_sum += rec["violation_resource"]
        for name, seconds in rec.get("spans", {}).items():
            span_totals[name] = span_totals.get(name, 0.0) + seconds
            span_counts[name] = span_counts.get(name, 0) + 1
        if rec.get("multipliers_qos") is not None:
            mult_qos_last = rec["multipliers_qos"]
        if rec.get("multipliers_resource") is not None:
            mult_res_last = rec["multipliers_resource"]

    spans = {
        name: {
            "total_s": total,
            "mean_us": 1e6 * total / span_counts[name],
            "count": span_counts[name],
        }
        for name, total in span_totals.items()
    }
    return {
        "records": n,
        "t_range": [t_min, t_max] if n else None,
        "policies": sorted(policies),
        "reward_sum": reward_sum,
        "expected_reward_sum": expected_sum if expected_n else None,
        "reward_vs_expected_gap": (reward_sum - expected_sum) if expected_n else None,
        "mean_assigned": assigned_sum / n if n else 0.0,
        "violation_qos_sum": viol_qos_sum,
        "violation_resource_sum": viol_res_sum,
        "spans": spans,
        "multipliers_qos_last": mult_qos_last,
        "multipliers_resource_last": mult_res_last,
    }


def summarize_trace_file(path: str | Path) -> dict:
    """Summarize a JSONL trace file without loading it whole into memory."""
    return summarize_trace(iter_trace(path))


def _values_equal(a, b) -> bool:
    """Exact equality with NaN == NaN (bit-identical trajectories may
    legitimately carry NaN, e.g. an unrecorded expected reward)."""
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    return a == b


def diff_traces(a_records: Iterable[Mapping], b_records: Iterable[Mapping]) -> dict:
    """Compare two traces slot by slot (aligned on ``t``).

    Returns a JSON-friendly report: slot counts, slots present in only one
    trace, the first divergent slot with its field deltas, and per-field
    counts of differing slots.  ``identical`` is True only when both traces
    cover the same slots and every compared field matches exactly
    (:data:`DIFF_FIELDS`; span timings are never compared).
    """
    a_by_t = {rec["t"]: rec for rec in a_records}
    b_by_t = {rec["t"]: rec for rec in b_records}
    common = sorted(a_by_t.keys() & b_by_t.keys())
    only_a = sorted(a_by_t.keys() - b_by_t.keys())
    only_b = sorted(b_by_t.keys() - a_by_t.keys())

    field_diff_slots: dict[str, int] = {}
    first_divergent_t: int | None = None
    first_deltas: dict[str, dict] | None = None
    for t in common:
        ra, rb = a_by_t[t], b_by_t[t]
        deltas: dict[str, dict] = {}
        for field in DIFF_FIELDS:
            va, vb = ra.get(field), rb.get(field)
            if _values_equal(va, vb):
                continue
            field_diff_slots[field] = field_diff_slots.get(field, 0) + 1
            entry: dict = {"a": va, "b": vb}
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                entry["delta"] = vb - va
            deltas[field] = entry
        if deltas and first_divergent_t is None:
            first_divergent_t = t
            first_deltas = deltas

    return {
        "slots_a": len(a_by_t),
        "slots_b": len(b_by_t),
        "slots_common": len(common),
        "only_in_a": only_a,
        "only_in_b": only_b,
        "first_divergent_t": first_divergent_t,
        "first_divergence": first_deltas,
        "field_diff_slots": field_diff_slots,
        "identical": not (only_a or only_b or field_diff_slots),
    }


def diff_trace_files(path_a: str | Path, path_b: str | Path) -> dict:
    """Diff two JSONL trace files (see :func:`diff_traces`)."""
    return diff_traces(iter_trace(path_a), iter_trace(path_b))


def _short(value, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def format_trace_diff(diff: Mapping, name_a: str = "A", name_b: str = "B") -> str:
    """Render a :func:`diff_traces` report as the terminal output."""
    lines = [
        f"trace diff: {name_a} ({diff['slots_a']} slots) vs "
        f"{name_b} ({diff['slots_b']} slots), {diff['slots_common']} common"
    ]
    for label, slots in (
        (f"only in {name_a}", diff["only_in_a"]),
        (f"only in {name_b}", diff["only_in_b"]),
    ):
        if slots:
            head = ", ".join(str(t) for t in slots[:8])
            more = f", ... (+{len(slots) - 8})" if len(slots) > 8 else ""
            lines.append(f"{label}: {len(slots)} slots [{head}{more}]")
    if diff["identical"]:
        lines.append("traces are identical on every compared field")
        return "\n".join(lines)
    if diff["first_divergent_t"] is not None:
        lines.append(f"first divergent slot: t={diff['first_divergent_t']}")
        for field, entry in diff["first_divergence"].items():
            delta = f"  (delta {entry['delta']:+g})" if "delta" in entry else ""
            lines.append(
                f"  {field}: {_short(entry['a'])} -> {_short(entry['b'])}{delta}"
            )
    if diff["field_diff_slots"]:
        lines.append(f"{'field':<22} {'differing slots':>16}")
        for field, count in sorted(
            diff["field_diff_slots"].items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"{field:<22} {count:>16d}")
    return "\n".join(lines)


def format_trace_summary(summary: Mapping) -> str:
    """Render a summary dict as the terminal report ``repro trace`` prints."""
    lines = []
    if not summary["records"]:
        return "empty trace (0 records)"
    lo, hi = summary["t_range"]
    lines.append(
        f"trace: {summary['records']} records over slots [{lo}, {hi}] "
        f"policies={','.join(summary['policies'])}"
    )
    lines.append(
        f"reward: realized {summary['reward_sum']:.2f}"
        + (
            f"  expected {summary['expected_reward_sum']:.2f}"
            f"  gap {summary['reward_vs_expected_gap']:+.2f}"
            if summary["expected_reward_sum"] is not None
            else "  (no expected series)"
        )
    )
    lines.append(
        f"violations: qos {summary['violation_qos_sum']:.2f}  "
        f"resource {summary['violation_resource_sum']:.2f}  "
        f"mean assigned/slot {summary['mean_assigned']:.1f}"
    )
    if summary["multipliers_qos_last"] is not None:
        mq = summary["multipliers_qos_last"]
        mr = summary["multipliers_resource_last"] or []
        lines.append(
            f"multipliers (final slot): qos mean {sum(mq) / len(mq):.4f}  "
            + (f"resource mean {sum(mr) / len(mr):.4f}" if mr else "")
        )
    if summary["spans"]:
        lines.append(f"{'span':<22} {'total':>10} {'mean':>10} {'count':>8}")
        for name in sorted(
            summary["spans"], key=lambda k: summary["spans"][k]["total_s"], reverse=True
        ):
            s = summary["spans"][name]
            lines.append(
                f"{name:<22} {s['total_s']:>9.3f}s {s['mean_us']:>8.1f}µs {s['count']:>8d}"
            )
    return "\n".join(lines)
