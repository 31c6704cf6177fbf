"""Aggregate refinement traces into run-level statistics.

A run report groups traces by dataset tag and, for each group plus an
overall row, tallies the outcome partition, validity rates before and
after refinement, a histogram of rounds needed by the problems that
refinement rescued, syntax-error totals from the repair sub-loop, and
paired series (suggested vs processed steps, steps vs solve time) for
downstream plotting.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .pipeline import RefinementTrace, to_json


@dataclass(frozen=True)
class DatasetStats:
    problems: int
    valid_initially: int
    refined_valid: int
    exhausted_invalid: int
    iteration_histogram: Mapping[int, int]
    iteration_records: int
    syntax_errors_before_total: int
    syntax_errors_after_total: int
    step_pairs: Tuple[Tuple[int, int], ...]
    time_by_steps: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "iteration_histogram", dict(self.iteration_histogram)
        )
        object.__setattr__(self, "step_pairs", tuple(self.step_pairs))
        object.__setattr__(self, "time_by_steps", tuple(self.time_by_steps))
        counted = self.valid_initially + self.refined_valid + self.exhausted_invalid
        if counted != self.problems:
            raise ValueError(
                "outcome counts (%d) do not partition %d problems"
                % (counted, self.problems)
            )

    @property
    def validity_rate_initial(self) -> float:
        return self.valid_initially / self.problems if self.problems else 0.0

    @property
    def validity_rate_final(self) -> float:
        if not self.problems:
            return 0.0
        return (self.valid_initially + self.refined_valid) / self.problems

    @property
    def mean_syntax_errors_before(self) -> float:
        if not self.iteration_records:
            return 0.0
        return self.syntax_errors_before_total / self.iteration_records

    @property
    def mean_syntax_errors_after(self) -> float:
        if not self.iteration_records:
            return 0.0
        return self.syntax_errors_after_total / self.iteration_records

    @property
    def syntax_reduction_pct(self) -> float:
        if not self.syntax_errors_before_total:
            return 0.0
        return (
            1.0 - self.syntax_errors_after_total / self.syntax_errors_before_total
        ) * 100.0


@dataclass(frozen=True)
class RunReport:
    overall: DatasetStats
    per_dataset: Mapping[str, DatasetStats] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_dataset", dict(self.per_dataset))


def _stats_for(traces: Sequence[RefinementTrace]) -> DatasetStats:
    counts = {"valid_initially": 0, "refined_valid": 0, "exhausted_invalid": 0}
    histogram: Dict[int, int] = {}
    records = 0
    before_total = 0
    after_total = 0
    step_pairs: List[Tuple[int, int]] = []
    time_by_steps: List[Tuple[int, float]] = []
    for trace in traces:
        counts[trace.final_status] += 1
        if trace.final_status == "refined_valid":
            histogram[trace.total_iterations] = (
                histogram.get(trace.total_iterations, 0) + 1
            )
        for record in trace.iterations:
            records += 1
            before_total += record.syntax_errors_before
            after_total += record.syntax_errors_after
            step_pairs.append(
                (record.proof_steps_suggested, record.proof_steps_processed)
            )
            if record.report.status == "valid":
                time_by_steps.append(
                    (record.proof_steps_processed, record.report.elapsed)
                )
    return DatasetStats(
        problems=len(traces),
        valid_initially=counts["valid_initially"],
        refined_valid=counts["refined_valid"],
        exhausted_invalid=counts["exhausted_invalid"],
        iteration_histogram=dict(sorted(histogram.items())),
        iteration_records=records,
        syntax_errors_before_total=before_total,
        syntax_errors_after_total=after_total,
        step_pairs=tuple(step_pairs),
        time_by_steps=tuple(time_by_steps),
    )


def aggregate(traces: Sequence[RefinementTrace]) -> RunReport:
    """Build the run report for a collection of traces."""
    groups: Dict[str, List[RefinementTrace]] = {}
    for trace in traces:
        groups.setdefault(trace.dataset, []).append(trace)
    per_dataset = {name: _stats_for(group) for name, group in sorted(groups.items())}
    return RunReport(overall=_stats_for(traces), per_dataset=per_dataset)


def _stats_row(name: str, stats: DatasetStats) -> List[str]:
    return [
        name,
        str(stats.problems),
        str(stats.valid_initially),
        str(stats.refined_valid),
        str(stats.exhausted_invalid),
        "%.2f" % (stats.validity_rate_initial * 100.0),
        "%.2f" % (stats.validity_rate_final * 100.0),
        "%.2f" % stats.mean_syntax_errors_before,
        "%.2f" % stats.mean_syntax_errors_after,
        "%.2f" % stats.syntax_reduction_pct,
    ]


_HEADER = [
    "dataset",
    "problems",
    "valid_initially",
    "refined_valid",
    "exhausted_invalid",
    "validity_initial_pct",
    "validity_final_pct",
    "syntax_before_mean",
    "syntax_after_mean",
    "syntax_reduction_pct",
]


def render_text(report: RunReport) -> str:
    """Fixed-width summary table plus the refinement-round histogram."""
    rows = [_HEADER]
    for name, stats in report.per_dataset.items():
        rows.append(_stats_row(name, stats))
    rows.append(_stats_row("overall", report.overall))
    widths = [max(len(row[i]) for row in rows) for i in range(len(_HEADER))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    lines.append("")
    lines.append("rounds needed when refinement succeeded:")
    histogram = report.overall.iteration_histogram
    if histogram:
        for rounds, count in histogram.items():
            lines.append("  %2d: %s" % (rounds, "#" * count))
    else:
        lines.append("  (none)")
    return "\n".join(lines) + "\n"


def render_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_HEADER)
    for name, stats in report.per_dataset.items():
        writer.writerow(_stats_row(name, stats))
    writer.writerow(_stats_row("overall", report.overall))
    return buf.getvalue()


def _stats_to_dict(stats: DatasetStats) -> dict:
    data = to_json(stats)
    # The derived rates (every property) are written beside the fields.
    for name, attr in vars(DatasetStats).items():
        if isinstance(attr, property):
            data[name] = getattr(stats, name)
    return data


def report_to_dict(report: RunReport) -> dict:
    return {
        "overall": _stats_to_dict(report.overall),
        "per_dataset": {
            name: _stats_to_dict(stats) for name, stats in report.per_dataset.items()
        },
    }


def render_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
