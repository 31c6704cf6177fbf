"""Prover feedback: messages, error classes, check reports.

Error classification is driven by an ordered substring table shipped as
package data (data/error_patterns.json), so new prover phrasings can be
accommodated without touching code.  Messages that match no table row
fall back on their position: errors before the proof block are syntax
problems, anything else is unknown.
"""

import enum
import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..theory import TheoryDoc, proof_region


# The wall-clock budget of one prover check, in seconds.
CHECK_TIMEOUT_S = 65.0


class ProverError(Exception):
    """Base class for prover client failures."""


class Span(NamedTuple):
    line: int          # 1-based line in the rendered theory
    start_offset: int  # 1-based character offset, inclusive
    end_offset: int    # 1-based character offset, exclusive


SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class ProverMessage:
    severity: str
    text: str
    span: Optional[Span] = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError("bad severity: %r" % self.severity)
        if self.span is not None:
            object.__setattr__(self, "span", Span(*self.span))


class ErrorClass(enum.Enum):
    TYPE_UNIFICATION = "type_unification"
    OTHER_SYNTAX = "other_syntax"
    PROOF_FAILURE = "proof_failure"
    TIMEOUT = "timeout"
    UNKNOWN = "unknown"


SYNTAX_CLASSES = (ErrorClass.TYPE_UNIFICATION, ErrorClass.OTHER_SYNTAX)

STATUSES = ("valid", "failed", "timeout")


@dataclass(frozen=True)
class CheckReport:
    # Field order is the key order of a saved trace's report.
    status: str
    elapsed: float
    messages: Tuple[ProverMessage, ...]
    first_error: Optional[Tuple[ProverMessage, ErrorClass]] = None

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if self.status not in STATUSES:
            raise ValueError("bad status: %r" % self.status)
        has_error = any(m.severity == "error" for m in self.messages)
        if self.status == "valid" and has_error:
            raise ValueError("valid report may not carry error messages")
        if self.status == "failed" and not has_error:
            raise ValueError("failed report needs at least one error message")

    def errors(self) -> List[ProverMessage]:
        return [m for m in self.messages if m.severity == "error"]


@functools.cache
def load_error_patterns() -> List[Tuple[str, ErrorClass]]:
    """Ordered (substring, class) rows from the package data file, read
    once; every call returns the same list."""
    raw = resources.files("verifine").joinpath("data/error_patterns.json")
    table = json.loads(raw.read_text(encoding="utf-8"))
    return [
        (row["contains"].lower(), ErrorClass(row["class"])) for row in table["patterns"]
    ]


def classify_error(
    msg: ProverMessage, proof_lines: Optional[Tuple[int, int]] = None
) -> ErrorClass:
    """Classify one prover message.

    `proof_lines` is the 1-based (first, last) line range of the proof
    block when the theory has one; it only matters for messages whose
    text matches no table row.
    """
    text = msg.text.lower()
    for needle, cls in load_error_patterns():
        if needle in text:
            return cls
    if msg.span is not None:
        if proof_lines is None or msg.span.line < proof_lines[0]:
            return ErrorClass.OTHER_SYNTAX
    return ErrorClass.UNKNOWN


def pick_first_error(messages: Sequence[ProverMessage]) -> Optional[ProverMessage]:
    """The error with the smallest span start; spanless errors sort last."""
    errors = [m for m in messages if m.severity == "error"]
    if not errors:
        return None
    with_span = [m for m in errors if m.span is not None]
    if not with_span:
        return errors[0]
    return min(with_span, key=lambda m: (m.span.start_offset, m.span.line))


def build_report(
    status: str,
    messages: Sequence[ProverMessage],
    elapsed: float,
    doc: Optional[TheoryDoc] = None,
) -> CheckReport:
    """Assemble a CheckReport, computing first_error deterministically."""
    region = proof_region(doc) if doc is not None else None
    first = pick_first_error(messages)
    first_error = None
    if first is not None:
        first_error = (first, classify_error(first, region))
    return CheckReport(status, elapsed, tuple(messages), first_error)


def syntax_error_count(report: CheckReport, doc: TheoryDoc) -> int:
    """Number of error messages that classify as syntax problems."""
    region = proof_region(doc)
    return sum(
        1
        for m in report.errors()
        if classify_error(m, region) in SYNTAX_CLASSES
    )


def locate_failed_step(report: CheckReport, doc: TheoryDoc) -> Optional[int]:
    """Index of the proof step the first error struck.

    An error on the `proof -` opener counts as the first step.  None when
    the error carries no span, or its line is neither the opener nor a
    step line (which covers a theory without a proof).
    """
    if report.status == "valid":
        raise ValueError("cannot locate a failed step in a valid report")
    if report.first_error is None or report.first_error[0].span is None:
        return None
    region = proof_region(doc)
    if region is None:
        return None
    # Step lines follow the opener contiguously.
    offset = report.first_error[0].span.line - region[0]
    return max(offset - 1, 0) if 0 <= offset <= len(doc.proof) else None
