"""Loading and converting entailment problems.

Two JSONL input shapes are understood:

* entailment rows: {"id", "premise" (nullable), "hypothesis",
  "explanation": [sentence, ...], "dataset"?}
* multiple-choice rows: {"id", "question", "options": [...],
  "answer_index", "explanation": [...], "dataset"?}

Multiple-choice rows are converted to entailment form by substituting
the correct option into the question: a blank marker gets the answer
spliced in, otherwise the first wh-word is replaced, otherwise the
answer is appended to the question stem.
"""

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Sequence, Tuple

from .pipeline import Fact, NLIProblem


class DatasetError(Exception):
    """Base class for dataset loading failures."""


class SchemaError(DatasetError):
    """A record is missing a field or holds the wrong type."""

    def __init__(self, line: int, fld: str, detail: str):
        self.line = line
        self.field = fld
        self.detail = detail
        super().__init__("line %d, field %r: %s" % (line, fld, detail))


class DuplicateId(DatasetError):
    def __init__(self, problem_id: str, line: int):
        self.problem_id = problem_id
        self.line = line
        super().__init__("duplicate problem id %r at line %d" % (problem_id, line))


@dataclass(frozen=True)
class MCQAItem:
    id: str
    question: str
    options: Tuple[str, ...]
    answer_index: int
    explanation: Tuple[str, ...]
    annotations: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "explanation", tuple(self.explanation))
        object.__setattr__(self, "annotations", dict(self.annotations))
        if not 0 <= self.answer_index < len(self.options):
            raise ValueError(
                "answer_index %d outside options (%d given)"
                % (self.answer_index, len(self.options))
            )


_WH_RE = re.compile(
    r"\b(what|which|who|whom|whose|where|when|why|how)\b", re.IGNORECASE
)
_BLANK_RE = re.compile(r"_{2,}")


def mcqa_to_nli(item: MCQAItem) -> NLIProblem:
    """Turn a multiple-choice item into an entailment problem.

    The hypothesis is the question with the correct option substituted
    in; there is no premise.  The explanation sentences carry over with
    fresh positional ids.
    """
    answer = item.options[item.answer_index].strip()
    stem = item.question.strip().rstrip("?").rstrip()
    if _BLANK_RE.search(stem):
        hypothesis = _BLANK_RE.sub(answer, stem, count=1)
    else:
        match = _WH_RE.search(stem)
        if match:
            hypothesis = stem[: match.start()] + answer + stem[match.end():]
        else:
            hypothesis = "%s %s" % (stem, answer)
    hypothesis = re.sub(r"\s+", " ", hypothesis).strip()
    return NLIProblem(
        id=item.id,
        premise_text=None,
        hypothesis_text=hypothesis,
        explanation=_number_facts(item.explanation),
        source="mcqa",
        annotations=item.annotations,
    )


def _number_facts(sentences: Sequence[str]) -> Tuple[Fact, ...]:
    return tuple(Fact("f%d" % (i + 1), s) for i, s in enumerate(sentences))


def _require(record: dict, fld: str, kind, line: int):
    if fld not in record:
        raise SchemaError(line, fld, "missing")
    value = record[fld]
    if not isinstance(value, kind):
        raise SchemaError(
            line, fld, "expected %s, got %s" % (kind.__name__, type(value).__name__)
        )
    return value


def _explanation_list(record: dict, line: int) -> List[str]:
    raw = _require(record, "explanation", list, line)
    sentences = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, str) or not entry.strip():
            raise SchemaError(
                line, "explanation", "entry %d must be a non-empty string" % i
            )
        sentences.append(entry.strip())
    return sentences


def _annotations(record: dict, line: int) -> dict:
    notes = {}
    if "dataset" in record:
        value = _require(record, "dataset", str, line)
        if not value:
            raise SchemaError(line, "dataset", "must be non-empty when present")
        notes["dataset"] = value
    return notes


def _entailment_row(record: dict, line: int) -> NLIProblem:
    problem_id = _require(record, "id", str, line)
    if not problem_id:
        raise SchemaError(line, "id", "must be non-empty")
    premise = record.get("premise")
    if premise is not None and not isinstance(premise, str):
        raise SchemaError(line, "premise", "expected string or null")
    hypothesis = _require(record, "hypothesis", str, line)
    if not hypothesis.strip():
        raise SchemaError(line, "hypothesis", "must be non-empty")
    return NLIProblem(
        id=problem_id,
        premise_text=premise.strip() if premise and premise.strip() else None,
        hypothesis_text=hypothesis.strip(),
        explanation=_number_facts(_explanation_list(record, line)),
        source="entailment",
        annotations=_annotations(record, line),
    )


def _mcqa_row(record: dict, line: int) -> MCQAItem:
    problem_id = _require(record, "id", str, line)
    if not problem_id:
        raise SchemaError(line, "id", "must be non-empty")
    question = _require(record, "question", str, line)
    if not question.strip():
        raise SchemaError(line, "question", "must be non-empty")
    options = _require(record, "options", list, line)
    if not options or not all(isinstance(o, str) and o.strip() for o in options):
        raise SchemaError(line, "options", "must be a list of non-empty strings")
    answer_index = _require(record, "answer_index", int, line)
    if isinstance(answer_index, bool) or not 0 <= answer_index < len(options):
        raise SchemaError(line, "answer_index", "outside the options list")
    return MCQAItem(
        id=problem_id,
        question=question.strip(),
        options=tuple(o.strip() for o in options),
        answer_index=answer_index,
        explanation=tuple(_explanation_list(record, line)),
        annotations=_annotations(record, line),
    )


def _detect_format(record: dict) -> str:
    if "question" in record or "options" in record:
        return "mcqa"
    return "entailment"


def load_problems(path: str, fmt: str = "auto") -> List[NLIProblem]:
    """Read a JSONL file of problems.

    `fmt` is "entailment", "mcqa", or "auto" (per-record detection).
    Multiple-choice rows are converted on the way in.
    """
    if fmt not in ("auto", "entailment", "mcqa"):
        raise ValueError("unknown format %r" % fmt)
    problems: List[NLIProblem] = []
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SchemaError(line_no, "-", "not valid JSON: %s" % exc)
            if not isinstance(record, dict):
                raise SchemaError(line_no, "-", "record must be an object")
            kind = _detect_format(record) if fmt == "auto" else fmt
            if kind == "mcqa":
                problem = mcqa_to_nli(_mcqa_row(record, line_no))
            else:
                problem = _entailment_row(record, line_no)
            if problem.id in seen:
                raise DuplicateId(problem.id, line_no)
            seen[problem.id] = line_no
            problems.append(problem)
    return problems


def save_problems(problems: Iterable[NLIProblem], path: str) -> None:
    """Write problems as canonical entailment JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for problem in problems:
            record = {
                "id": problem.id,
                "premise": problem.premise_text,
                "hypothesis": problem.hypothesis_text,
                "explanation": [f.text for f in problem.explanation],
            }
            if "dataset" in problem.annotations:
                record["dataset"] = problem.annotations["dataset"]
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
