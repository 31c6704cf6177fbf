"""Loading and converting entailment problems.

Two JSONL row shapes are understood, and one file may mix them:

* entailment rows: {"id", "premise" (nullable), "hypothesis",
  "explanation": [sentence, ...], "dataset"?}
* multiple-choice rows, any row with "question" or "options": {"id",
  "question", "options": [...], "answer_index", "explanation": [...],
  "dataset"?}

Multiple-choice rows are converted to entailment form by substituting
the correct option into the question: a blank marker gets the answer
spliced in, otherwise the first wh-word is replaced, otherwise the
answer is appended to the question stem.
"""

import json
import re
from typing import List, Sequence, Tuple

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


_WH_RE = re.compile(
    r"\b(what|which|who|whom|whose|where|when|why|how)\b", re.IGNORECASE
)
_BLANK_RE = re.compile(r"_{2,}")


def mcqa_hypothesis(question: str, answer: str) -> str:
    """The question of a multiple-choice item with its correct option
    substituted in, as an entailment hypothesis."""
    stem = question.strip().rstrip("?").rstrip()
    if _BLANK_RE.search(stem):
        hypothesis = _BLANK_RE.sub(answer, stem, count=1)
    else:
        match = _WH_RE.search(stem)
        if match:
            hypothesis = stem[: match.start()] + answer + stem[match.end():]
        else:
            hypothesis = "%s %s" % (stem, answer)
    return re.sub(r"\s+", " ", hypothesis).strip()


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


def _dataset(record: dict, line: int) -> str:
    if "dataset" not in record:
        return "default"
    value = _require(record, "dataset", str, line)
    if not value:
        raise SchemaError(line, "dataset", "must be non-empty when present")
    return value


def _row(record: dict, line: int) -> NLIProblem:
    """One problem from a record: a multiple-choice item if it has
    `question` or `options` (the hypothesis is the question with the
    correct option substituted in), else a premise/hypothesis pair."""
    problem_id = _require(record, "id", str, line)
    if not problem_id.strip():
        raise SchemaError(line, "id", "must be non-empty")
    if "question" in record or "options" in record:
        question = _require(record, "question", str, line)
        if not question.strip():
            raise SchemaError(line, "question", "must be non-empty")
        options = _require(record, "options", list, line)
        if not options or not all(isinstance(o, str) and o.strip() for o in options):
            raise SchemaError(line, "options", "must be a list of non-empty strings")
        answer_index = _require(record, "answer_index", int, line)
        if isinstance(answer_index, bool) or not 0 <= answer_index < len(options):
            raise SchemaError(line, "answer_index", "outside the options list")
        premise = None
        hypothesis = mcqa_hypothesis(question, options[answer_index].strip())
    else:
        premise = record.get("premise")
        if premise is not None and not isinstance(premise, str):
            raise SchemaError(line, "premise", "expected string or null")
        premise = premise.strip() if premise and premise.strip() else None
        hypothesis = _require(record, "hypothesis", str, line).strip()
        if not hypothesis:
            raise SchemaError(line, "hypothesis", "must be non-empty")
    return NLIProblem(
        id=problem_id,
        premise_text=premise,
        hypothesis_text=hypothesis,
        explanation=_number_facts(_explanation_list(record, line)),
        dataset=_dataset(record, line),
    )


def load_problems(path: str) -> List[NLIProblem]:
    """Read a JSONL file of problems, each row in either shape;
    multiple-choice rows are converted on the way in."""
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
            problem = _row(record, line_no)
            if problem.id in seen:
                raise DuplicateId(problem.id, line_no)
            seen[problem.id] = line_no
            problems.append(problem)
    return problems

