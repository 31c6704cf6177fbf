"""Source hygiene: every name the package imports is used, every
function and class it defines has a caller in the package or the
bench, every module it imports is its own or the standard library's,
the lower layers load without the gateway or the loop, the CLI loads
without the network stack, formula nodes keep what they derive in
slots, every package attribute the bench wraps still exists, a traced
bench run measures the prover, and a failing hypothesis test reports
its example."""

import ast
import collections.abc
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import verifine.logic as logic
import verifine.theory as theory

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")
PACKAGE_DIR = os.path.join(SRC_DIR, "verifine")
BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
BENCH_TESTS = os.path.join(BENCH_DIR, "tests")
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def _modules():
    for root, _, files in os.walk(PACKAGE_DIR):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                yield os.path.relpath(path, PACKAGE_DIR), path


def _names_in_annotation(node) -> set:
    # A quoted annotation ("TheoryDoc") names its types inside a string.
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """Names bound by an import and never referenced; `__all__` entries
    count as references, so a package's re-exports are exempt."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            used |= _names_in_annotation(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return sorted(
        "%s (line %d)" % (name, line)
        for name, line in imported.items()
        if name not in used
    )


def test_the_check_sees_an_unused_import():
    source = "from typing import List, Optional\nimport os\nx: List[int] = []\n"
    assert unused_imports(source) == ["Optional (line 1)", "os (line 2)"]


def test_quoted_annotations_and_all_count_as_uses():
    source = (
        "from .a import A, B\n"
        "def f() -> 'A':\n    pass\n"
        "__all__ = ['B']\n"
    )
    assert unused_imports(source) == []


MODULES = dict(_modules())


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_has_no_unused_imports(module):
    with open(MODULES[module], encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependency: every module it imports
    is in the standard library or in the package itself."""
    foreign = []
    for module, path in sorted(MODULES.items()):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "verifine" and top not in sys.stdlib_module_names:
                    foreign.append("%s: %s" % (module, name))
    assert foreign == []


def definitions(source: str) -> set:
    """Functions and classes a source file defines, at any depth, but for
    dunder names."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def uses(source: str) -> set:
    """Names a source file uses: as a name, an attribute, an imported
    name or an identifier string, as in `getattr(backend, "shared")`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def test_the_caller_check_sees_an_unused_definition():
    source = (
        "from .a import imported\n"
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def named(self): pass\n"
        "    def unused(self): pass\n"
        "def caller():\n"
        "    C().method()\n"
        "    return getattr(C, 'named')\n"
    )
    assert definitions(source) - uses(source) == {"unused", "caller"}


def _program_files():
    """The package's modules and the bench's, `bench/tests` left out."""
    for top in (PACKAGE_DIR, BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if os.path.join(root, d) != BENCH_TESTS]
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def test_every_package_definition_has_a_caller():
    """Nothing in the package serves only its tests: each function and
    class defined under src/verifine is used somewhere in the package or
    the bench."""
    defined, used = {}, set()
    for path in _program_files():
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        used |= uses(source)
        if path.startswith(PACKAGE_DIR):
            module = os.path.relpath(path, PACKAGE_DIR)
            defined.update((name, module) for name in definitions(source))
    assert sorted(
        "%s: %s" % (module, name) for name, module in defined.items() if name not in used
    ) == []


def test_bench_patch_points_exist(monkeypatch):
    """The bench's traced mode wraps package attributes by name, so a
    renamed or deleted one fails here too, not only in `bench/tests`."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing

    instrumentation = tracing.Instrumentation(tracing.Tracer())
    try:
        instrumentation.install()
    finally:
        instrumentation.uninstall()


def test_traced_bench_run_measures_the_oracle():
    """The traced pass runs its own batch, so the prover layer's numbers
    come from entailments that batch decides, not from verdicts an
    earlier batch on the same config left behind."""
    with subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", "replay_batch", "--seed", "3", "--seconds", "0.2",
         "--trace", "1", "--size", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        out, err = proc.communicate(timeout=120)
    # A traced run keeps its spans next to the bench, named by its pid.
    spans = os.path.join(
        BENCH_DIR, os.pardir, ".bench_runs", "replay_batch-s3-%d.spans.jsonl" % proc.pid
    )
    if os.path.exists(spans):
        os.remove(spans)
    assert proc.returncode == 0, out + err
    summary = json.loads(out.splitlines()[-1])
    assert summary["correct"]
    assert summary["metrics"]["prover.entails_calls"]["value"] > 0


def package_imports(source: str) -> set:
    """Modules of this package a source file imports, relative or not."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or ".")
            elif node.module and node.module.split(".")[0] == "verifine":
                found.add(node.module.partition(".")[2] or ".")
        elif isinstance(node, ast.Import):
            found |= {
                a.name.partition(".")[2] or "."
                for a in node.names
                if a.name.split(".")[0] == "verifine"
            }
    return found


def test_the_layering_check_sees_package_imports():
    source = "from .theory import x\nimport verifine.logic\nfrom . import pipeline\n"
    assert package_imports(source) == {"theory", "logic", "."}


def test_the_gateway_imports_only_stage_names_and_prompts():
    """The gateway parses no stage's output: every stage parser lives
    with its stage in the pipeline, so `llm` needs only these two."""
    with open(MODULES["llm.py"], encoding="utf-8") as fh:
        assert package_imports(fh.read()) <= {"llmtypes", "prompts"}


def trace_builds(source: str) -> list:
    """Lines of a source file that call `RefinementTrace(`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        == "RefinementTrace"
    ]


def test_the_trace_check_sees_a_build():
    source = (
        "t = RefinementTrace(a)\nu = pipeline.RefinementTrace(b)\n"
        "v = RefinementTrace\n"
    )
    assert trace_builds(source) == [1, 2]


def test_only_the_pipeline_ends_a_problem():
    """`run_refiner` turns every outcome of a problem, faults included,
    into its trace, so no other module builds one."""
    builders = {}
    for module, path in MODULES.items():
        with open(path, encoding="utf-8") as fh:
            lines = trace_builds(fh.read())
        if lines:
            builders[module] = lines
    assert list(builders) == ["pipeline.py"]


def loaded_in_a_fresh_interpreter(imports: str, names) -> list:
    """Which of `names` are in `sys.modules` after `imports` runs in a
    fresh interpreter, and were not before it."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "%s\n"
        "for name in %r:\n"
        "    if name in sys.modules and name not in before: print(name)\n"
    ) % (imports, tuple(names))
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_lower_layers_load_without_the_gateway_or_the_loop():
    """Importing the formula, theory and prover layers in a fresh
    interpreter loads neither `requests`, the LLM gateway nor the loop:
    the package has no facade that imports them all."""
    imports = "import verifine.logic, verifine.theory, verifine.prover"
    names = ("requests", "verifine.llm", "verifine.pipeline")
    assert loaded_in_a_fresh_interpreter(imports, names) == []


def test_the_cli_loads_no_network_stack():
    """Importing the CLI loads none of the HTTP transport's modules: the
    transport imports them on its first connection, so a replay, a
    scripted run or `verifine report` never does."""
    names = ("http.client", "ssl", "urllib.request", "email")
    assert loaded_in_a_fresh_interpreter("import verifine.cli", names) == []


def _nodes(f):
    yield f
    for field in dataclasses.fields(f):
        value = getattr(f, field.name)
        if isinstance(value, logic.Formula):
            yield from _nodes(value)


def _tables():
    return {
        (module.__name__, name): len(value)
        for module in (logic, theory)
        for name, value in vars(module).items()
        if not name.startswith("__")
        and isinstance(
            value,
            (
                collections.abc.MutableMapping,
                collections.abc.MutableSequence,
                collections.abc.MutableSet,
            ),
        )
    }


def test_formula_nodes_keep_their_values_in_slots():
    """Every formula node class is slotted, so no node has a `__dict__`
    once all its values are asked; and the values live on the nodes,
    not in the formula or theory module: no module-level container
    grows while they are worked out, and only the parse memoises a
    function in logic.py."""
    before = _tables()
    text = "∀x. ¬(P(x) ∧ Q(x, y)) ∨ (∃z. P(z) → R(z))"
    tree = logic._Parser(text, logic._CANONICAL).parse()
    nodes = list(_nodes(tree))
    classes = {
        cls
        for cls in vars(logic).values()
        if isinstance(cls, type) and issubclass(cls, logic.Formula)
    }
    assert {type(node) for node in nodes} == classes - {logic.Formula}
    for node in nodes:
        hash(node)
        logic.free_variables(node)
        logic.predicate_symbols(node)
        logic.has_quantifier(node)
        theory.isabelle_formula(node)
        assert not hasattr(node, "__dict__"), type(node).__name__
    assert _tables() == before
    memoised = [name for name, value in vars(logic).items() if hasattr(value, "cache_info")]
    assert memoised == ["parse_formula"]


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under the project's warning filters, a failing `@given` test ends
    as a plain failure with its falsifying example, not as an internal
    error of the run."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_negative(n):\n"
        "    assert n < 0\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
