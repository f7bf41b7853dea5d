"""Checks over the package source itself.

A check that guards a budget or an answer must still run under `python -O`,
which strips `assert` statements, and must not read as a failed test: so the
package raises neither through `assert` nor as `AssertionError`.

The benchmark's tracer wraps package functions by name, and a name it cannot
find fails only a traced run; so every traced name must still resolve, and
the strength ladder's record must keep H where the tracer reads it. The
benchmark keeps the `info` keys it names in `HONESTY_KEYS` and silently
drops a missing one, so every such key must still be written by some
pipeline. A stale `__all__` entry fails only a star import, so every
exported name must resolve too.

Every tuning constant and `Tuning` method in `params.py` must still be read
by the package, and so must every private module-level function and class,
so one left behind by deleted code fails here.

v1, v2 and st start from one shared front, `discovery.front`, and every
route ends in one shared finish, `discovery.finish`. Forests are reached
only through those two, so a pipeline module that runs the degree pass,
the forest entry or the forest loop itself has grown an inline front or
finish again.
"""

import ast
import importlib
import types
from fractions import Fraction
from pathlib import Path

from cutquery import (
    CutOracle,
    WeightedGraph,
    approximate_strengths,
    global_min_cut_v1,
    global_min_cut_v2,
    make_rng,
    planted_cut_sides,
    st_min_cut,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cutquery"
SPANS = ROOT / "perfbench" / "spans.py"
SOLVE_INSTANCE = ROOT / "perfbench" / "solve_instance.py"
PARAMS = SRC / "params.py"


def assertion_sites(source: str) -> list[tuple[int, str]]:
    """(line, kind) of every `assert` and every `raise AssertionError`."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            sites.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                sites.append((node.lineno, "raise AssertionError"))
    return sorted(sites)


def test_assertion_sites_finds_every_form():
    source = "assert x\nraise AssertionError('y')\nraise AssertionError\nraise ValueError\n"
    assert assertion_sites(source) == [
        (1, "assert"),
        (2, "raise AssertionError"),
        (3, "raise AssertionError"),
    ]


def test_package_source_holds_no_assertion():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{line}: {kind}"
        for path in files
        for line, kind in assertion_sites(path.read_text())
    ]
    assert found == []


def assigned_value(source: str, name: str) -> ast.expr:
    """The expression the source first assigns to `name`; the source is
    parsed, never run."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
        ):
            return node.value
    raise LookupError(f"no {name} assignment")


def traced_spans(source: str) -> list[str]:
    """The `module.[Class.]function` names that open `LAYER_STATS`' rows."""
    return [row.elts[0].value for row in assigned_value(source, "LAYER_STATS").elts]


def test_traced_spans_resolve_in_the_package():
    spans = traced_spans(SPANS.read_text())
    assert "global_mincut.contract_safe" in spans
    missing = []
    for span in spans:
        module_name, *owner, func = span.split(".")
        home = importlib.import_module(f"cutquery.{module_name}")
        if owner:
            found = func in vars(getattr(home, owner[0], object))
        else:
            found = callable(getattr(home, func, None))
        if not found:
            missing.append(span)
    assert missing == []


def test_the_ladder_returns_h_at_index_one():
    # the tracer's `approximate_strengths` hook reads H's edge count off the
    # ladder's return value as `result[1].m`
    reads = [
        node
        for node in ast.walk(ast.parse(SPANS.read_text()))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "result"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 1
    ]
    assert reads
    g, _ = planted_cut_sides(24, 2, 0.6, make_rng(0, "ladder"))
    result = approximate_strengths(CutOracle(g), Fraction(1, 4), make_rng(0, "ladder", "h"))
    assert isinstance(result[1], WeightedGraph) and result[1] is result.h


def test_every_bench_honesty_key_is_written():
    keys = ast.literal_eval(assigned_value(SOLVE_INSTANCE.read_text(), "HONESTY_KEYS"))
    assert "degraded" in keys
    g, side = planted_cut_sides(24, 2, 0.6, make_rng(0, "honesty"))
    s, t = min(side), min(set(range(g.n)) - side)
    written: set[str] = set()
    for name, solve in (
        ("v1", lambda rng, info: global_min_cut_v1(CutOracle(g), rng=rng, info=info)),
        ("v2", lambda rng, info: global_min_cut_v2(CutOracle(g), rng=rng, info=info)),
        ("st", lambda rng, info: st_min_cut(CutOracle(g), s, t, rng, info=info)),
    ):
        info: dict = {}
        solve(make_rng(0, "honesty", name), info)
        written |= set(info)
    assert sorted(set(keys) - written) == []


def unresolved_exports(module: types.ModuleType) -> list[str]:
    """Names in the module's `__all__` that the module does not define."""
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


def test_unresolved_exports_finds_stale_entries():
    module = types.ModuleType("fake")
    exec("def kept():\n    return 0\n__all__ = ['kept', 'deleted']\n", vars(module))
    assert unresolved_exports(module) == ["deleted"]


def test_every_exported_name_resolves():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    missing = []
    for path in files:
        name = "cutquery" if path.stem == "__init__" else f"cutquery.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in unresolved_exports(module)]
    assert missing == []


def loaded_names(source: str | ast.AST) -> set[str]:
    """Every name the source, or an already parsed node, reads, bare or as
    an attribute."""
    tree = ast.parse(source) if isinstance(source, str) else source
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unused_params_names(params_source: str, other_sources: list[str]) -> list[str]:
    """Public module-level constants of `params_source` that no source reads,
    then public `Tuning` methods that no other source reads. A constant
    counts as read when a `Tuning` method reads it, since that is where the
    budget formulas live."""
    outside: set[str] = set().union(*map(loaded_names, other_sources))
    anywhere = outside | loaded_names(params_source)
    constants, methods = [], []
    for node in ast.parse(params_source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            constants += [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.ClassDef) and node.name == "Tuning":
            methods += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [c for c in constants if not c.startswith("_") and c not in anywhere] + [
        m for m in methods if not m.startswith("_") and m not in outside
    ]


def test_unused_params_names_finds_dead_constants_and_methods():
    params = (
        "A = 1\nB: int = 2\nC = 3\n_D = 4\n"
        "class Tuning:\n"
        "    def used(self):\n        return C\n"
        "    def dead(self):\n        return 0\n"
        "    def _private(self):\n        return 0\n"
    )
    others = ["from .params import A\nx = A + t.used()\n", "B = 5\n"]
    assert unused_params_names(params, others) == ["B", "dead"]


def test_params_holds_nothing_the_package_leaves_unread():
    others = [p.read_text() for p in sorted(SRC.glob("*.py")) if p != PARAMS]
    assert others, SRC
    assert unused_params_names(PARAMS.read_text(), others) == []


def orphaned_private_names(sources: list[str]) -> list[str]:
    """`_`-prefixed module-level functions and classes that no source reads
    outside their own definition, so a helper that only calls itself, or a
    class that only names itself, still counts as unread."""
    statements = [node for source in sources for node in ast.parse(source).body]
    reads = [(node, loaded_names(node)) for node in statements]
    private = [
        node
        for node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    return [
        d.name
        for d in private
        if not any(d.name in names for node, names in reads if node is not d)
    ]


def test_orphaned_private_names_finds_dead_helpers():
    sources = [
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Dead:\n    def copy(self):\n        return _Dead()\n"
        "def public():\n    return _used() + helpers._shared()\n",
        "class _Abort(Exception):\n    pass\n"
        "try:\n    pass\nexcept _Abort:\n    pass\n"
        "def _shared():\n    return 0\n"
        "def _imported_only():\n    return 0\n",
        "from .helpers import _imported_only\n",
    ]
    assert orphaned_private_names(sources) == ["_recursive", "_Dead", "_imported_only"]


def test_package_source_reads_every_private_helper():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert sources, SRC
    assert orphaned_private_names(sources) == []


def called_names(source: str) -> set[str]:
    """Every function name the source calls, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                out.add(node.func.attr)
    return out


def test_called_names_finds_bare_and_attribute_calls():
    source = "a()\nm.b(c)\nd = e\nf(g())\n"
    assert called_names(source) == {"a", "b", "f", "g"}


PIPELINES = {
    "global_mincut.py": ("global_min_cut_v1", "global_min_cut_v2"),
    "st_mincut.py": ("st_min_cut",),
}


def test_pipelines_start_only_from_the_shared_front():
    inline = {
        f"{name}: {called}"
        for name in PIPELINES
        for called in called_names((SRC / name).read_text())
        & {"singleton_state", "forests_first", "forest_cut"}
    }
    assert inline == set()


def final_calls(source: str) -> dict[str, str | None]:
    """For each module-level function of the source, the function its last
    statement returns the call of, or None when it ends otherwise."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            last = node.body[-1]
            call = last.value if isinstance(last, ast.Return) else None
            func = call.func if isinstance(call, ast.Call) else None
            out[node.name] = getattr(func, "id", getattr(func, "attr", None))
    return out


def test_final_calls_names_what_each_function_returns_last():
    source = (
        "def a():\n    return f(1)\n"
        "def b():\n    return m.g()\n"
        "def c():\n    return x\n"
        "def d():\n    h()\n"
    )
    assert final_calls(source) == {"a": "f", "b": "g", "c": None, "d": None}


def test_pipelines_end_in_the_shared_finish():
    ends = {
        func: final_calls((SRC / name).read_text())[func]
        for name, funcs in PIPELINES.items()
        for func in funcs
    }
    assert ends == dict.fromkeys(ends, "finish")
