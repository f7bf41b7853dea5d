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

v1 and v2 start from one shared front, `discovery.front`, and every route
of theirs ends in one shared finish, `discovery.finish`. Forests are
reached only through those two, so a global pipeline that runs the degree
pass, the forest entry or the forest loop itself has grown an inline front
or finish again. st proves its cut by augmenting paths,
`discovery.flow_cut`, and reaches forests nowhere; flow_cut's own checks
raise, so they hold under `python -O` too. A global solve's upper bound U
is the oracle's cheapest answer, `CutOracle.cheapest`, so no other module
writes it or keeps a tracker of its own. Every walk takes its candidates as
a vertex mask and returns a vertex, so no module builds a list of
singleton parts from a mask.

Importing the package, and every pipeline the benchmark runs, loads
neither numpy nor OpenSSL's hashlib: numpy is imported inside the sweeps
that use it, and seeds hash with the builtin blake2b. A module that
imports either at load time fails a source check, and a fresh interpreter
shows what a solve actually loads.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

from cutquery import (
    CutOracle,
    WeightedGraph,
    approximate_strengths,
    derive_seed,
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


GLOBAL_PIPELINES = ("global_min_cut_v1", "global_min_cut_v2")
FORESTS = {"front", "finish", "forests_first", "forest_cut", "spanning_forest"}


def test_pipelines_start_only_from_the_shared_front():
    called = called_names((SRC / "global_mincut.py").read_text())
    assert called & {"singleton_state", "forests_first", "forest_cut"} == set()
    assert {"front", "finish"} <= called


def test_st_reaches_forests_nowhere():
    source = (SRC / "st_mincut.py").read_text()
    assert called_names(source) & FORESTS == set()
    assert "flow_cut" in called_names(source)
    assert loaded_names(source) & FORESTS == set()


def test_flow_cut_checks_by_raising():
    # flow_cut and its search side hold no assertion, and do check: each
    # check raises RuntimeError or ValueError
    tree = ast.parse((SRC / "discovery.py").read_text())
    bodies = [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("flow_cut", "_Side", "_trie_walk")
    ]
    assert len(bodies) == 3
    source = "\n".join(ast.unparse(node) for node in bodies)
    assert assertion_sites(source) == []
    raised = {
        node.exc.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
    }
    assert raised == {"RuntimeError", "ValueError"}


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
    ends = final_calls((SRC / "global_mincut.py").read_text())
    assert {func: ends[func] for func in GLOBAL_PIPELINES} == dict.fromkeys(
        GLOBAL_PIPELINES, "finish"
    )


HEAVY_MODULES = {"numpy", "hashlib"}


def eager_heavy_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every numpy or hashlib import that runs when the
    source is imported: anywhere outside a function body, except under
    `if TYPE_CHECKING:`."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend((node.lineno, n) for n in names if n.split(".")[0] in HEAVY_MODULES)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            children = node.orelse
        else:
            children = list(ast.iter_child_nodes(node))
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return found


def test_eager_heavy_imports_skips_function_bodies_and_guards():
    source = (
        "import numpy as np\n"
        "import os, hashlib\n"
        "from numpy.random import default_rng\n"
        "from .numpy import x\n"
        "if TYPE_CHECKING:\n    import numpy\nelse:\n    import hashlib\n"
        "class C:\n    import numpy\n"
        "def f():\n    import numpy\n"
    )
    assert eager_heavy_imports(source) == [
        (1, "numpy"),
        (2, "hashlib"),
        (3, "numpy.random"),
        (8, "hashlib"),
        (10, "numpy"),
    ]


def test_no_module_imports_numpy_or_hashlib_when_it_loads():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{line}: {module}"
        for path in files
        for line, module in eager_heavy_imports(path.read_text())
    ]
    assert found == []


# Runs in a fresh interpreter, so nothing the test session imported counts;
# prints, after each step, which of the heavy modules are loaded.
LOADED_PROBE = """
import json, sys
from fractions import Fraction

def loaded():
    return [m for m in ("numpy", "hashlib", "_hashlib") if m in sys.modules]

steps = {}
import cutquery as cq
steps["import"] = loaded()
# v1 runs its flows and v2 builds H here (n = 96, delta = 17, lambda = 3)
g, side = cq.planted_cut_sides(96, 3, 0.5, cq.make_rng(1, "lazy"))
s, t = min(side), min(set(range(96)) - side)
bench = cq.Tuning(scale=2e-4)
cq.global_min_cut_v1(cq.CutOracle(g), Fraction(1, 4), cq.make_rng(0, "v1"), bench)
steps["v1"] = loaded()
cq.global_min_cut_v2(cq.CutOracle(g), Fraction(1, 4), cq.make_rng(0, "v2"), bench)
steps["v2"] = loaded()
cq.st_min_cut(cq.CutOracle(g), s, t, cq.make_rng(0, "st"), tuning=cq.Tuning(scale=1e-4))
steps["st"] = loaded()
cq.deterministic_min_cut(cq.learn_graph(cq.CutOracle(g)))
steps["learn_solve"] = loaded()
cq.brute_force_min_cut(cq.generate("cycle", {"n": 6}, 0))
steps["brute_force"] = loaded()
print(json.dumps(steps))
"""


def test_solves_load_neither_numpy_nor_hashlib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    got = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE], capture_output=True, text=True, env=env, timeout=300
    )
    assert got.returncode == 0, got.stderr
    steps = json.loads(got.stdout)
    assert "numpy" in steps.pop("brute_force")  # the probe does see a sweep load it
    assert steps == dict.fromkeys(("import", "v1", "v2", "st", "learn_solve"), [])


def test_derive_seed_is_pinned():
    # every random stream starts here, so these pin them all
    assert derive_seed(1, "planted-sparse-256", 0, "global_v2", 0) == 15032958455734171516
    assert derive_seed(0, "bench", "st", 64, 0) == 9949279401095523312


FOUND_EDGE_RECORD = re.compile(r"\bknown\w*\s*(?::[^=]*)?=\s*\[0\]\s*\*")


def test_found_edge_record_allocations_finds_every_form():
    source = (
        "known = [0] * n\n"
        "self.known: list[int] = [0] * n\n"
        "known_masks = [0]*g.n\n"
        "out = [0] * n\n"
        "known = state.known\n"
    )
    lines = source.splitlines()
    assert [line for line in lines if FOUND_EDGE_RECORD.search(line)] == lines[:3]


def test_only_the_contraction_state_allocates_a_found_edge_record():
    # a solve keeps one record of the edges it has found, on its
    # ContractionState, which copies share; a phase that allocates its own
    # is blind to what the others found
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{lineno}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if FOUND_EDGE_RECORD.search(line)
    ]
    assert [site.split(":")[0] for site in found] == ["graph.py"], found


CHEAPEST_ASSIGNMENT = re.compile(
    r"\.cheapest\s*(?::[^=]*)?=(?!=)|setattr\([^,]+,\s*[\"']cheapest[\"']"
)


def test_cheapest_assignments_finds_every_form():
    source = (
        "self.cheapest = Cut(side, value)\n"
        "self.cheapest: Cut | None = None\n"
        "oracle.cheapest=best\n"
        "setattr(oracle, 'cheapest', best)\n"
        "best = better_cut(best, oracle.cheapest)\n"
        "if oracle.cheapest == best:\n"
        "cheapest = oracle.cheapest\n"
    )
    lines = source.splitlines()
    assert [line for line in lines if CHEAPEST_ASSIGNMENT.search(line)] == lines[:4]


def test_only_the_oracle_keeps_the_cheapest_cut():
    # every answer is a cut of G, so the oracle's cheapest answer is a
    # solve's one upper bound; a phase that tracks its own best boundary,
    # or writes the oracle's, keeps a second record that can fall behind
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    sources = {path.name: path.read_text() for path in files}
    assert [name for name, text in sources.items() if "best_seen" in text] == []
    writers = [
        f"{name}:{lineno}"
        for name, text in sources.items()
        for lineno, line in enumerate(text.splitlines(), 1)
        if CHEAPEST_ASSIGNMENT.search(line)
    ]
    assert [site.split(":")[0] for site in writers] == ["oracle.py"] * len(writers), writers
    assert writers


SINGLETON_PARTS = re.compile(r"\[\s*1\s*<<\s*(\w+)\s+for\s+\1\s+in\s+bits_of\(")


def test_singleton_parts_finds_every_form():
    source = (
        "parts = [1 << x for x in bits_of(layer)]\n"
        "inside = [1<<u for u in bits_of(g)]\n"
        "return [ 1 << v  for v in bits_of(cand & ~g)]\n"
        "singles = [1 << v for v in range(n)]\n"
        "ids = list(bits_of(candidates))\n"
        "low = mask_of(ids[lo:mid])\n"
    )
    lines = source.splitlines()
    assert [line for line in lines if SINGLETON_PARTS.search(line)] == lines[:3]


def test_no_walk_takes_singleton_parts_built_from_a_mask():
    # every walk takes its candidates as a vertex mask and returns a vertex,
    # so a list of singletons built from a mask only to be walked and then
    # turned back into a vertex is a second interface come back
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{lineno}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if SINGLETON_PARTS.search(line)
    ]
    assert found == []
