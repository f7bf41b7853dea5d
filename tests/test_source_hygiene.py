"""Checks over the package source itself.

A check that guards a budget or an answer must still run under `python -O`,
which strips `assert` statements, and must not read as a failed test: so the
package raises neither through `assert` nor as `AssertionError`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cutquery"


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
