"""Exactness guards must survive python -O, which strips assert statements."""

import ast
from pathlib import Path

import cyclodiff


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(cyclodiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_basis_engine_keeps_one_representation():
    # groebner works on packed int monomials with int coefficients only:
    # no Fraction, and no helper ordering or dividing exponent tuples
    path = Path(cyclodiff.__file__).parent / "groebner.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "fractions" not in imported
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_grevlex_key", "_lead", "_divides"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "Fraction" not in names


def test_the_basis_engine_has_one_elimination_step():
    # only content removal and the fraction-free step take a gcd, and the
    # reducer divides by a _Divisors, never by a list it must tell apart
    path = Path(cyclodiff.__file__).parent / "groebner.py"
    tree = ast.parse(path.read_text(), str(path))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]

    def calls(fn, name):
        return any(isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
                   for node in ast.walk(fn))

    assert {fn.name for fn in functions if calls(fn, "gcd")} \
        == {"_strip_content", "_eliminate"}
    reducer, = [fn for fn in functions if fn.name == "_reduce_full"]
    assert not calls(reducer, "isinstance")


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports only to export; elsewhere an imported name must
    # be read somewhere in its module, or its import line must say why not
    # with "# noqa: F401"
    unused = []
    for path in sorted(Path(cyclodiff.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if ("# noqa: F401" in lines[node.lineno - 1]
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
