"""Every imported name in src/ and tests/ is referenced somewhere in its file,
and every import in src/ sits at module level."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []


def _function_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}: in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_imports_inside_functions():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert [hit for path in files for hit in _function_imports(path)] == []


# Top-level src/ names that only the tests use: paper claims checked by the
# tests until they become reported checks, and references the tests compare
# against.
TEST_ONLY = {
    "conserved_charge_C": "paper claim: C = Qt^dag Q squares to zero and commutes with H",
    "multiplet_report": "paper claim: every positive-energy state sits in a quadruplet",
    "parity_covariance_check": "paper claim: Q is parity covariant (acceptance criterion 4)",
    "intertwining_residual": "paper claim: T(u) intertwines the supercharges",
    "path_complement": "paper claim: the odd-n path span misses two zero-energy states",
    "scattering_ratio": "paper claim: coincident rapidities scatter with amplitude -1",
    "theta_couplings": "paper claim: the theta-function coupling conjecture",
    "path_to_hardcore": "paper claim: the map from height paths to hard-core states",
    "path_translate": "reference: translation of a path, against the spin translation",
    "supercharge_matrix": "reference: the fermion Q, against H = {Q, Q^dag}",
    "translation_matrix": "reference: the fermion translation, against the T^3 sectors",
}


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_src_definition_is_used_outside_the_tests():
    src = sorted((ROOT / "src").rglob("*.py"))
    users = [path for top in ("src", "scripts", "perfbench") for path in (ROOT / top).rglob("*.py")]
    referenced = set().union(*map(_referenced_names, users))
    defined = {
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}": node.name
        for path in src
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    unused = [where for where, name in defined.items()
              if name not in referenced and name not in TEST_ONLY]
    assert unused == []
    # the list itself holds only defined names that the tests alone use
    names = set(defined.values())
    stale = [name for name in TEST_ONLY if name in referenced or name not in names]
    assert stale == []


def _eig_calls(node):
    """Lines of the calls of an eigensolver (`*linalg.eig*` or a bare `eig*`)
    under an ast node."""
    def is_eig(func):
        if isinstance(func, ast.Attribute):
            return func.attr.startswith("eig") and ast.unparse(func.value).endswith("linalg")
        return isinstance(func, ast.Name) and func.id.startswith("eig")

    return sorted(call.lineno for call in ast.walk(node)
                  if isinstance(call, ast.Call) and is_eig(call.func))


def test_one_eigensolve():
    # every spectrum of the package, spin or fermion, goes through the one
    # checked eigensolve, spinchain._eigh_checked
    trees = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    calls = [(name, line) for name, tree in trees.items() for line in _eig_calls(tree)]
    spin = "src/susyxyz/spinchain.py"
    (checked,) = [fn for fn in trees[spin].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_eigh_checked"]
    assert calls
    assert calls == [(spin, line) for line in _eig_calls(checked)]
