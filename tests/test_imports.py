"""Every imported name in src/ and tests/ is referenced somewhere in its file,
every import in src/ sits at module level, and the package runs on numpy
alone."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from susyxyz import fermion
from susyxyz.spinchain import SectorOperator, _add_images

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


# one small run of every command: spectrum, fig1, each check suite, pathbasis
# and transfer
_CLI_RUNS = [
    ["spectrum", "--n", "4", "--zeta", "0.7"],
    ["fig1", "--zeta-grid", "0:0.2:0.1"],
    ["check", "algebra", "--n", "3..4", "--zeta", "0.7"],
    ["check", "cohomology", "--n", "3..4", "--zeta", "0.7"],
    ["check", "conjectures", "--n", "3..4", "--zeta", "0.7", "--nomes", "0.2"],
    ["check", "appendixB", "--nome", "0.2"],
    ["check", "fermion-compare", "--m", "2", "--zeta", "1.5"],
    ["pathbasis", "--n", "4"],
    ["transfer", "--n", "3"],
]


def test_scipy_stays_off_the_import_path(tmp_path):
    # neither importing the CLI nor running any command loads a scipy module,
    # so a process forked after the import pays for none either
    script = f"""
import json, sys
import susyxyz.cli as cli
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
report = [("import", 0, scipy_modules())]
for argv in {_CLI_RUNS!r}:
    code = cli.main(argv + ["--out", {str(tmp_path / "out")!r}])
    report.append((" ".join(argv), code, scipy_modules()))
print(json.dumps(report))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    report = json.loads(run.stdout)
    assert [step for step, _, _ in report] == ["import"] + [" ".join(a) for a in _CLI_RUNS]
    assert [(step, code, loaded) for step, code, loaded in report
            if code != 0 or loaded] == []


# Top-level src/ names that only the tests use: paper claims checked by the
# tests until they become reported checks, and references the tests compare
# against.
TEST_ONLY = {
    "conserved_charge_C": "paper claim: C = Qt^dag Q squares to zero and commutes with H",
    "multiplet_report": "paper claim: every positive-energy state sits in a quadruplet",
    "parity_covariance_check": "paper claim: Q is parity covariant (acceptance criterion 4)",
    "intertwining_residual": "paper claim: T(u) intertwines the supercharges",
    "scattering_ratio": "paper claim: coincident rapidities scatter with amplitude -1",
    "theta_couplings": "paper claim: the theta-function coupling conjecture",
    "path_to_hardcore": "paper claim: the map from height paths to hard-core states",
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


def _callers(path, callee):
    """The top-level definitions of a module that call `callee` by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({
        getattr(top, "name", "<module>")
        for top in tree.body
        for call in ast.walk(top)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == callee
             or getattr(call.func, "attr", None) == callee)
    })


def _src_callers(callee):
    return [(path.relative_to(ROOT).as_posix(), name)
            for path in sorted((ROOT / "src").rglob("*.py"))
            for name in _callers(path, callee)]


def test_no_path_state_in_src():
    # the numerical routines take paths as integer codes, and the pathbasis
    # listing is written straight from the combinations of down steps;
    # PathState, the validated view of a path, path_states and path_translate
    # are test references
    names = {node.name for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert names & {"PathState", "path_states", "path_translate"} == set()
    assert _src_callers("PathState") == []


def test_no_full_space_operator_in_src(monkeypatch):
    # every sector operator is built from the orbit representatives and the
    # XYZ H acts on full-space vectors bond by bond (xyz_apply); the COO
    # operators, their projection, the full-space translation and H, and the
    # full-space supercharge are test references
    forbidden = {"FullOperator", "project", "translation_operator", "xyz_hamiltonian_full"}
    definitions = [(path.relative_to(ROOT).parts[0], node.name)
                   for top in ("src", "tests")
                   for path in sorted((ROOT / top).rglob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name in forbidden | {"local_q", "supercharge_full"}]
    assert [name for top, name in definitions if top == "src"] == []
    assert [callee for callee in sorted(forbidden) if _src_callers(callee)] == []
    assert sorted(name for _, name in definitions) == [
        "FullOperator", "local_q", "project", "supercharge_full", "xyz_hamiltonian_full"]
    # the fermion H is folded from the hops of the orbit representatives
    # alone, at most two per particle of each (a COO H on every mask of these
    # sectors folds 1625 to 2970 entries)
    folded = []

    def recording(matrix, position, codomain, src, images, values):
        folded.append(len(src))
        return _add_images(matrix, position, codomain, src, images, values)

    monkeypatch.setattr(fermion, "_add_images", recording)
    for m, boundary, sigma in ((3, "ramond", 1), (4, "ramond", 1), (5, "neveu-schwarz", -1)):
        model = fermion.FermionModel(n_f=15, couplings=fermion.staggered_couplings(15, 0.6),
                                     boundary=boundary, m=m)
        op = fermion.fermion_hamiltonian(model, sigma)
        assert op.blocks is not None and op.domain.dim > 0
        folded.clear()
        op.matrix  # builds the blocks
        assert 0 < sum(folded) <= 2 * m * op.domain.dim


def test_a_sector_operator_is_its_parity_blocks():
    # one constructor, from the parity blocks and the flip; no whole matrix
    # is taken, and every sector operator of src/ passes exactly these
    fields = ["domain", "codomain", "blocks", "flip"]
    assert list(inspect.signature(SectorOperator).parameters) == fields
    calls = [call for path in sorted((ROOT / "src").rglob("*.py"))
             for call in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "SectorOperator"]
    assert len(calls) >= 5
    assert [ast.unparse(call) for call in calls
            if len(call.args) + len(call.keywords) != 4
            or {kw.arg for kw in call.keywords} - set(fields)] == []
    # Qt and P Q P are read from the blocks of Q, not from its whole matrix
    tree = ast.parse((ROOT / "src/susyxyz/supercharge.py").read_text())
    conjugation = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and fn.name in ("_conjugated", "_conjugated_blocks")]
    assert len(conjugation) == 2
    assert [node.lineno for fn in conjugation for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "matrix"] == []


def test_bethe_system_takes_h_from_exponentials():
    # the Newton system evaluates h and h' with theta1_from_exp on products of
    # e^{iU}; no theta series with a sin or cos per term, and no complex trig
    tree = ast.parse((ROOT / "src/susyxyz/eightvertex.py").read_text())
    (entire,) = [fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_bethe_entire"]
    called = {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
              for call in ast.walk(entire) if isinstance(call, ast.Call)}
    assert "theta1_from_exp" in called
    assert called & {"theta", "theta_and_derivative", "h", "sin", "cos", "tan"} == set()
