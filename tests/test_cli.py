import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from susyxyz import supercharge
from susyxyz.cli import main, parse_grid, parse_n_range, parse_zeta_list, thread_cap
from susyxyz.eightvertex import BetheRoots
from susyxyz.elliptic import ThetaContext
from susyxyz.errors import ConfigurationError, DomainError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_helpers():
    assert parse_n_range("3..6") == (3, 4, 5, 6)
    assert parse_n_range("4") == (4,)
    assert parse_n_range("2,5") == (2, 5)
    assert parse_zeta_list("0,0.3,1") == (0.0, 0.3, 1.0)
    assert parse_grid("0:1:0.5") == (0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        parse_grid("1:0:0.5")


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("SUSY_XYZ_THREADS", "2")
    assert thread_cap() == 2
    monkeypatch.setenv("SUSY_XYZ_THREADS", "zero")
    with pytest.raises(ConfigurationError):
        thread_cap()
    monkeypatch.delenv("SUSY_XYZ_THREADS")
    assert thread_cap() >= 1


def test_spectrum_n2_momentum_pi(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--zeta", "1", "--sector", "t=-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "zeta,n,sector,index,energy"
    assert lines[1] == "1,2,t=-1,0,4"


def test_spectrum_rejects_n0():
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--n", "0"])
    assert err.value.code == 2


def test_spectrum_usage_error_exit_codes(capsys):
    # odd size has no momentum-pi sector
    code, _, err = run(capsys, "spectrum", "--n", "3", "--sector", "k=pi")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "spectrum", "--n", "4", "--zeta", "1", "--nome", "0.2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("pathbasis", "--n", "1"),  # a single site has no height paths
    ("check", "algebra", "--n", "1"),  # Q_0 does not exist
])
def test_n1_usage_error_exit_codes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("pathbasis", "--n", "3", "--s", "inf"),
    ("check", "appendixB", "--nome", "0.2", "--s", "nan"),
])
def test_non_finite_path_parameters_exit_codes(capsys, argv):
    # a non-finite s or t used to end in an SVD LinAlgError traceback
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_spectrum_deterministic(capsys):
    args = ("spectrum", "--n", "4,5", "--zeta", "0,0.3,1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    # pinned CSV bytes; even n only, since odd-n zero modes print as rounding noise
    _, out, _ = run(capsys, "spectrum", "--n", "2,4,6", "--zeta", "0,0.3,2.5")
    assert len(out.splitlines()) == 1 + 45
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "717a2e6ced727b4eb4a4565dcbaf2f62ca7b1aafe4a5a92353115de9d52a1a9a"
    )


@pytest.mark.parametrize("even, residual", [
    ([0.5, 2.0], float("inf")),  # no even level left for the second 2.0
    ([0.5, 2.0, 7.0], 5.0),  # the leftover even level is 5 away
])
def test_conjectures_unmatched_odd_level_fails(capsys, monkeypatch, even, residual):
    # a doubled odd level has only one even partner: the inclusion must fail
    levels = {-1: np.array([0.5, 2.0, 2.0]), 1: np.array(even)}
    monkeypatch.setattr(supercharge, "spectrum", lambda op: levels[op.domain.parity_eigenvalue])
    code, out, _ = run(capsys, "check", "conjectures", "--n", "3", "--zeta", "0.5",
                       "--nomes", "0.1")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["relation"] == "parity_spectral_inclusion"
    assert check["pass"] is False
    assert check["residual"] == residual


def test_fig1_csv_shape(capsys):
    code, out, _ = run(capsys, "fig1", "--zeta-grid", "0:1:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "zeta,n,index,epsilon"
    # 3 grid points x (10 levels at n=6 + 20 at n=7)
    assert len(lines) == 1 + 3 * 30


def test_check_algebra_small(capsys):
    code, out, _ = run(capsys, "check", "algebra", "--n", "2..3", "--zeta", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    for check in report["checks"]:
        assert set(check) == {"relation", "n", "zeta", "residual", "pass"}


def test_check_cohomology(capsys):
    code, out, _ = run(capsys, "check", "cohomology", "--n", "3..6", "--zeta", "0.7")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == {"3": 2, "4": 0, "5": 2, "6": 0}


def test_check_fermion_compare(capsys):
    code, out, _ = run(capsys, "check", "fermion-compare", "--m", "2", "--zeta", "2")
    assert code == 0
    report = json.loads(out)
    assert {r["variant"] for r in report["reports"]} == {"ramond_vs_kpi", "ns_vs_k0"}
    for r in report["reports"]:
        assert set(r) >= {"m", "zeta", "variant", "xyz_levels", "fermion_levels",
                          "matched", "xyz_only", "fermion_only"}


def test_check_fermion_compare_bad_zeta(capsys):
    code, _, err = run(capsys, "check", "fermion-compare", "--m", "2", "--zeta", "0.5")
    assert code == 2


def test_check_failure_exit_code(capsys):
    # an absurdly tight tolerance forces a reported failure (exit 1, not 2)
    code, out, _ = run(capsys, "check", "fermion-compare", "--m", "2",
                       "--zeta", "2", "--tol", "1e-16")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_check_appendixB(capsys):
    code, out, _ = run(capsys, "check", "appendixB", "--nome", "0.2",
                       "--s", "0.3", "--t", "-0.7")
    assert code == 0
    report = json.loads(out)
    assert report["ratio_error"] < 1e-9


def test_pathbasis_output(capsys):
    code, out, _ = run(capsys, "pathbasis", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header == {"n": 3, "count": 6, "rank": 6}
    states = [json.loads(line) for line in lines[1:]]
    assert len(states) == 6
    assert all(set(s) == {"ell", "positions", "n"} for s in states)


def test_transfer_checks(capsys):
    code, out, _ = run(capsys, "transfer", "--n", "3", "--nome", "0.2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--zeta", "0.4",
                       "--out", str(out_file))
    assert code == 0
    assert out == ""
    text = out_file.read_text()
    assert text.startswith("zeta,n,sector,index,energy\n")


# ---------------------------------------------------------------------------
# scripts/bethe_root_scan.py


def _bethe_scan_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bethe_root_scan.py"
    spec = importlib.util.spec_from_file_location("bethe_root_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bethe_scan_probe_avoids_zeros_of_q(capsys, monkeypatch):
    # a root at u = 0.47 makes Q(0.47) vanish, so 0.47 must not be the probe
    script = _bethe_scan_script()
    roots = BetheRoots(roots=(0.47,), omega=1.0, n=5)
    monkeypatch.setattr(script, "find_bethe_roots", lambda n, m, omega, ctx: [roots])
    assert script.main(["--n", "5", "--m", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all("eigvec resid" in line for line in lines[1::2])
    u = script.probe_point(roots, ThetaContext(nome=0.2))
    assert abs(u - 0.47) > 0.3


def test_bethe_scan_unusable_context_exit_code(capsys):
    # the default (s, t) has dependent local vectors at nome 0.95
    assert _bethe_scan_script().main(["--nome", "0.95"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
