import argparse
import hashlib
import importlib.util
import json
import math
import os
import runpy
import threading
from pathlib import Path

import numpy as np
import pytest

from susyxyz import cli, eightvertex, fermion, supercharge
from susyxyz.cli import (
    build_parser,
    main,
    parse_grid,
    parse_n_range,
    parse_zeta_list,
    thread_cap,
)
from susyxyz.eightvertex import BetheRoots
from susyxyz.elliptic import ThetaContext, zeta_of_nome
from susyxyz.errors import DomainError

from operator_reference import transfer_residuals
from path_reference import path_states

ROOT = Path(__file__).resolve().parents[1]


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
    assert parse_grid("0:3:0.05") == tuple(k * 0.05 for k in range(61))
    # no point past b, but rounding in (b - a)/step must not drop b
    assert parse_grid("0:1:0.35") == (0.0, 0.35, 0.7)
    for a in (0.0, 0.286, 0.5, 0.9):
        assert parse_grid(f"{a:g}:{a + 2:g}:0.1") == tuple(a + k * 0.1 for k in range(21))
    for bad in ("1:0:0.5", "0:inf:1", "-inf:0:1", "nan:1:0.5", "0:1:nan", "0:1:0"):
        with pytest.raises(DomainError):
            parse_grid(bad)


class _EveryVariableIs2(dict):
    def __missing__(self, key):
        return "2"

    def get(self, key, default=None):
        return "2"


def test_cli_runs_in_one_thread(capsys, monkeypatch):
    def no_threads(self):
        raise RuntimeError("the CLI must not start threads")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    for argv in (("fig1", "--zeta-grid", "0:1:0.5"),
                 ("check", "algebra", "--n", "2..3"),
                 ("check", "fermion-compare", "--m", "2")):
        assert run(capsys, *argv)[0] == 0
    # no environment variable sets a thread count
    monkeypatch.setattr(os, "environ", _EveryVariableIs2())
    assert thread_cap() == 1


def test_spectrum_n2_momentum_pi(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--zeta", "1", "--sector", "t=-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "zeta,n,sector,index,energy"
    assert lines[1] == "1,2,t=-1,0,4"


def test_spectrum_csv_rows_deterministic(capsys):
    # zeta as %.10g and energies as %.12g: no trailing zeros, and no rounding
    # noise (3 + 0.3^2 is 3.0899999999999999 in float64)
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--zeta", "0.3,1", "--sector", "t=-1")
    assert (code, out.splitlines()[1:]) == (0, ["0.3,2,t=-1,0,3.09", "1,2,t=-1,0,4"])


def test_spectrum_rejects_n0():
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--n", "0"])
    assert err.value.code == 2


# (command argv, option, value): each option is one the command does not read
REMOVED_OPTIONS = [
    (("spectrum", "--n", "3"), "--s", "0.3"),
    (("spectrum", "--n", "3"), "--t", "-0.7"),
    (("spectrum", "--n", "3"), "--tol", "1e-9"),
    (("check", "algebra", "--n", "2"), "--s", "0.3"),
    (("check", "algebra", "--n", "2"), "--t", "-0.7"),
    (("check", "cohomology", "--n", "3"), "--s", "0.3"),
    (("check", "cohomology", "--n", "3"), "--t", "-0.7"),
    (("check", "cohomology", "--n", "3"), "--tol", "1e-300"),
    (("check", "appendixB", "--nome", "0.2"), "--n", "3"),
    (("check", "appendixB", "--nome", "0.2"), "--zeta", "0.5"),
    (("check", "appendixB", "--nome", "0.2"), "--tol", "1e-9"),
    (("pathbasis", "--n", "3"), "--zeta", "0.5"),
    (("pathbasis", "--n", "3"), "--tol", "1e-9"),
    (("transfer", "--n", "3", "--nome", "0.2"), "--zeta", "5"),
]


@pytest.mark.parametrize("argv", [
    *(base + (option, value) for base, option, value in REMOVED_OPTIONS),
    ("fig1", "--zeta-grid", "0:inf:1"),
    ("spectrum", "--zeta", "1"),  # spectrum has no default chain size
], ids=lambda argv: " ".join(argv))
def test_parser_usage_error_exit_codes(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "Traceback" not in captured.err


def _parsed(capsys, parser, argv):
    """(exit code, namespace, stdout, stderr) of parser.parse_args(argv)."""
    try:
        code, args = 0, vars(parser.parse_args(argv))
    except SystemExit as exc:
        code, args = exc.code, None
    captured = capsys.readouterr()
    return code, args, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("-h", "spectrum"), ("bogus",), ("--n", "3", "spectrum"),
    ("spectrum", "--help"), ("spectrum", "--n", "3", "--zeta", "0.5"),
    ("spectrum", "--n", "3", "--zeta", "0.5", "--sectr", "k=0"),  # misspelled
    ("spectrum", "--n", "3", "--tol", "1e-9"),  # not read by spectrum
    ("spectrum", "--n", "3", "--form", "csv"),  # no abbreviations
    ("spectrum", "--n", "3", "--format", "xml"), ("spectrum", "--n", "3", "stray"),
    ("fig1", "-h"), ("fig1", "--zeta-grid", "0:1:0.5"), ("pathbasis", "--help"),
    ("transfer", "--n", "3", "--u", "0.2", "--nome", "0.2"), ("transfer", "--uu", "1"),
    ("check",), ("check", "--help"), ("check", "bogus"), ("check", "--n", "3"),
    ("check", "cohomology", "--help"), ("check", "cohomology", "--n", "3..5"),
    ("check", "cohomology", "--n", "3", "--tol", "1e-9"),
    ("check", "cohomology", "--n", "3", "--zta", "0.7"), ("check", "cohomology", "--n", "x"),
    ("check", "algebra", "-h"), ("check", "conjectures", "--nomes", "0.2", "--n", "3"),
    ("check", "appendixB", "--help"), ("check", "appendixB", "--nome", "0.2", "--n", "3"),
    ("check", "fermion-compare", "--help"), ("check", "fermion-compare", "--variant", "x"),
    ("check", "fermion-compare", "--m", "2", "--zeta", "1.5"),
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_parser_of_the_named_command_prints_as_the_whole_parser(capsys, argv):
    # main builds only the parser of the command (and suite) argv names; its
    # usage, errors, help, exit codes and parsed values are the whole parser's
    whole = _parsed(capsys, build_parser(), list(argv))
    assert _parsed(capsys, build_parser(list(argv)), list(argv)) == whole


def test_parser_of_the_named_command_builds_no_other(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    build_parser(["check", "cohomology", "--n", "13"])
    assert built == ["susy-xyz", "susy-xyz check", "susy-xyz check cohomology"]
    built.clear()
    build_parser()
    assert len(built) == 11


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
    ("spectrum", "--n", "3", "--zeta", "nan"),
    ("check", "cohomology", "--n", "3", "--zeta", "nan"),
    ("check", "fermion-compare", "--m", "2", "--zeta", "inf"),
    ("check", "algebra", "--n", "3", "--zeta", "inf"),
    ("transfer", "--n", "3", "--u", "nan"),
    ("transfer", "--n", "3", "--u", "inf"),
])
def test_non_finite_path_parameters_exit_codes(capsys, argv):
    # a non-finite s, t, zeta or u is a usage error, not a LinAlgError traceback
    # or a failed report
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


def test_conjectures_reject_a_one_site_chain(capsys):
    code, out, err = run(capsys, "check", "conjectures", "--n", "1")
    assert (code, out, err) == (2, "", "error: the XYZ chain needs n >= 2 sites, got 1\n")


def test_conjectures_build_no_dense_transfer_matrix(capsys, monkeypatch):
    # the complement's transfer eigenvalue reads only T applied to 2 columns
    def no_transfer_matrix(*args, **kwargs):
        raise AssertionError("dense transfer matrix built")

    # supercharge binds no transfer_matrix of its own; a binding it gained
    # would be patched too
    monkeypatch.setattr(eightvertex, "transfer_matrix", no_transfer_matrix)
    monkeypatch.setattr(supercharge, "transfer_matrix", no_transfer_matrix, raising=False)
    code, out, _ = run(capsys, "check", "conjectures", "--n", "3,5", "--nomes", "0.2")
    assert code == 0
    relations = [c["relation"] for c in json.loads(out)["checks"]]
    assert relations.count("complement_transfer_eigenvalue") == 2


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


def test_check_algebra_builds_each_pair_once(capsys, monkeypatch):
    # verify_algebra(n) needs Q_n and Q_{n-1}, so consecutive n share a pair
    built = []
    real_build = supercharge.build_supercharges

    def counting_build(n, zeta):
        built.append((n, zeta))
        return real_build(n, zeta)

    monkeypatch.setattr(supercharge, "build_supercharges", counting_build)
    code, out, _ = run(capsys, "check", "algebra", "--n", "3..5", "--zeta", "0.5,1.5")
    assert code == 0
    assert sorted(built) == sorted({(n, z) for n in (2, 3, 4, 5) for z in (0.5, 1.5)})
    assert len(json.loads(out)["checks"]) == 7 * 3 * 2


def test_check_cohomology(capsys):
    code, out, _ = run(capsys, "check", "cohomology", "--n", "3..6", "--zeta", "0.7")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == {"3": 2, "4": 0, "5": 2, "6": 0}


def test_check_cohomology_splits_by_spin_parity(capsys, monkeypatch):
    # one zero-energy state in each spin-parity block at odd n
    code, out, _ = run(capsys, "check", "cohomology", "--n", "3..6", "--zeta", "0.4,2.1")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["suite", "zetas", "dims", "dims_by_parity", "pass"]
    assert report["dims_by_parity"] == {"3": [1, 1], "4": [0, 0], "5": [1, 1], "6": [0, 0]}
    # the right total with both states in one block fails
    monkeypatch.setattr(supercharge, "cohomology_dimension",
                        lambda n, zeta: (2, 0) if n % 2 else (0, 0))
    code, out, _ = run(capsys, "check", "cohomology", "--n", "3..4", "--zeta", "0.7")
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert report["dims"] == {"3": 2, "4": 0}


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
    # one line per path, in the order of the reference listing: m, then ell,
    # then the down-step positions
    code, out, _ = run(capsys, "pathbasis", "--n", "2..9")
    assert code == 0
    expected = []
    for n in range(2, 10):
        paths = path_states(n)
        expected.append(json.dumps({"n": n, "count": len(paths),
                                    "rank": eightvertex.path_rank(n, ThetaContext(nome=0.2))}))
        expected.extend(json.dumps(p.to_json_dict()) for p in paths)
    assert out.splitlines() == expected


def test_transfer_checks(capsys):
    code, out, _ = run(capsys, "transfer", "--n", "3", "--nome", "0.2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True


TRANSFER_RELATIONS = ("transfer_at_eta_is_translation", "commuting_family",
                      "hamiltonian_from_transfer")


@pytest.mark.parametrize("nome", [0.0873, 0.228, 0.3569, 0.2, 0.45])
def test_transfer_records_match_the_dense_reference(capsys, nome):
    # the orbit-weighted norms equal the dense Frobenius norms, and the third
    # record multiplied through by T(eta) equals the dense solve, to rounding
    code, out, _ = run(capsys, "transfer", "--n", "2..10", "--nome", f"{nome:g}")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [(c["n"], c["relation"]) for c in checks] == [
        (n, relation) for n in range(2, 11) for relation in TRANSFER_RELATIONS]
    ctx = ThetaContext(nome=nome)
    for n in range(2, 11):
        got = [c["residual"] for c in checks if c["n"] == n]
        ref = transfer_residuals(n, 0.45, ctx)
        assert abs(got[0] - ref[0]) <= 1e-15
        assert abs(got[1] - ref[1]) <= 1e-15
        assert abs(got[2] - ref[2]) <= 1e-11
        passes = [c["pass"] for c in checks if c["n"] == n]
        assert passes == [ref[0] < 1e-10, ref[1] < 1e-9, ref[2] < 1e-5] == [True] * 3


def test_transfer_builds_no_dense_matrix_and_solves_nothing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense transfer matrix built or solved")

    monkeypatch.setattr(eightvertex, "transfer_matrix", refuse)
    monkeypatch.setattr(cli, "transfer_matrix", refuse, raising=False)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    code, out, _ = run(capsys, "transfer", "--n", "2..8", "--nome", "0.2")
    assert code == 0
    assert len(json.loads(out)["checks"]) == 3 * 7


def _transfer_failures(capsys):
    code, out, _ = run(capsys, "transfer", "--n", "2..6", "--nome", "0.2")
    checks = json.loads(out)["checks"]
    assert code == (1 if any(not c["pass"] for c in checks) else 0)
    return {c["relation"] for c in checks if not c["pass"]}


def _perturb_weight_tensor(monkeypatch, at):
    # the weight a of the all-up vertex, at the spectral parameter `at` only
    real = eightvertex.weight_tensor

    def perturbed(u, ctx):
        W = real(u, ctx)
        if u == at:
            W = W.copy()
            W[0, 0, 0, 0] *= 1 + 1e-3
        return W

    monkeypatch.setattr(eightvertex, "weight_tensor", perturbed)


def test_transfer_fails_on_a_weight_tensor_perturbed_at_eta(capsys, monkeypatch):
    _perturb_weight_tensor(monkeypatch, ThetaContext.eta)
    assert "transfer_at_eta_is_translation" in _transfer_failures(capsys)


def test_transfer_fails_on_a_weight_tensor_perturbed_at_u(capsys, monkeypatch):
    _perturb_weight_tensor(monkeypatch, 0.45)
    assert _transfer_failures(capsys) == {"commuting_family"}


def test_transfer_fails_on_a_hamiltonian_at_another_zeta(capsys, monkeypatch):
    real = eightvertex.CouplingLine
    monkeypatch.setattr(eightvertex, "CouplingLine", lambda zeta: real(zeta * (1 + 1e-3)))
    assert _transfer_failures(capsys) == {"hamiltonian_from_transfer"}


# (argv, the library call whose report it must print): every suite at a small
# size; the last fermion case fails at a tolerance below the levels' rounding
SUITE_CALLS = [
    (("check", "algebra", "--n", "2..4", "--zeta", "0.5,1.5"),
     lambda: supercharge.algebra_suite((2, 3, 4), (0.5, 1.5))),
    (("check", "cohomology", "--n", "3..6", "--nome", "0.25"),
     lambda: supercharge.cohomology_suite((3, 4, 5, 6), (zeta_of_nome(0.25),))),
    (("check", "conjectures", "--n", "3..5", "--zeta", "0.5", "--nomes", "0.2,0.3",
      "--s", "0.35", "--t", "-0.6", "--tol", "1e-7"),
     lambda: supercharge.conjectures_suite((3, 4, 5), (0.5,), (0.2, 0.3), 0.35, -0.6, 1e-7)),
    (("check", "appendixB", "--nome", "0.2", "--s", "0.3", "--t", "-0.7"),
     lambda: eightvertex.appendixB_decomposition(ThetaContext(nome=0.2, s=0.3, t=-0.7))),
    (("check", "fermion-compare", "--m", "2,3", "--zeta", "2"),
     lambda: fermion.comparison_suite((2, 3), (2.0,), ("ramond_vs_kpi", "ns_vs_k0"))),
    (("check", "fermion-compare", "--m", "2", "--zeta", "2", "--variant", "ns_vs_k0",
      "--tol", "1e-16"),
     lambda: fermion.comparison_suite((2,), (2.0,), ("ns_vs_k0",), 1e-16)),
    (("transfer", "--n", "2..5", "--nome", "0.3", "--u", "0.7"),
     lambda: eightvertex.transfer_suite((2, 3, 4, 5), ThetaContext(nome=0.3), 0.7)),
]


@pytest.mark.parametrize("argv, suite", SUITE_CALLS, ids=[" ".join(a) for a, _ in SUITE_CALLS])
def test_cli_prints_the_report_of_one_suite_call(capsys, argv, suite):
    # a check command parses its options, calls one suite and prints its
    # report; it exits 0 exactly when the report passes, 1 otherwise
    code, out, err = run(capsys, *argv)
    report = suite()
    assert out == json.dumps(report, indent=2, default=float) + "\n"
    assert report["suite"] == (argv[1] if argv[0] == "check" else argv[0])
    assert (code, err) == (0 if report["pass"] else 1, "")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ("check", "algebra", "--n", "3"),
    ("check", "conjectures", "--n", "3"),
    ("check", "fermion-compare", "--m", "2"),
    ("transfer", "--n", "3"),
], ids=" ".join)
def test_tol_that_is_not_finite_and_positive_is_a_usage_error(capsys, argv, tol):
    # at inf every bounded record would pass, at nan, 0 or below every one fail
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"error: the tolerance must be finite and positive, got {float(tol)}\n"


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_suites_reject_a_tol_that_is_not_finite_and_positive(tol):
    calls = [
        lambda: supercharge.algebra_suite((3,), (0.5,), tol),
        lambda: supercharge.conjectures_suite((3,), (0.5,), (0.2,), 0.3, -0.7, tol),
        lambda: fermion.comparison_suite((2,), (2.0,), ("ns_vs_k0",), tol),
        lambda: eightvertex.transfer_suite((3,), ThetaContext(nome=0.2), 0.45, tol),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="finite and positive"):
            call()


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


def _load(relative_path):
    path = ROOT / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bethe_scan_probe_avoids_zeros_of_q(capsys, monkeypatch):
    # a root at u = 0.47 makes Q(0.47) vanish, so 0.47 must not be the probe
    script = _load("scripts/bethe_root_scan.py")
    roots = BetheRoots(roots=(0.47,), omega=1.0, n=5)
    monkeypatch.setattr(script, "find_bethe_roots", lambda n, m, omega, ctx: [roots])
    assert script.main(["--n", "5", "--m", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all("eigvec resid" in line for line in lines[1::2])
    u = script.probe_point(roots, ThetaContext(nome=0.2))
    assert abs(u - 0.47) > 0.3


def test_bethe_scan_unusable_context_exit_code(capsys):
    # the default (s, t) has dependent local vectors at nome 0.95
    assert _load("scripts/bethe_root_scan.py").main(["--nome", "0.95"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# ---------------------------------------------------------------------------
# argvs that other parts of the repo send to the CLI


def _script_argvs(monkeypatch, relative_path):
    """The argvs a script sends to the CLI, run against a stub that records them."""
    sent = []
    monkeypatch.setattr(cli, "main", lambda argv: sent.append(list(argv)) or 0)
    monkeypatch.setattr("sys.argv", [relative_path])
    try:
        runpy.run_path(str(ROOT / relative_path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0
    assert sent, f"{relative_path} sent no argv"
    return sent


def test_repo_argvs_parse(capsys, monkeypatch):
    workloads = _load("perfbench/workloads.py")
    argvs = [op["argv"] for w in workloads.WORKLOADS for seed in range(10)
             for op in workloads.ops_for(w, seed) if op["kind"] == "cli"]
    argvs += _script_argvs(monkeypatch, "scripts/run_all_checks.py")
    argvs += _script_argvs(monkeypatch, "scripts/make_fig1_data.py")
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the CLI rejects {argv}")


def test_bethe_scan_without_height_paths_exit_code(capsys):
    # no height path of 3 steps has 2 down steps, so every Bethe vector vanishes
    assert _load("scripts/bethe_root_scan.py").main(["--n", "3", "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
