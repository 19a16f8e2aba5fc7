"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import execute  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, ops_for  # noqa: E402

SEEDS = range(40)


def _theta_params(op):
    """(nome, s, t) triples a theta-side op hands to ThetaContext."""
    if op["kind"] == "bethe":
        return [(op["nome"], op["s"], op["t"])]
    argv = op["argv"]

    def value(flag):
        return argv[argv.index(flag) + 1] if flag in argv else None

    s, t = float(value("--s")), float(value("--t"))
    nomes = value("--nomes") or value("--nome")
    return [(float(q), s, t) for q in nomes.split(",")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert ops_for(workload, 7) == ops_for(workload, 7)
    assert ops_for(workload, 7) != ops_for(workload, 8)
    assert json.loads(json.dumps(ops_for(workload, 7))) == ops_for(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_ops_are_valid_input(workload):
    from susyxyz.cli import build_parser
    from susyxyz.eightvertex import appendixB_decomposition
    from susyxyz.elliptic import ThetaContext

    parser = build_parser()
    for seed in SEEDS:
        for op in ops_for(workload, seed):
            assert op["check"] in checks.CHECKS
            if op["kind"] == "cli":
                args = parser.parse_args(op["argv"])
                if op["check"] == "fermion-compare":
                    assert min(args.zeta) > 1.0
                if op["check"] not in ("conjectures", "pathbasis", "transfer",
                                       "appendixB", "fig1"):
                    continue
                if op["check"] == "fig1":
                    assert 0.0 <= args.zeta_grid[0] and args.zeta_grid[-1] <= 3.0
                    continue
            for nome, s, t in _theta_params(op):
                assert 0.05 <= nome <= 0.45
                ctx = ThetaContext(nome=nome, s=s, t=t)
                ctx.require_independent_local_vectors()
                if op["check"] == "appendixB":
                    assert appendixB_decomposition(ctx)["pass"]


def test_momentum_dim_counts_orbits():
    for n in range(1, 11):
        for t in (1, -1):
            if t == -1 and n % 2:
                continue
            count, seen = 0, set()
            for s in range(1 << n):
                if s in seen:
                    continue
                orbit = {((s << j) | (s >> (n - j))) & ((1 << n) - 1) for j in range(n)}
                seen |= orbit
                count += t ** len(orbit) == 1
            assert checks.momentum_dim(n, t) == count


def _op(workload, check, label=""):
    return next(op for op in ops_for(workload, 3)
                if op["check"] == check and op["label"].startswith(label))


def test_corrupted_csv_counts_as_failure():
    for op, corrupt in [
        (_op("sector-large", "spectrum", "spectrum n=2"), lambda lines: lines[:-1]),
        (_op("sector-large", "spectrum", "spectrum n=2"),
         lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",-0.5"] + lines[2:]),
        (_op("sector-large", "fig1"), lambda lines: lines[:-1]),
        (_op("sector-large", "fig1"),
         lambda lines: [line.replace(",7,0,", ",7,0,X") for line in lines]),
    ]:
        result = execute.run_op(op, traced=False, timeout=60)
        assert checks.failure(op, result) is None
        lines = result["stdout"].strip().splitlines()
        bad = dict(result, stdout="\n".join(corrupt(lines)) + "\n")
        assert checks.failure(op, bad) is not None


def test_failed_verdict_and_usage_error_count_in_fail_ratio():
    ok = _op("sector-large", "algebra")
    failing = dict(ok, argv=ok["argv"] + ["--tol", "1e-30"])  # exit 1, "pass": false
    usage = dict(ok, argv=["check", "algebra", "--n", "0"])  # exit 2
    p = run.run_pass([ok, failing, usage], traced=False, deadline=time.perf_counter() + 120)
    assert p["attempted"] == 3 and [label for label, _ in p["failures"]] == [ok["label"]] * 2
    metrics = run.end_to_end_metrics([p], setup_s=1.0)
    assert metrics["pass_ratio"]["value"] == pytest.approx(1 / 3)


def test_bethe_check_uses_independent_residual():
    op = dict(_op("theta-paths", "bethe"), cases=[[5, 1]])
    result = execute.run_op(op, traced=False, timeout=60)
    assert checks.failure(op, result) is None
    moved = json.loads(json.dumps(result))
    moved["bethe"][0]["roots"][0][0] += 1e-6
    assert "Bethe residual" in checks.failure(op, moved)


def test_traced_op_reports_layers():
    op = _op("sector-large", "fig1")
    result = execute.run_op(op, traced=True, timeout=60)
    assert checks.failure(op, result) is None
    metrics = tracing.layer_metrics([result["trace"]])
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
    assert metrics["spinchain.spectrum.calls"] == 2 * 21  # n=6 and n=7 per grid point
    assert metrics["spinchain.build_sector_basis.misses"] == 2
    assert metrics["spinchain.project.bytes_computed"] == 21 * 16 * 2 * (64 * 10 + 128 * 20)
    assert metrics["elliptic.theta.calls"] == 0
    assert metrics["cli.output_bytes"] == len(result["stdout"].encode())
    assert metrics["cli.main.self_s"] >= 0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_op_past_its_time_limit_is_killed_and_fails():
    op = _op("sector-large", "cohomology")  # n = 13, several seconds
    p = run.run_pass([op, op], traced=False, deadline=time.perf_counter() + 0.3)
    assert p["attempted"] == 1 and not p["complete"]
    assert p["latencies"][0] < 5 and "killed" in p["failures"][0][1]
