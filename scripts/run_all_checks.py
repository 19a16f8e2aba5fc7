#!/usr/bin/env python3
"""Run every named check suite with the default ranges and report a summary.

Exit code 0 iff all suites pass; mirrors the CLI semantics.
"""

import sys

from susyxyz.cli import main as cli_main

SUITES = [
    ["check", "algebra", "--n", "2..6"],
    ["check", "cohomology", "--n", "3..13", "--zeta", "0.7"],
    ["check", "conjectures", "--n", "3..7", "--zeta", "0.5,1.0"],
    ["check", "appendixB", "--nome", "0.2", "--s", "0.3", "--t", "-0.7"],
    ["check", "fermion-compare", "--m", "2..4", "--zeta", "1.2,1.8,3.0"],
    ["transfer", "--n", "2..10", "--nome", "0.2"],
]

if __name__ == "__main__":
    worst = 0
    for argv in SUITES:
        print(f"$ susy-xyz {' '.join(argv)}", file=sys.stderr)
        code = cli_main(argv + ["--out", "/dev/null"])
        print(f"  -> exit {code}", file=sys.stderr)
        worst = max(worst, code)
    sys.exit(worst)
