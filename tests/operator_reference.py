"""Full-space symmetry operators for the tests.

The package builds only the translation (`spinchain.translation_operator`),
for `check transfer`; parity and spin reversal act on sectors through their
orbit tables. Their full-space permutations are the references the tests
check those sector operators against.
"""

import numpy as np

from susyxyz.errors import DomainError
from susyxyz.spinchain import FullOperator, reverse_bits, reverse_spins, translation_operator


def symmetry_operator(kind, n):
    """Full-space operator (COO triplets) for translation, parity or spin reversal."""
    if kind == "translation":
        return translation_operator(n)
    flips = {"parity": reverse_bits, "spin_reversal": reverse_spins}
    if kind not in flips:
        raise DomainError(f"unknown symmetry operator kind {kind!r}")
    dim = 1 << n
    states = np.arange(dim)
    return FullOperator(flips[kind](states, n), states, np.ones(dim), (dim, dim))
