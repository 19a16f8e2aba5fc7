"""Reference height paths for the tests: a path as a validated object.

The package indexes paths by integer codes (`eightvertex._path_codes`); these
are the per-path views the tests compare those codes, the `pathbasis` listing
and the path-to-hard-core map against.
"""

import itertools
from dataclasses import dataclass

from susyxyz.errors import DomainError


@dataclass(frozen=True)
class PathState:
    """A height path: base height ell, down steps at the given positions."""

    ell: int
    positions: tuple
    n: int

    def __post_init__(self):
        if self.ell not in (0, 1, 2):
            raise DomainError(f"base height must be 0, 1 or 2, got {self.ell}")
        xs = self.positions
        if any(not (1 <= x <= self.n) for x in xs) or list(xs) != sorted(set(xs)):
            raise DomainError(f"positions must be strictly increasing in 1..{self.n}")
        if (self.n - 2 * len(xs)) % 3 != 0:
            raise DomainError(
                f"n - 2m = {self.n - 2 * len(xs)} must be a multiple of 3"
            )

    @property
    def m(self):
        return len(self.positions)

    def heights(self):
        """Local heights ell_1 .. ell_{n+1}."""
        hs = [self.ell]
        down = set(self.positions)
        for j in range(1, self.n + 1):
            hs.append(hs[-1] - 1 if j in down else hs[-1] + 1)
        return hs

    def to_json_dict(self):
        return {"ell": self.ell, "positions": list(self.positions), "n": self.n}


def path_states(n):
    """All admissible paths: base height in {0,1,2}, n - 2m = 0 mod 3."""
    states = []
    for m in range(n + 1):
        if (n - 2 * m) % 3 != 0:
            continue
        for ell in range(3):
            for xs in itertools.combinations(range(1, n + 1), m):
                states.append(PathState(ell=ell, positions=xs, n=n))
    return states


def path_translate(p):
    """The path obtained by translating the chain one site to the right.

    The last step is glued to the front; the new base height is reduced to
    {0, 1, 2}, which is a shift by -1 (last step up) or +1 (last step down)
    modulo 3.
    """
    if p.n in p.positions:
        new_pos = (1,) + tuple(x + 1 for x in p.positions if x != p.n)
        new_ell = (p.ell + 1) % 3
    else:
        new_pos = tuple(x + 1 for x in p.positions)
        new_ell = (p.ell - 1) % 3
    return PathState(ell=new_ell, positions=new_pos, n=p.n)
