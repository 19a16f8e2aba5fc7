"""Eight-vertex transfer matrix, Baxter's path basis, and the Bethe/T-Q machinery.

The transfer matrix is built in the theta parametrization of the zero-field
vertex weights at crossing parameter eta = pi/3, where it commutes with the
XYZ Hamiltonian on the supersymmetric line. On Baxter's path basis the
supersymmetry acts by a purely local move (two up-steps -> one down-step)
with weight (-1)^x h(w_ell)^2, and the Bethe equations admit the root
extension u_{m+1} = pi which lowers the chain length by one site.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import h, theta_and_derivative, theta_reach, w, zeta_of_nome
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    PoleError,
)
from .spinchain import _orbit_sector, _rank, build_sector_basis, project, rotate_left
from .supercharge import build_supercharges, susy_sector


# ---------------------------------------------------------------------------
# vertex weights and transfer matrix


@dataclass(frozen=True)
class VertexWeights:
    u: float
    a: float
    b: float
    c: float
    d: float


def vertex_weights(u, ctx):
    """Zero-field weights a,b,c,d at spectral parameter u, normalized so that
    a(u) + b(u) = theta_1(u, q)."""
    eta = ctx.eta
    rho = 2.0 / (ctx.theta(2, 0.0) * ctx.theta_sq(4, 0.0))
    t1 = ctx.theta_sq(1, 2 * eta)
    t4 = ctx.theta_sq(4, 2 * eta)
    um, up = u - eta, u + eta
    return VertexWeights(
        u=u,
        a=rho * t4 * ctx.theta_sq(4, um) * ctx.theta_sq(1, up),
        b=rho * t4 * ctx.theta_sq(1, um) * ctx.theta_sq(4, up),
        c=rho * t1 * ctx.theta_sq(4, um) * ctx.theta_sq(4, up),
        d=rho * t1 * ctx.theta_sq(1, um) * ctx.theta_sq(1, up),
    )


def weight_tensor(u, ctx):
    """Vertex tensor W[mu_in, alpha_bottom, mu_out, alpha_top] (0 = spin +)."""
    vw = vertex_weights(u, ctx)
    W = np.zeros((2, 2, 2, 2))
    for mu in (0, 1):
        for al in (0, 1):
            # both lines conserved
            W[mu, al, mu, al] = vw.a if mu == al else vw.b
            # both lines flipped
            W[mu, al, 1 - mu, 1 - al] = vw.d if mu == al else vw.c
    return W


def transfer_matrix(n, u, ctx, inhomogeneities=None):
    """Row-to-row transfer matrix on the full 2^n space.

    Entry [alpha', alpha] sums over horizontal bond spins; site j is bit j-1
    of the bitmask. Optional per-site shifts u -> u - u_j.
    """
    if n < 2:
        raise DomainError(f"transfer matrix needs n >= 2, got {n}")
    if not cmath.isfinite(u):
        raise DomainError(f"spectral parameter u must be finite, got {u}")
    if inhomogeneities is not None and len(inhomogeneities) != n:
        raise DomainError("need one inhomogeneity per site")
    # G[x, m, A', A]: open horizontal indices (first bond x, current bond m)
    # and the vertical indices of the first j sites (site 1 = lowest bit).
    G = np.eye(2).reshape(2, 2, 1, 1)
    for j in range(n):
        shift = inhomogeneities[j] if inhomogeneities is not None else 0.0
        W = weight_tensor(u - shift, ctx)
        G = np.einsum("xmpq,manb->xnbpaq", G, W)
        dim = G.shape[3] * 2
        G = G.reshape(2, 2, dim, dim)
    return np.einsum("xxpq->pq", G)


def hamiltonian_from_transfer(n, ctx):
    """XYZ Hamiltonian from the logarithmic derivative of the transfer matrix.

    With the weight normalization a(u) + b(u) = h(u) and b(eta) = 0 used here,
    H_N = [ n h'(eta) - h(eta) T(eta)^{-1} T'(eta) ] / b'(eta),
    including the constant shift N (J_x + J_y + J_z)/2. Central differences
    with step 1e-5.
    """
    eta = ctx.eta
    step = 1e-5
    T0 = transfer_matrix(n, eta, ctx)
    Tp = (transfer_matrix(n, eta + step, ctx) - transfer_matrix(n, eta - step, ctx)) / (
        2 * step
    )
    vp, vm = vertex_weights(eta + step, ctx), vertex_weights(eta - step, ctx)
    bprime = (vp.b - vm.b) / (2 * step)
    hprime = (vp.a + vp.b - vm.a - vm.b) / (2 * step)
    a0 = vertex_weights(eta, ctx).a
    return (n * hprime * np.eye(1 << n) - a0 * np.linalg.solve(T0, Tp)) / bprime


# ---------------------------------------------------------------------------
# path basis


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


# A path is also the integer code ell << n | mask, where bit x-1 of the mask
# marks a down step at x; the codes of all admissible paths ascend.


def _path_codes(n):
    """Ascending codes of the admissible paths of n sites."""
    masks = np.arange(1 << n)
    downs = sum((masks >> j) & 1 for j in range(n))
    masks = masks[(n - 2 * downs) % 3 == 0]
    return np.concatenate([(ell << n) | masks for ell in range(3)])


def _path_of_code(code, n):
    """The PathState of a path code."""
    return PathState(
        ell=code >> n, positions=tuple(x + 1 for x in range(n) if code >> x & 1), n=n
    )


def _translate_path_codes(codes, n):
    """`path_translate` on an integer array of path codes."""
    mask, ell = codes & ((1 << n) - 1), codes >> n
    down = mask >> (n - 1)
    return (((ell + 2 * down - 1) % 3) << n) | rotate_left(mask, n)


@functools.lru_cache(maxsize=256)
def _require_independent(ctx):
    """ctx.require_independent_local_vectors(), run once per context."""
    ctx.require_independent_local_vectors()


@functools.lru_cache(maxsize=1024)
def _local_vector_table(ctx, n, shift):
    """Read-only local vectors of the sites of an n-site path with the given
    inhomogeneity, for every height -n <= lower <= n + 2.

    table[0, lower + n] is the up-step vector at argument
    s + (2 lower + 1) eta + shift, table[1, lower + n] the down-step vector at
    t + (2 lower + 1) eta - shift; each is (theta_1, theta_4) at nome q^2.
    """
    lowers = range(-n, n + 3)
    args = np.array(
        [
            [ctx.s + (2 * lower + 1) * ctx.eta + shift for lower in lowers],
            [ctx.t + (2 * lower + 1) * ctx.eta - shift for lower in lowers],
        ]
    )
    table = np.stack([ctx.theta_sq(1, args), ctx.theta_sq(4, args)], axis=-1)
    table.flags.writeable = False
    return table


def path_state_vector(p, ctx, inhomogeneities=None):
    """Tensor product of local two-component vectors (site 1 = lowest bit)."""
    _require_independent(ctx)
    if inhomogeneities is not None and len(inhomogeneities) != p.n:
        raise DomainError("need one inhomogeneity per site")
    hs = p.heights()
    down = set(p.positions)
    vec = np.ones(1)
    for j in range(1, p.n + 1):
        shift = inhomogeneities[j - 1] if inhomogeneities is not None else 0.0
        table = _local_vector_table(ctx, p.n, shift)
        if j in down:
            comp = table[1, hs[j] + p.n]  # height after the down step
        else:
            comp = table[0, hs[j - 1] + p.n]
        vec = np.outer(comp, vec).ravel()
    return vec


def path_matrix(n, ctx, inhomogeneities=None):
    """(states, matrix) with one column per admissible path."""
    if n < 2:
        raise DomainError(f"the path basis needs n >= 2, got {n}")
    states = path_states(n)
    M = np.column_stack(
        [path_state_vector(p, ctx, inhomogeneities) for p in states]
    )
    return states, M


def _path_blocks(n, ctx, inhomogeneities=None):
    """The path matrix M as blocks [(B, M_B)], with M M^H = sum_B B M_B M_B^H B^H.

    A one-site translation S permutes the paths, S|p> = |path_translate(p)>,
    so M M^H commutes with S and splits over its eigenspaces: B is the
    embedding of the momentum sector with S = t, and M_B = B^H [sqrt(p_r) |r>]
    over the representatives r of the path orbits whose period p_r has
    t^{p_r} = 1 (an orbit of another period has no component at t). Only the
    representatives' path vectors are built. An inhomogeneous chain has no
    translation symmetry and is one block: the identity and the whole M.
    """
    if n < 2:
        raise DomainError(f"the path basis needs n >= 2, got {n}")
    if inhomogeneities is not None:
        return [(sp.identity(1 << n, format="csc"), path_matrix(n, ctx, inhomogeneities)[1])]
    step = lambda codes: (_translate_path_codes(codes, n), 1.0)
    orbits = _orbit_sector(_path_codes(n), n, step, 1.0).orbit_reps
    periods = np.array([p for _, p in orbits])
    R = np.column_stack(
        [path_state_vector(_path_of_code(r, n), ctx) for r, _ in orbits]
    ) * np.sqrt(periods)
    blocks = []
    for k in range(n):
        B = build_sector_basis(n, cmath.exp(2j * math.pi * k / n)).embedding
        # compress keeps the columns C-ordered, which the sparse product needs
        blocks.append((B, B.conj().T @ R.compress(k * periods % n == 0, axis=1)))
    return blocks


def path_rank_complement(n, ctx, inhomogeneities=None, complement=True):
    """(rank, complement) of the path matrix from the SVDs of its blocks.

    The singular values of M are the union of those of the blocks
    (`_path_blocks`), so one cut against the largest of them all gives the
    rank. With complement=False only the singular values are computed and the
    complement is None. The complement is the orthonormal basis of the
    orthogonal complement of the path span, the union over the blocks of B
    times the left singular vectors past the block's count above the cut; it
    exists only for odd n, where it must have dimension 2.
    """
    if complement and n % 2 == 0:
        raise DomainError("the path span has a complement only for odd n")
    blocks = _path_blocks(n, ctx, inhomogeneities)
    if complement:
        svds = [np.linalg.svd(M) for _, M in blocks]
    else:
        svds = [(None, np.linalg.svd(M, compute_uv=False), None) for _, M in blocks]
    s_max = max(s[0] for _, s, _ in svds if len(s))
    counts = [_rank(s, s_max) for _, s, _ in svds]
    rank = sum(counts)
    if not complement:
        return rank, None
    # only blocks that miss some direction join, so the complement is float64
    # when those blocks are real; with fewer paths than states, one always does
    comp = np.hstack([B @ u[:, c:] for (B, _), (u, _, _), c in zip(blocks, svds, counts)
                      if c < u.shape[1]])
    if comp.shape[1] != 2:
        raise InvariantViolation(
            f"path complement at n={n} has dimension {comp.shape[1]}, expected 2"
        )
    return rank, comp


def path_rank(n, ctx, inhomogeneities=None):
    return path_rank_complement(n, ctx, inhomogeneities, complement=False)[0]


def path_complement(n, ctx, inhomogeneities=None):
    """Orthonormal basis of the orthogonal complement of the path span."""
    return path_rank_complement(n, ctx, inhomogeneities)[1]


# ---------------------------------------------------------------------------
# supercharge on path coordinates


def hatQ_dagger(n, ctx):
    """Matrix of the particle-inserting supercharge on path coordinates,
    mapping paths of n sites (m down steps) to paths of n-1 sites (m+1).

    Insertion of a down step at x between particles x_{r-1} and x_r carries
    the weight (-1)^x h(w_{ell_{x+1}})^2, with ell_{x+1} the local height of
    the incoming path just after position x.
    """
    if n < 3:
        raise DomainError("hatQ needs n >= 3")
    src = path_states(n)
    dst = path_states(n - 1)
    index = {(p.ell, p.positions): i for i, p in enumerate(dst)}
    Qd = np.zeros((len(dst), len(src)))
    hw = [h(w(ell, ctx), ctx) for ell in range(3)]
    for col, p in enumerate(src):
        xs = p.positions
        m = p.m
        bounds = (0,) + xs + (n + 1,)
        for r in range(1, m + 2):
            for x in range(bounds[r - 1] + 1, bounds[r] - 1):
                new_pos = xs[: r - 1] + (x,) + tuple(xi - 1 for xi in xs[r - 1:])
                height = (p.ell + x - 2 * (r - 1)) % 3
                weight = (-1.0) ** x * hw[height] ** 2
                Qd[index[(p.ell, new_pos)], col] += weight
    return Qd


def hatQ_spin(n, ctx):
    """Spin-space lift of hatQ_{n-1}: maps H_{n-1} -> H_n.

    Built as the adjoint of M_{n-1} hatQ^dag pinv(M_n); the pseudo-inverse
    projects onto the path span, consistent with the convention that the two
    complement states at odd length are annihilated.
    """
    _, M_n = path_matrix(n, ctx)
    _, M_dn = path_matrix(n - 1, ctx)
    Y = M_dn @ hatQ_dagger(n, ctx) @ np.linalg.pinv(M_n)
    return Y.conj().T


def intertwining_residual(n, u, ctx, charge="Q"):
    """|| T_N(u) X_{N-1} + h(u) X_{N-1} T_{N-1}(u) || on the momentum sectors,
    for X one of the supercharges Q, Qtilde (spin space, at zeta(q)) or the
    path-basis charge hatQ lifted to spin space."""
    if n < 3:
        raise DomainError("intertwining check needs n >= 3")
    dom = susy_sector(n - 1)
    cod = susy_sector(n)
    Tn = project(transfer_matrix(n, u, ctx), cod).matrix
    Tdn = project(transfer_matrix(n - 1, u, ctx), dom).matrix
    if charge == "hatQ":
        X = project(hatQ_spin(n, ctx), dom, cod).matrix
    elif charge in ("Q", "Qtilde"):
        pair = build_supercharges(n - 1, zeta_of_nome(ctx.nome))
        X = pair.q_plain.matrix if charge == "Q" else pair.q_tilde.matrix
    else:
        raise DomainError(f"unknown charge {charge!r}")
    return float(np.linalg.norm(Tn @ X + h(u, ctx) * X @ Tdn))


# ---------------------------------------------------------------------------
# Bethe ansatz


@dataclass(frozen=True)
class BetheRoots:
    roots: tuple
    omega: complex
    n: int

    def __post_init__(self):
        if abs(self.omega ** 3 - 1.0) > 1e-9:
            raise DomainError("omega must be a cube root of unity")

    @property
    def m(self):
        return len(self.roots)


def _require_distinct(roots):
    for i, j in itertools.combinations(range(len(roots)), 2):
        if abs(roots[i] - roots[j]) < 1e-9:
            raise DomainError(
                "coincident Bethe roots force a vanishing wave function"
            )


def bethe_residual(br, ctx):
    """LHS - RHS of the Bethe equations for each root.

    The product on the right runs over all k including k = j; the diagonal
    factor h(2 eta)/h(-2 eta) = -1 is part of the convention here, fixed by
    the reduction of the (m+1)-th equation under the u = pi extension.
    """
    _require_distinct(br.roots)
    eta = ctx.eta
    out = []
    for uj in br.roots:
        below, above = h(uj - eta, ctx), h(uj + eta, ctx)
        if abs(below) < 1e-12 or abs(above) < 1e-12:
            raise PoleError(f"Bethe root {uj} sits at a zero of h(u -+ eta)")
        lhs = (above / below) ** br.n
        rhs = -br.omega ** 2
        for uk in br.roots:
            rhs *= h(uj - uk + 2 * eta, ctx) / h(uj - uk - 2 * eta, ctx)
        out.append(lhs - rhs)
    return out


def translation_eigenvalue(br, ctx):
    """t_N = omega^{-1} prod_j h(u_j + eta)/h(u_j - eta)."""
    eta = ctx.eta
    val = 1.0 / br.omega
    for uj in br.roots:
        val *= h(uj + eta, ctx) / h(uj - eta, ctx)
    return val


def tq_eigenvalue(u, br, ctx):
    """Transfer-matrix eigenvalue from the T-Q relation."""
    eta = ctx.eta

    def qfun(v):
        return math.prod((h(v - uj, ctx) for uj in br.roots), start=1.0 + 0.0j)

    at_u = [h(u - uj, ctx) for uj in br.roots]
    denom = math.prod(at_u, start=1.0 + 0.0j)
    scale = max(1.0, max(map(abs, at_u), default=1.0))
    if abs(denom) < 1e-12 * scale:
        raise PoleError(f"T-Q evaluation at a zero of Q(u), u={u}")
    phi = lambda v: h(v, ctx) ** br.n
    return (
        br.omega * phi(u - eta) * qfun(u + 2 * eta)
        + phi(u + eta) / br.omega * qfun(u - 2 * eta)
    ) / denom


def extend_by_pi(br, ctx):
    """Append the root pi, lowering the chain length by one.

    Only allowed when t_N = (-1)^{N+1} to 1e-8; the (m+1)-th Bethe equation
    of the shorter chain reduces to exactly this condition.
    """
    t = translation_eigenvalue(br, ctx)
    if abs(t - (-1.0) ** (br.n + 1)) > 1e-8:
        raise DomainError(
            f"extension by pi needs t_N = {(-1) ** (br.n + 1)}, got {t:.6g}"
        )
    return BetheRoots(roots=br.roots + (math.pi,), omega=br.omega, n=br.n - 1)


_IMAG_WINDOW = 1.2  # the Newton starts span |Im u| <= _IMAG_WINDOW
_NEWTON_TOL = 1e-11


def _bethe_entire(U, n, omega, ctx):
    """Entire form of the Bethe system on a batch of candidate root tuples,
    and its exact Jacobian.

    U has shape (K, m); F has the same shape, with F = 0 exactly on solutions
    (common-denominator form, no poles):
        F_j = h(u_j + eta)^n prod_k h(u_j - u_k - 2 eta)
              + omega^2 h(u_j - eta)^n prod_k h(u_j - u_k + 2 eta),
    the products over every k, k = j included. J[:, j, l] = dF_j/du_l, from
    h and h' by the product rule over the factors; the k = j factor
    h(-+2 eta) is a constant. h is odd and h' even, so h and h' at
    u_j - u_k + 2 eta are -h and h' at u_k - u_j - 2 eta, and only the
    arguments u -+ eta and u_j - u_k - 2 eta (j != k) are evaluated.
    """
    K, m = U.shape
    eta = ctx.eta
    rows, cols = np.nonzero(~np.eye(m, dtype=bool))
    args = np.concatenate([U + eta, U - eta, U[:, rows] - U[:, cols] - 2 * eta], axis=1)
    val, der = theta_and_derivative(1, args, ctx.nome)
    # D[j, k] = h(u_j - u_k - 2 eta) and dD its h'; the diagonal of dD stays 0
    D = np.full((K, m, m), h(-2 * eta, ctx), dtype=complex)
    dD = np.zeros((K, m, m), dtype=complex)
    D[:, rows, cols], dD[:, rows, cols] = val[:, 2 * m:], der[:, 2 * m:]
    F = np.zeros((K, m), dtype=complex)
    J = np.zeros((K, m, m), dtype=complex)
    diag = np.arange(m)
    ones = np.ones((K, m, 1), dtype=complex)
    sides = (
        (1.0, val[:, :m], der[:, :m], D, dD),
        (omega ** 2, val[:, m:2 * m], der[:, m:2 * m], -D.transpose(0, 2, 1),
         dD.transpose(0, 2, 1)),
    )
    for phase, v, dv, d, dd in sides:
        power = v ** n
        prod = np.prod(d, axis=2)
        # E[j, k] = h'(u_j - u_k -+ 2 eta) prod_{k' != k} h(u_j - u_k' -+ 2 eta)
        before = np.cumprod(np.concatenate([ones, d[:, :, :-1]], axis=2), axis=2)
        after = np.cumprod(np.concatenate([ones, d[:, :, :0:-1]], axis=2), axis=2)[:, :, ::-1]
        E = before * after * dd
        F += phase * (power * prod)
        J -= phase * (power[:, :, None] * E)
        J[:, diag, diag] += phase * (n * v ** (n - 1) * dv * prod + power * E.sum(axis=2))
    return F, J


def _newton_polish(U, n, omega, ctx):
    """Newton iteration of the entire Bethe system on the rows of U (K, m),
    with the exact Jacobian of `_bethe_entire`.

    A row has converged when every |F| is below _NEWTON_TOL. Only the live
    rows (not converged, not frozen) are evaluated; a finished row is never
    updated again. Frozen (diverged) rows end as NaN.
    """
    m = U.shape[1]
    # the reach of h', which never exceeds that of h
    reach = theta_reach(1, ctx.nome, derivative=True)

    def freeze(V):
        # a root more than one maximal step outside the strip
        # |Im u| <= _IMAG_WINDOW + 0.2 that the caller keeps, or an argument
        # u -+ eta or u_1 - u_2 -+ 2 eta of h at or past the reach of the
        # theta' series, where it raises RangeError
        args = np.concatenate([V, V[:, :1] - V[:, 1:]], axis=1)
        far = np.any(np.abs(V.imag) > _IMAG_WINDOW + 5.2, axis=1)
        V[far | np.any(np.abs(args.imag) >= reach, axis=1)] = np.nan

    U = U.copy()
    freeze(U)
    live = np.arange(len(U))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(60):
            V = U[live]
            F, J = _bethe_entire(V, n, omega, ctx)
            keep = np.all(np.isfinite(F), axis=1) & (np.max(np.abs(F), axis=1) >= _NEWTON_TOL)
            if not np.any(keep):
                break
            live, V, F, J = live[keep], V[keep], F[keep], J[keep]
            if m == 1:
                step = F / np.where(J[:, :, 0] == 0, np.nan, J[:, :, 0])
            else:
                det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
                det = np.where(np.abs(det) < 1e-30, np.nan, det)
                step = np.empty_like(V)
                step[:, 0] = (J[:, 1, 1] * F[:, 0] - J[:, 0, 1] * F[:, 1]) / det
                step[:, 1] = (J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]) / det
            # freeze diverging trajectories instead of chasing them: a step
            # longer than 5, or a root out of the bounds above
            step = np.where(np.abs(step) > 5.0, np.nan, step)
            V = V - step
            freeze(V)
            U[live] = V
    return U


def _newton_starts(m):
    """Start rows (K, m) of the Newton scan: a grid over 0 <= Re u < pi,
    |Im u| <= _IMAG_WINDOW (13 x 7 points for m = 1), and for m = 2 every
    pair of the points of a 9 x 5 grid."""
    n_re, n_im = (9, 5) if m == 2 else (13, 7)
    res = np.linspace(0.0, math.pi, n_re, endpoint=False)
    ims = np.linspace(-_IMAG_WINDOW, _IMAG_WINDOW, n_im)
    starts = [complex(x, y) for x in res for y in ims]
    if m == 1:
        return np.array([[s] for s in starts])
    return np.array([[s1, s2] for s1, s2 in itertools.combinations(starts, 2)])


def find_bethe_roots(n, m, omega, ctx):
    """Grid scan plus batched Newton polishing of the Bethe equations, m <= 2.

    Returns a list of BetheRoots with distinct roots, |Im u| at most
    _IMAG_WINDOW + 0.2 and residuals < 1e-9, deduplicated modulo pi shifts
    and root permutations. A height path of n steps with m down steps closes
    only if n - 2m = 0 mod 3, so for other (n, m) every Bethe vector vanishes
    and the search raises DomainError.
    """
    if m not in (1, 2):
        raise DomainError("root searching is supported for m = 1, 2 only")
    if (n - 2 * m) % 3:
        raise DomainError(
            f"no height path of n={n} steps has m={m} down steps (n - 2m must be 0 mod 3)"
        )
    omega = complex(omega)
    U = _newton_polish(_newton_starts(m), n, omega, ctx)

    found, forms = [], []

    def canonical(us):
        # shift each root's real part into [0, pi) -- h(u+pi) = -h(u) keeps
        # the equations invariant -- and sort for permutation invariance
        vals = []
        for uu in us:
            re = uu.real % math.pi
            if re > math.pi - 1e-6:  # wrap values that land just below pi
                re -= math.pi
            vals.append(complex(re, uu.imag))
        return sorted(vals, key=lambda z: (round(z.real, 6), round(z.imag, 6)))

    for row in U:
        if not np.all(np.isfinite(row)):
            continue
        us = [complex(v) for v in row]
        # keep only the fundamental strip: copies shifted by the imaginary
        # quasi-period of the theta functions assemble to vanishing vectors
        if any(abs(uu.imag) > _IMAG_WINDOW + 0.2 for uu in us):
            continue
        if m == 2 and abs(us[0].imag - us[1].imag) < 1e-6:
            # coincident (mod pi) roots give a vanishing wave function; roots
            # 2 eta apart (mod pi) put h(0) in a denominator of the Bethe
            # equations, so bethe_residual could only reject them
            d = (us[0] - us[1]).real
            gaps = [(d - shift) % math.pi for shift in (0.0, 2 * ctx.eta, -2 * ctx.eta)]
            if any(min(gap, math.pi - gap) < 1e-6 for gap in gaps):
                continue
        # a copy of a found (hence validated) set needs no validation
        form = canonical(us)
        if any(all(abs(a - b) < 1e-6 for a, b in zip(form, f)) for f in forms):
            continue
        try:
            resid = bethe_residual(BetheRoots(tuple(us), omega, n), ctx)
        except (DomainError, PoleError):
            continue
        if max(abs(r) for r in resid) > 1e-9:
            continue
        found.append(us)
        forms.append(form)
    return [BetheRoots(tuple(us), omega, n) for us in found]


# ---------------------------------------------------------------------------
# Bethe wave functions


def single_particle_g(uj, ell, x, ctx):
    """Baxter's single-particle function g(ell, x) for rapidity u_j."""
    eta = ctx.eta
    eik = h(uj + eta, ctx) / h(uj - eta, ctx)
    return (
        eik ** x
        * h(w(ell + x - 1, ctx) - eta - uj, ctx)
        / (h(w(ell + x - 2, ctx), ctx) * h(w(ell + x - 1, ctx), ctx))
    )


def bethe_amplitudes(roots, ctx):
    """A_pi = sgn(pi) prod_{i<j} h(u_{pi(i)} - u_{pi(j)} + 2 eta)."""
    eta = ctx.eta
    m = len(roots)
    amps = {}
    for perm in itertools.permutations(range(m)):
        sign = 1.0
        for i, j in itertools.combinations(range(m), 2):
            if perm[i] > perm[j]:
                sign = -sign
        val = sign + 0.0j
        for i, j in itertools.combinations(range(m), 2):
            val *= h(roots[perm[i]] - roots[perm[j]] + 2 * eta, ctx)
        amps[perm] = val
    return amps


def bethe_wavefunction(br, ctx, ell, positions):
    """psi(ell; x_1 .. x_m) in Bethe-ansatz form."""
    amps = bethe_amplitudes(br.roots, ctx)
    total = 0.0j
    for perm, A in amps.items():
        term = A
        for slot, x in enumerate(positions):
            term *= single_particle_g(br.roots[perm[slot]], ell - 2 * slot, x, ctx)
        total += term
    return total


def bethe_vector(br, ctx):
    """Transfer eigenvector sum_ell omega^ell sum_x psi(ell; x) |ell; x>.

    The tensor-product orientation used here (site 1 = least significant
    bit) traverses paths in the direction opposite to the one implicit in
    the wave-function ansatz; the Bethe equations are symmetric under
    (u_j, omega) -> (-u_j, omega^{-1}), and assembling the wave function
    with the mapped data yields the eigenvector whose transfer and
    translation eigenvalues are tq_eigenvalue / translation_eigenvalue of
    the original roots.
    """
    flipped = BetheRoots(
        roots=tuple(-r for r in br.roots), omega=1.0 / br.omega, n=br.n
    )
    n = br.n
    vec = np.zeros(1 << n, dtype=complex)
    for p in path_states(n):
        if p.m != br.m:
            continue
        psi = bethe_wavefunction(flipped, ctx, p.ell, p.positions)
        if psi == 0:
            continue
        vec = vec + (flipped.omega ** p.ell) * psi * path_state_vector(p, ctx)
    return vec


def scattering_ratio(u1, u2, ctx):
    """Bare two-particle scattering factor -h(u2-u1+2eta)/h(u1-u2+2eta).

    Equals -1 at coincident rapidities, which forces the Bethe wave function
    to vanish there.
    """
    eta = ctx.eta
    return -h(u2 - u1 + 2 * eta, ctx) / h(u1 - u2 + 2 * eta, ctx)


# ---------------------------------------------------------------------------
# reduction from three to two sites


def theta_triple_product(kind, x, ctx):
    """f_kind(x) = prod_{k=0}^{2} theta_kind(x + 2 pi k / 3, q^2)."""
    return math.prod(
        ctx.theta_sq(kind, x + 2.0 * math.pi * k / 3.0) for k in range(3)
    )


def appendixB_decomposition(ctx):
    """Solve the 3 -> 2 site change of basis for the path-basis supercharge.

    The four translation-invariant three-site states chi_i (the two extreme
    paths summed over base heights, plus the two zero-energy combinations)
    are expanded over the momentum states psi_j through a closed-form matrix
    A built from the triple products f_j. Inverting A against the image
    vector b = (b_1, 0, 0, 0) yields the spin-basis coefficients (c1, c4) of
    hatQ_2^dag = c1 Q_2^dag + c4 Qt_2^dag, whose ratio is f_1(t)/f_4(t).

    A cross-check recomputes everything from the assembled path vectors;
    because theta_1 picks up a sign under x -> x + pi/3 while theta_4 does
    not, the path-vector route reproduces the same magnitudes with the f_1
    entries of A (and hence the ratio) carrying the opposite sign. Both
    ratios are reported.
    """
    _require_independent(ctx)
    zeta = zeta_of_nome(ctx.nome)
    s, t = ctx.s, ctx.t
    f1s, f4s = theta_triple_product(1, s, ctx), theta_triple_product(4, s, ctx)
    f1t, f4t = theta_triple_product(1, t, ctx), theta_triple_product(4, t, ctx)

    A = np.array(
        [
            [3 * f1s, -zeta * f4s, -zeta * f1s, 3 * f4s],
            [3 * f1t, -zeta * f4t, -zeta * f1t, 3 * f4t],
            [zeta, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, zeta],
        ]
    )
    if np.linalg.cond(A) > 1e10:
        raise ConfigurationError("singular change of basis: degenerate (s, t)")
    b1 = h((s - t) / 2.0, ctx) * sum(h(w(ell, ctx), ctx) ** 3 for ell in range(3))
    v = np.linalg.solve(A, np.array([b1, 0.0, 0.0, 0.0]))

    # hatQ_2^dag psi_i = v_i phi must decompose over the action tables
    # Q_2^dag -> (0, -zeta, 0, 1) and Qt_2^dag -> (-1, 0, zeta, 0)
    c1, c4 = v[3], -v[0]
    decomp_resid = np.linalg.norm(
        v
        - c1 * np.array([0.0, -zeta, 0.0, 1.0])
        - c4 * np.array([-1.0, 0.0, zeta, 0.0])
    )
    ratio = c1 / c4
    expected = f1t / f4t

    # cross-check against the explicitly assembled path vectors
    psi = np.zeros((8, 4))
    psi[0, 0] = 1.0
    for bits in (1, 2, 4):
        psi[bits, 1] = 1.0
    for bits in (6, 5, 3):
        psi[bits, 2] = 1.0
    psi[7, 3] = 1.0
    phi = np.zeros(4)
    phi[2], phi[1] = 1.0, -1.0

    states3, M3 = path_matrix(3, ctx)
    _, M2 = path_matrix(2, ctx)
    idx3 = {(p.ell, p.positions): i for i, p in enumerate(states3)}
    chi1_coord = np.zeros(len(states3))
    chi2_coord = np.zeros(len(states3))
    for ell in range(3):
        chi1_coord[idx3[(ell, ())]] = 1.0
        chi2_coord[idx3[(ell, (1, 2, 3))]] = 1.0
    chi = np.column_stack(
        [
            M3 @ chi1_coord,
            M3 @ chi2_coord,
            zeta * psi[:, 0] + psi[:, 2],
            zeta * psi[:, 3] + psi[:, 1],
        ]
    )
    A_path, *_ = np.linalg.lstsq(psi, chi, rcond=None)
    A_path = A_path.T
    Qd = hatQ_dagger(3, ctx)
    img1 = M2 @ (Qd @ chi1_coord)
    img2 = M2 @ (Qd @ chi2_coord)
    b1_path = float(np.dot(phi, img1) / np.dot(phi, phi))
    b2_path = float(np.dot(phi, img2) / np.dot(phi, phi))
    off_span = float(np.linalg.norm(img1 - b1_path * phi))
    v_path = np.linalg.solve(A_path, np.array([b1_path, b2_path, 0.0, 0.0]))
    ratio_path = v_path[3] / (-v_path[0])

    return {
        "zeta": zeta,
        "c1": float(c1),
        "c4": float(c4),
        "ratio": float(ratio),
        "expected_ratio": float(expected),
        "ratio_error": float(abs(ratio - expected) / max(1.0, abs(expected))),
        "b1": float(b1),
        "b1_path": b1_path,
        "b2_path": b2_path,
        "image_off_span": off_span,
        "path_convention_ratio": float(ratio_path),
        "decomposition_residual": float(decomp_resid),
        "pass": bool(
            abs(ratio - expected) < 1e-9 * max(1.0, abs(expected))
            and abs(b1 - b1_path) < 1e-9 * max(1.0, abs(b1))
            and abs(ratio_path + expected) < 1e-9 * max(1.0, abs(expected))
            and decomp_resid < 1e-9 * max(1.0, float(np.linalg.norm(v)))
            and off_span < 1e-9
        ),
    }
