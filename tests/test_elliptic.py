import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyxyz.elliptic import (
    _MAX_TERMS,
    ETA_SUSY,
    ThetaContext,
    h,
    theta,
    theta_and_derivative,
    theta_reach,
    w,
    zeta_of_nome,
)
from susyxyz.errors import ConfigurationError, DomainError, RangeError

# values from mpmath.jtheta(kind, z, q), frozen here so the suite has no
# dependency on mpmath at runtime
MPMATH_THETA = [
    # (kind, z, q, value)
    (1, 0.7, 0.3, 0.83817877516948841),
    (2, 0.7, 0.3, 1.0638297480113753),
    (3, 0.7, 0.3, 1.0866969908910608),
    (4, 0.7, 0.3, 0.88277501862550187),
    (1, 2.1, 0.05, 0.81633324830842246),
    (4, -1.3, 0.62, 2.1989938023674785),
    (2, 0.0, 0.25, 1.502947261299398),
    (3, 0.0, 0.85, 4.3966607850446796),
]


@pytest.mark.parametrize("kind,z,q,ref", MPMATH_THETA)
def test_theta_against_reference_values(kind, z, q, ref):
    assert theta(kind, z, q) == pytest.approx(ref, rel=1e-13)


def test_theta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        theta(5, 0.3, 0.2)
    with pytest.raises(DomainError):
        theta(1, 0.3, 1.0)
    with pytest.raises(DomainError):
        theta(1, 0.3, -0.1)


@pytest.mark.parametrize("kind", [0, 5])
def test_theta_reach_rejects_bad_kind(kind):
    # the reach of a kind that theta rejects is not the kind-3/4 reach
    with pytest.raises(DomainError, match="kind"):
        theta(kind, 0.3, 0.2)
    with pytest.raises(DomainError, match="kind"):
        theta_reach(kind, 0.2)


@given(
    z=st.floats(-6, 6),
    q=st.floats(0, 0.8),
)
@settings(max_examples=60, deadline=None)
def test_theta1_odd_and_antiperiodic(z, q):
    scale = max(1.0, abs(theta(1, z, q)))
    assert abs(theta(1, -z, q) + theta(1, z, q)) < 1e-12 * scale
    assert abs(theta(1, z + math.pi, q) + theta(1, z, q)) < 1e-11 * scale


@given(z=st.floats(-6, 6), q=st.floats(0, 0.8))
@settings(max_examples=60, deadline=None)
def test_theta4_even_and_periodic(z, q):
    scale = max(1.0, abs(theta(4, z, q)))
    assert abs(theta(4, -z, q) - theta(4, z, q)) < 1e-12 * scale
    assert abs(theta(4, z + math.pi, q) - theta(4, z, q)) < 1e-11 * scale


@given(z=st.floats(-3, 3), q=st.floats(0.01, 0.7))
@settings(max_examples=40, deadline=None)
def test_quarter_period_exchange(z, q):
    # theta_1(z + pi/2) = theta_2(z), theta_4(z + pi/2) = theta_3(z)
    assert theta(1, z + math.pi / 2, q) == pytest.approx(theta(2, z, q), abs=1e-12)
    assert theta(4, z + math.pi / 2, q) == pytest.approx(theta(3, z, q), abs=1e-12)


def test_complex_argument_matches_series():
    z = 0.4 + 0.3j
    # mpmath.jtheta(1, 0.4+0.3j, 0.35)
    ref = 0.38054847761467659 + 0.35889004268448253j
    assert abs(theta(1, z, 0.35) - ref) < 1e-12


def test_h_is_theta1():
    ctx = ThetaContext(nome=0.4)
    assert h(1.1, ctx) == theta(1, 1.1, 0.4)


def test_w_spacing():
    ctx = ThetaContext(nome=0.2, s=0.5, t=-0.3)
    assert w(1, ctx) - w(0, ctx) == pytest.approx(2 * math.pi / 3)
    assert w(3, ctx) - w(0, ctx) == pytest.approx(2 * math.pi)


def test_zeta_saturates_below_one():
    # the map q -> zeta increases from 0 towards 1 and saturates there
    assert zeta_of_nome(0.0) == 0.0
    zetas = [zeta_of_nome(q) for q in (0.05, 0.2, 0.45, 0.7)]
    assert 0 < zetas[0] and zetas == sorted(zetas) and zetas[-1] < 1
    assert zeta_of_nome(0.99) == pytest.approx(1.0, abs=1e-8)


def test_context_validates_nome():
    with pytest.raises(DomainError):
        ThetaContext(nome=1.2)
    # and the path-basis parameters, whose non-finite values made the SVD fail
    for s, t in ((math.inf, -0.7), (0.3, math.nan), (-math.inf, math.inf)):
        with pytest.raises(DomainError):
            ThetaContext(nome=0.2, s=s, t=t)
    assert ThetaContext(nome=0.2).eta == ETA_SUSY


def test_degenerate_local_vectors_detected():
    ctx = ThetaContext(nome=0.2, s=0.4, t=0.4)  # s = t makes the vectors parallel
    with pytest.raises(ConfigurationError):
        ctx.require_independent_local_vectors()
    ThetaContext(nome=0.2).require_independent_local_vectors()  # default pair is fine


# ---------------------------------------------------------------------------
# the cached-coefficient kernel against the per-term loop it replaced


def _theta_per_term_loop(kind, z, nome, trunc_tol=1e-16):
    """The former theta: one term at a time, the stopping bound re-derived
    from np.max |Im z| after every term, silently truncated at _MAX_TERMS."""
    z = np.asarray(z)
    is_complex = np.iscomplexobj(z)
    total = np.zeros(z.shape, dtype=complex if is_complex else float)
    for n in range(_MAX_TERMS):
        if kind == 1:
            term = 2.0 * (-1.0) ** n * nome ** ((n + 0.5) ** 2) * np.sin((2 * n + 1) * z)
        elif kind == 2:
            term = 2.0 * nome ** ((n + 0.5) ** 2) * np.cos((2 * n + 1) * z)
        elif kind == 3:
            term = 1.0 if n == 0 else 2.0 * nome ** (n ** 2) * np.cos(2 * n * z)
        else:
            term = 1.0 if n == 0 else 2.0 * (-1.0) ** n * nome ** (n ** 2) * np.cos(2 * n * z)
        total = total + term
        if kind in (1, 2):
            bound = 2.0 * nome ** ((n + 1.5) ** 2)
        else:
            bound = 2.0 * nome ** ((n + 1) ** 2)
        if is_complex:
            bound *= math.exp((2 * n + 3) * float(np.max(np.abs(z.imag)))) if z.size else 1.0
        if bound < trunc_tol:
            break
    if total.ndim == 0:
        return total[()]
    return total


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_theta_matches_per_term_loop(kind):
    rng = np.random.default_rng(kind)
    for _ in range(200):
        q = float(rng.uniform(0.0, 0.9))
        x = rng.uniform(-8.0, 8.0, 5)
        zs = [x, x + 1j * rng.uniform(-3.0, 3.0, 5)]
        zs += [float(x[0]), complex(zs[1][0]), x[1], zs[1][1]]  # Python and numpy scalars
        for z in zs:
            got, ref = theta(kind, z, q), _theta_per_term_loop(kind, z, q)
            assert type(got) is type(ref)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_nan_entries_do_not_change_finite_entries(kind):
    rng = np.random.default_rng(10 + kind)
    z = rng.uniform(-3.0, 3.0, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
    clean = theta(kind, z, 0.3)
    dirty = z.copy()
    dirty[[1, 4]] = np.nan
    dirty[6] = complex(0.2, np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        out = theta(kind, dirty, 0.3)
    keep = np.isfinite(dirty)
    assert np.array_equal(out[keep], clean[keep])
    assert not np.any(np.isfinite(out[[1, 4]]))
    real = theta(kind, np.where(keep, z.real, np.nan), 0.3)
    assert np.array_equal(real[keep], theta(kind, z.real, 0.3)[keep])
    # scalars, Python and numpy alike, give nan where math/cmath would raise
    scalars = [math.inf, -math.inf, math.nan, complex(0.2, math.inf), complex(math.nan, 0.1)]
    scalars += [np.float64(math.inf), np.complex128(complex(math.inf, 0.0))]
    with np.errstate(invalid="ignore", over="ignore"):
        for zs in scalars:
            assert np.isnan(theta(kind, zs, 0.3))


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_theta_of_an_element_does_not_depend_on_its_batch(kind):
    # each element is summed to the term count of its own |Im z|, so the
    # small-|Im z| elements of a batch are not summed further because of the
    # large ones: alone and in the batch, the values agree bit for bit
    rng = np.random.default_rng(20 + kind)
    z = rng.uniform(-4.0, 4.0, 40) + 1j * rng.choice([0.0, 0.3, 2.0, 6.5], 40)
    z[[3, 17]] = np.nan
    for nome in (0.2, 0.45, 0.9):
        z = np.where(np.abs(z.imag) < theta_reach(kind, nome, derivative=True), z, z.real)
        with np.errstate(invalid="ignore"):
            batch = theta(kind, z, nome)
            both = theta_and_derivative(kind, z.reshape(5, 8), nome)
            for i, zi in enumerate(z):
                alone = theta(kind, np.array([zi]), nome)[0]
                assert np.array_equal(alone, batch[i], equal_nan=True)
                assert np.array_equal(theta(kind, np.array(zi), nome), alone, equal_nan=True)
                pair = theta_and_derivative(kind, zi, nome)
                assert np.array_equal(pair[0], alone, equal_nan=True)
                assert np.array_equal(pair[1], both[1].ravel()[i], equal_nan=True)
        assert np.array_equal(both[0].ravel(), batch, equal_nan=True)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_theta_and_derivative_shapes_and_types(kind):
    value, slope = theta_and_derivative(kind, 0.7, 0.3)
    assert type(value) is type(slope) is np.float64
    assert value == theta(kind, np.array([0.7]), 0.3)[0]
    value, slope = theta_and_derivative(kind, np.zeros((2, 0), dtype=complex), 0.3)
    assert value.shape == slope.shape == (2, 0)
    value, slope = theta_and_derivative(kind, np.array([[0.4 + 0.2j]]), 0.3)
    assert value.shape == slope.shape == (1, 1) and value.dtype == complex


@given(kind=st.integers(1, 4), z=st.floats(-6, 6), q=st.floats(0, 0.95))
@settings(max_examples=80, deadline=None)
def test_theta_real_against_mpmath(kind, z, q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.jtheta(kind, z, q))
    assert abs(theta(kind, z, q) - ref) <= 1e-13 * max(1.0, abs(ref))


@given(
    kind=st.integers(1, 4),
    x=st.floats(-6, 6),
    y=st.floats(-1.5, 1.5),
    q=st.floats(0, 0.5),
)
@settings(max_examples=80, deadline=None)
def test_theta_complex_against_mpmath(kind, x, y, q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = complex(mpmath.jtheta(kind, mpmath.mpc(x, y), q))
    assert abs(theta(kind, complex(x, y), q) - ref) <= 1e-13 * max(1.0, abs(ref))


@given(kind=st.integers(1, 4), z=st.floats(-6, 6), q=st.floats(0, 0.95))
@settings(max_examples=80, deadline=None)
def test_theta_derivative_real_against_mpmath(kind, z, q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.jtheta(kind, z, q, derivative=1))
    assert abs(theta_and_derivative(kind, z, q)[1] - ref) <= 1e-13 * max(1.0, abs(ref))


@given(
    kind=st.integers(1, 4),
    x=st.floats(-6, 6),
    y=st.floats(-1.5, 1.5),
    q=st.floats(0, 0.5),
)
@settings(max_examples=80, deadline=None)
def test_theta_derivative_complex_against_mpmath(kind, x, y, q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = complex(mpmath.jtheta(kind, mpmath.mpc(x, y), q, derivative=1))
    got = theta_and_derivative(kind, complex(x, y), q)[1]
    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def test_theta_raises_instead_of_truncating():
    # 64 terms of the theta_3 series at q = 0.999 sum to 55.78; the value is 56.04
    with pytest.raises(RangeError):
        theta(3, 0.0, 0.999)
    with pytest.raises(RangeError):
        theta(1, np.array([0.1, 0.2]), 0.995)
    with pytest.raises(RangeError):  # the bound grows like exp((2n+3) |Im z|)
        theta(1, complex(0.3, 40.0), 0.45)
    # at q = 0.99 the series still converges: theta_3(0, q) = sqrt(pi / -ln q)
    # up to a relative exp(-pi^2 / -ln q) ~ 1e-429
    assert theta(3, 0.0, 0.99) == pytest.approx(math.sqrt(math.pi / -math.log(0.99)), rel=1e-13)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [0.2, 0.7, 0.9, 0.95])
def test_theta_reach_is_where_theta_starts_to_raise(kind, q):
    reach = theta_reach(kind, q)
    # the next-term bound 2 q^(p_n) e^((2n+3) y) must stay below 1e-16, and
    # e^((2n+3) y) a finite float, for some n < 64
    powers = [(n + 1.5) ** 2 if kind < 3 else (n + 1) ** 2 for n in range(64)]
    assert reach == pytest.approx(max(
        min(math.log(1e-16 / 2.0) - p * math.log(q), math.log(1.7976931348623157e308))
        / (2 * n + 3)
        for n, p in enumerate(powers)
    ))
    below = complex(0.4, reach * (1 - 1e-9))
    assert np.isfinite(theta(kind, below, q))
    assert np.all(np.isfinite(theta(kind, np.array([below, -below, math.nan]), q)[:2]))
    with pytest.raises(RangeError):
        theta(kind, complex(0.4, reach), q)
    with pytest.raises(RangeError):
        theta(kind, np.array([0.1, complex(0.4, -reach)]), q)
    assert theta_reach(kind, 0.999) < 0  # even real z fails there


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [0.2, 0.7, 0.9, 0.95])
def test_theta_derivative_reach_is_where_it_starts_to_raise(kind, q):
    reach = theta_reach(kind, q, derivative=True)
    # the next derivative term is at most 2n + 3 times the next term of theta:
    # (2n+3) 2 q^(p_n) e^((2n+3) y) must stay below 1e-16, and e^((2n+3) y) a
    # finite float, for some n < 64
    powers = [(n + 1.5) ** 2 if kind < 3 else (n + 1) ** 2 for n in range(64)]
    assert reach == pytest.approx(max(
        min(math.log(1e-16 / 2.0 / (2 * n + 3)) - p * math.log(q),
            math.log(1.7976931348623157e308)) / (2 * n + 3)
        for n, p in enumerate(powers)
    ))
    assert reach <= theta_reach(kind, q)
    below = complex(0.4, reach * (1 - 1e-9))
    assert all(np.isfinite(theta_and_derivative(kind, below, q)))
    values = theta_and_derivative(kind, np.array([below, -below, math.nan]), q)
    assert all(np.all(np.isfinite(v[:2])) for v in values)
    with pytest.raises(RangeError, match="theta_"):
        theta_and_derivative(kind, complex(0.4, reach), q)
    with pytest.raises(RangeError):
        theta_and_derivative(kind, np.array([0.1, complex(0.4, -reach)]), q)
    with pytest.raises(RangeError):
        theta_and_derivative(kind, 0.3, 0.999)  # even real z fails there
