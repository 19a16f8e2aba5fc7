import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyxyz.elliptic import (
    _MAX_TERMS,
    ETA_SUSY,
    ThetaContext,
    _series,
    _term_plan,
    h,
    theta,
    theta1_from_exp,
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


def _theta_and_derivative(kind, z, nome):
    """The former theta_and_derivative: theta's value, and theta' as the
    term-by-term derivative of the same series, one cos or sin of each
    argument per term, each element summed to the term count of the theta'
    reach table and its own |Im z|."""
    z = np.asarray(z)
    value = theta(kind, z, nome)
    coefs, freqs, tables = _series(kind, float(nome))
    flat = z.ravel()
    is_complex = np.iscomplexobj(flat)
    y = np.abs(flat.imag) if is_complex else np.zeros(flat.shape)
    order, ends = _term_plan(tables[1], y, np.isfinite(flat), kind, nome, derivative=True)
    flat = flat[order]
    slope = np.zeros(flat.shape, dtype=complex if is_complex else float)
    # d/dz coef sin(f z) = coef f cos(f z); d/dz coef cos(f z) = -coef f sin(f z)
    dtrig, sign = (np.cos, 1.0) if kind == 1 else (np.sin, -1.0)
    for n, end in enumerate(ends):
        if freqs[n]:
            slope[:end] += sign * coefs[n] * freqs[n] * dtrig(freqs[n] * flat[:end])
    slope[order] = slope.copy()
    slope = slope.reshape(z.shape)
    return value, slope[()] if slope.ndim == 0 else slope


def _from_exp(z, nome):
    """theta1_from_exp at the points z."""
    z = np.asarray(z)
    return theta1_from_exp(np.exp(1j * z), np.abs(z.imag), nome)


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
def test_non_finite_entries_raise_no_warning(kind):
    # a non-finite entry sums to NaN quietly, and the finite entries keep
    # the arithmetic of an array without it
    finite = np.array([0.3, -1.1, 0.7 + 0.4j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = theta(kind, np.array([0.3, np.inf, -1.1]), 0.2)
        assert np.array_equal(out[[0, 2]], theta(kind, finite[:2].real, 0.2))
        assert np.isnan(out[1])
        mixed = np.array([0.3, complex(0.2, np.inf), -1.1, complex(np.inf, 0.1), 0.7 + 0.4j])
        out = theta(kind, mixed, 0.2)
        assert np.array_equal(out[[0, 2, 4]], theta(kind, finite + 0j, 0.2))
        assert np.all(np.isnan(out[[1, 3]]))
        for z in (np.inf, -np.inf, complex(np.inf, 0.0), np.float64(np.inf)):
            assert np.isnan(theta(kind, z, 0.2))


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
            both = _theta_and_derivative(kind, z.reshape(5, 8), nome)
            for i, zi in enumerate(z):
                alone = theta(kind, np.array([zi]), nome)[0]
                assert np.array_equal(alone, batch[i], equal_nan=True)
                assert np.array_equal(theta(kind, np.array(zi), nome), alone, equal_nan=True)
                pair = _theta_and_derivative(kind, zi, nome)
                assert np.array_equal(pair[0], alone, equal_nan=True)
                assert np.array_equal(pair[1], both[1].ravel()[i], equal_nan=True)
        assert np.array_equal(both[0].ravel(), batch, equal_nan=True)


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_theta_and_derivative_shapes_and_types(kind):
    value, slope = _theta_and_derivative(kind, 0.7, 0.3)
    assert type(value) is type(slope) is np.float64
    assert value == theta(kind, np.array([0.7]), 0.3)[0]
    value, slope = _theta_and_derivative(kind, np.zeros((2, 0), dtype=complex), 0.3)
    assert value.shape == slope.shape == (2, 0)
    value, slope = _theta_and_derivative(kind, np.array([[0.4 + 0.2j]]), 0.3)
    assert value.shape == slope.shape == (1, 1) and value.dtype == complex
    if kind == 1:
        # theta1_from_exp takes E = e^{iz}, so its values are complex
        value, slope = theta1_from_exp(np.exp(0.7j), 0.0, 0.3)
        assert type(value) is type(slope) is np.complex128
        value, slope = theta1_from_exp(np.zeros((2, 0), dtype=complex), np.zeros((2, 0)), 0.3)
        assert value.shape == slope.shape == (2, 0)
        value, slope = _from_exp(np.array([[0.4 + 0.2j]]), 0.3)
        assert value.shape == slope.shape == (1, 1) and value.dtype == slope.dtype == complex


def test_theta1_from_exp_of_an_element_does_not_depend_on_its_batch():
    # each element gets the term count of its own y, so alone and in a batch
    # the values agree bit for bit; a NaN E gives NaN and never raises
    rng = np.random.default_rng(30)
    z = rng.uniform(-4.0, 4.0, 40) + 1j * rng.choice([0.0, 0.3, 2.0, 6.5], 40)
    for nome in (0.0, 0.2, 0.45, 0.9):
        reach = theta_reach(1, nome, derivative=True)
        zs = np.where(np.abs(z.imag) < reach, z, z.real)
        E, y = np.exp(1j * zs), np.abs(zs.imag)
        E[[3, 17]] = np.nan
        y[[5, 17]] = [np.inf, np.nan]
        E[8], y[8] = np.nan, 2 * reach + 1.0  # a non-finite element never raises
        batch = theta1_from_exp(E.reshape(5, 8), y.reshape(5, 8), nome)
        for i in range(len(z)):
            alone = theta1_from_exp(E[i:i + 1], y[i:i + 1], nome)
            scalar = theta1_from_exp(E[i], y[i], nome)
            for k in range(2):
                assert np.array_equal(alone[k][0], batch[k].ravel()[i], equal_nan=True)
                assert np.array_equal(scalar[k], alone[k][0], equal_nan=True)
        for part in batch:
            part = part.ravel()
            assert not np.any(np.isfinite(part[[3, 8, 17]]))
            finite = np.ones(len(z), dtype=bool)
            finite[[3, 5, 8, 17]] = False
            assert np.all(np.isfinite(part[finite]))


@pytest.mark.parametrize("nome", [0.0, 0.05, 0.2, 0.45])
def test_theta1_from_exp_matches_the_series_reference(nome):
    # within rounding of theta and of the theta' series with a cos per term
    rng = np.random.default_rng(int(100 * nome))
    z = rng.uniform(-6.0, 6.0, (20, 10)) + 1j * rng.uniform(-1.5, 1.5, (20, 10))
    value, slope = _from_exp(z, nome)
    ref_value, ref_slope = _theta_and_derivative(1, z, nome)
    assert np.all(np.abs(value - ref_value) <= 1e-13 * np.maximum(1.0, np.abs(ref_value)))
    assert np.all(np.abs(slope - ref_slope) <= 1e-13 * np.maximum(1.0, np.abs(ref_slope)))


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


@given(z=st.floats(-6, 6), q=st.floats(0, 0.95))
@settings(max_examples=80, deadline=None)
def test_theta_derivative_real_against_mpmath(z, q):
    # theta_1 and theta_1' of theta1_from_exp, which the Newton scan uses
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        refs = [float(mpmath.jtheta(1, z, q, derivative=d)) for d in (0, 1)]
    for got, ref in zip(_from_exp(z, q), refs):
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


@given(
    x=st.floats(-6, 6),
    y=st.floats(-1.5, 1.5),
    q=st.floats(0, 0.5),
)
@settings(max_examples=80, deadline=None)
def test_theta_derivative_complex_against_mpmath(x, y, q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        refs = [complex(mpmath.jtheta(1, mpmath.mpc(x, y), q, derivative=d)) for d in (0, 1)]
    for got, ref in zip(_from_exp(complex(x, y), q), refs):
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
    # the series reference for every kind, and theta1_from_exp for theta_1
    evaluators = [lambda z, q: _theta_and_derivative(kind, z, q)]
    evaluators += [_from_exp] if kind == 1 else []
    for evaluate in evaluators:
        assert all(np.isfinite(evaluate(below, q)))
        values = evaluate(np.array([below, -below, math.nan]), q)
        assert all(np.all(np.isfinite(v[:2])) for v in values)
        with pytest.raises(RangeError, match="theta_"):
            evaluate(complex(0.4, reach), q)
        with pytest.raises(RangeError):
            evaluate(np.array([0.1, complex(0.4, -reach)]), q)
        with pytest.raises(RangeError):
            evaluate(0.3, 0.999)  # even real z fails there
