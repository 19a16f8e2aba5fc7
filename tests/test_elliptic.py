import math

import pytest
from hypothesis import given, settings, strategies as st

from susyxyz.elliptic import (
    ThetaContext,
    h,
    nome_of_zeta,
    theta,
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


def test_zeta_nome_roundtrip():
    for q in (0.05, 0.2, 0.45, 0.7):
        z = zeta_of_nome(q)
        assert 0 < z < 1
        assert nome_of_zeta(z) == pytest.approx(q, abs=1e-9)
    assert zeta_of_nome(0.0) == 0.0
    assert nome_of_zeta(0.0) == 0.0


def test_zeta_saturates_below_one():
    # the map q -> zeta increases towards 1 and saturates there
    assert zeta_of_nome(0.99) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(RangeError):
        nome_of_zeta(2.5)
    with pytest.raises(RangeError):
        nome_of_zeta(-0.5)


def test_context_validates_nome():
    with pytest.raises(DomainError):
        ThetaContext(nome=1.2)


def test_degenerate_local_vectors_detected():
    ctx = ThetaContext(nome=0.2, s=0.4, t=0.4)  # s = t makes the vectors parallel
    with pytest.raises(ConfigurationError):
        ctx.require_independent_local_vectors()
    ThetaContext(nome=0.2).require_independent_local_vectors()  # default pair is fine
