"""Tests of the Cartesian spin-1 algebra against an independent oracle:
the spin-1 matrices in the S_z eigenbasis, built here with numpy."""

import math

import numpy as np
import pytest

from contextant.angle_family import delta_of_theta, g_of_theta
from contextant.spin_algebra import (
    COMPAT_TOL,
    IDENTITY,
    Direction,
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    matmul,
    minus_one_eigenprojector,
    triple_product_check,
)

RNG = np.random.default_rng(12345)

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)

_SQ2 = 1.0 / math.sqrt(2.0)

# Spin-1 matrices in the S_z eigenbasis, ordered m = +1, 0, -1.
SPIN_X = np.array([[0, _SQ2, 0], [_SQ2, 0, _SQ2], [0, _SQ2, 0]], dtype=complex)
SPIN_Y = np.array(
    [[0, -1j * _SQ2, 0], [1j * _SQ2, 0, -1j * _SQ2], [0, 1j * _SQ2, 0]],
    dtype=complex,
)
SPIN_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

# Columns: the Cartesian components of the spherical basis |+1>, |0>, |-1>,
# that is -(e_x + i e_y)/sqrt 2, e_z and (e_x - i e_y)/sqrt 2.  U S_k U^dagger
# is the Cartesian spin component (S_k)_ij = -i eps_kij.
SPHERICAL_TO_CARTESIAN = np.array(
    [[-_SQ2, 0, _SQ2], [-1j * _SQ2, 0, -1j * _SQ2], [0, 1, 0]])


def spin_operator(d: Direction) -> np.ndarray:
    """Spin-1 operator for direction d in the S_z eigenbasis; Hermitian
    with spectrum {+1, 0, -1}."""
    return d.x * SPIN_X + d.y * SPIN_Y + d.z * SPIN_Z


def random_direction(rng=RNG):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Direction(*v)


def random_orthonormal_triple(rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return [Direction(*(c / np.linalg.norm(c))) for c in q.T]


class Unchecked(Direction):
    """A Direction without the unit check, to reach the guards behind it."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        return tuple.__new__(cls, (x, y, z))


NAN = Unchecked(math.nan, 0.0, 0.0)


def random_density_matrix(rng=RNG):
    """A real symmetric positive semidefinite matrix of trace 1."""
    a = rng.normal(size=(3, 3))
    m = a @ a.T
    return flat(m / np.trace(m))


def square(m) -> np.ndarray:
    """A row-major 9-tuple as a 3x3 array."""
    return np.reshape(m, (3, 3))


def flat(m: np.ndarray) -> tuple:
    """A 3x3 array as a row-major 9-tuple of floats."""
    return tuple(map(float, np.ravel(m)))


class TestDirection:
    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0, 0.0)

    def test_from_angles_z_axis(self):
        d = direction_from_angles(0.0, 0.0)
        assert np.allclose([d.x, d.y, d.z], [0, 0, 1], atol=1e-15)

    def test_from_angles_x_axis(self):
        d = direction_from_angles(math.pi / 2, 0.0)
        assert np.allclose([d.x, d.y, d.z], [1, 0, 0], atol=1e-15)

    def test_from_angles_tilted(self):
        d = direction_from_angles(math.pi / 4, math.pi / 2)
        s = math.sqrt(2) / 2
        assert np.allclose([d.x, d.y, d.z], [0, s, s], atol=1e-15)


class TestSpinOperator:
    def test_z_axis_is_diagonal(self):
        assert np.allclose(spin_operator(Z), np.diag([1, 0, -1]), atol=1e-15)

    def test_x_axis_is_tridiagonal(self):
        assert np.allclose(spin_operator(X), SPIN_X, atol=1e-15)

    def test_spectrum_random_directions(self):
        # oracle: numeric eigensolve, spectrum must be {+1, 0, -1}
        for _ in range(20):
            s = spin_operator(random_direction())
            ev = np.sort(np.linalg.eigvalsh(s))
            assert np.allclose(ev, [-1, 0, 1], atol=1e-10)


class TestDichotomic:
    def test_z_axis(self):
        assert np.allclose(square(dichotomic(Z)), np.diag([1, 1, -1]), atol=1e-15)

    def test_squares_to_identity(self):
        for _ in range(20):
            a = square(dichotomic(random_direction()))
            assert np.linalg.norm(a @ a - square(IDENTITY)) < 1e-12

    def test_hermitian_unit_trace(self):
        for _ in range(20):
            a = square(dichotomic(random_direction()))
            assert np.array_equal(a, a.T)
            assert abs(np.trace(a) - 1.0) < 1e-12

    def test_sz_basis_observable_in_cartesian_basis(self):
        # the oracle: U S_k U^dagger = -i eps_k, and U (2 (d.S)^2 - I) U^dagger
        # with S in the S_z eigenbasis equals the reflection I - 2 d d^T
        u = SPHERICAL_TO_CARTESIAN
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[i, j, k], eps[i, k, j] = 1, -1
        for k, s in enumerate((SPIN_X, SPIN_Y, SPIN_Z)):
            assert np.allclose(u @ s @ u.conj().T, -1j * eps[k], atol=1e-15)
        for _ in range(1000):
            d = random_direction()
            s = spin_operator(d)
            a = u @ (2.0 * (s @ s) - np.eye(3)) @ u.conj().T
            assert np.linalg.norm(a - square(dichotomic(d))) < 1e-14

    def test_even_in_direction(self):
        d = random_direction()
        minus_d = Direction(-d.x, -d.y, -d.z)
        assert np.allclose(dichotomic(d), dichotomic(minus_d), atol=1e-14)


class TestExpectation:
    def test_identity_has_unit_expectation(self):
        rho = random_density_matrix()
        assert expectation(rho, IDENTITY) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numpy_trace(self):
        # any matrix, symmetric or not: Tr(rho a) = sum_ij rho_ij a_ji
        for _ in range(10):
            rho, a = random_density_matrix(), flat(RNG.normal(size=(3, 3)))
            assert expectation(rho, a) == pytest.approx(
                np.trace(square(rho) @ square(a)), abs=1e-12)

    def test_axis_triple_is_minus_one_for_any_state(self):
        ax, ay, az = dichotomic(X), dichotomic(Y), dichotomic(Z)
        for u, v in ((ax, ay), (ax, az), (ay, az)):
            assert commutator_norm(u, v) <= COMPAT_TOL
        prod = matmul(matmul(ax, ay), az)
        for _ in range(10):
            rho = random_density_matrix()
            assert expectation(rho, prod) == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("theta", [math.pi / 4, 0.9, math.pi / 3, math.pi / 2])
    def test_pair_correlation_matches_g(self, theta):
        rho = minus_one_eigenprojector(dichotomic(Z))
        delta = delta_of_theta(theta)
        a = dichotomic(direction_from_angles(theta, 0.0))
        b = dichotomic(direction_from_angles(theta, delta))
        assert commutator_norm(a, b) <= COMPAT_TOL
        assert expectation(rho, matmul(a, b)) == pytest.approx(
            1 - 4 * math.cos(theta) ** 2, abs=1e-12
        )

    def test_noncommuting_rejected(self):
        # the product of a non-commuting pair is no observable: the caller's
        # commutator check must refuse it
        tilted = Direction(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        assert not commutator_norm(dichotomic(X), dichotomic(tilted)) <= COMPAT_TOL

    def test_nan_commutator_rejected(self):
        assert not commutator_norm(dichotomic(NAN), dichotomic(X)) <= COMPAT_TOL


class TestCommutatorNorm:
    def test_self_commutes(self):
        a = dichotomic(random_direction())
        assert commutator_norm(a, a) == 0.0

    def test_compatible_pairs_commute(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = rng.uniform(math.pi / 4, math.pi / 2)
            phi = rng.uniform(0, 2 * math.pi)
            delta = delta_of_theta(theta)
            a = dichotomic(direction_from_angles(theta, phi))
            b = dichotomic(direction_from_angles(theta, phi + delta))
            assert commutator_norm(a, b) < 1e-12

    def test_nonorthogonal_do_not_commute(self):
        tilted = Direction(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        assert commutator_norm(dichotomic(X), dichotomic(tilted)) > 1e-3

    def test_nonorthogonal_noncollinear_random(self):
        rng = np.random.default_rng(11)
        tried = 0
        while tried < 30:
            d1, d2 = random_direction(rng), random_direction(rng)
            dot = abs(d1.dot(d2))
            if dot < 1e-3 or dot > 1 - 1e-3:
                continue
            tried += 1
            assert commutator_norm(dichotomic(d1), dichotomic(d2)) > 1e-6


class TestMinusOneEigenprojector:
    def test_z_axis(self):
        p = minus_one_eigenprojector(dichotomic(Z))
        assert np.allclose(square(p), np.diag([0, 0, 1]), atol=1e-15)

    def test_idempotent_and_eigenstate(self):
        for _ in range(10):
            a = dichotomic(random_direction())
            p = minus_one_eigenprojector(a)
            m = square(p)
            assert np.linalg.norm(m @ m - m) < 1e-12
            assert expectation(p, a) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_dichotomic(self):
        # S_z in its eigenbasis, diag(1, 0, -1), squares to diag(1, 0, 1)
        with pytest.raises(ValueError):
            minus_one_eigenprojector(flat(spin_operator(Z).real))

    def test_rejects_non_hermitian(self):
        # squares to I and has trace 1, but is not Hermitian
        a = (1.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0)
        m = square(a)
        assert np.array_equal(m @ m, square(IDENTITY)) and np.trace(m) == 1
        with pytest.raises(ValueError, match="Hermitian"):
            minus_one_eigenprojector(a)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            minus_one_eigenprojector(dichotomic(NAN))


class TestTripleProduct:
    def test_axes(self):
        assert triple_product_check(X, Y, Z) < 1e-12

    def test_permuted_order(self):
        assert triple_product_check(Z, X, Y) < 1e-12

    def test_random_orthonormal_triples(self):
        for _ in range(100):
            k, l, m = random_orthonormal_triple()
            assert triple_product_check(k, l, m) < 1e-10

    def test_rejects_nonorthogonal(self):
        with pytest.raises(ValueError):
            triple_product_check(X, Y, Direction(1.0, 0.0, 0.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            triple_product_check(NAN, NAN, NAN)


def test_compatible_directions_are_orthogonal():
    # cos(delta) sin^2(theta) + cos^2(theta) = 0 along the family
    for theta in np.linspace(math.pi / 4, math.pi / 2, 1000):
        delta = delta_of_theta(theta)
        d1 = direction_from_angles(theta, 0.3)
        d2 = direction_from_angles(theta, 0.3 + delta)
        assert abs(d1.dot(d2)) < 1e-12


def test_fixed_state_correlation_equals_g_on_grid():
    rho = minus_one_eigenprojector(dichotomic(Z))
    for theta in np.linspace(math.pi / 4, math.pi / 2, 1000):
        delta = delta_of_theta(theta)
        a = dichotomic(direction_from_angles(theta, 0.0))
        b = dichotomic(direction_from_angles(theta, delta))
        assert commutator_norm(a, b) <= COMPAT_TOL
        assert abs(expectation(rho, matmul(a, b)) - g_of_theta(theta)) < 1e-12
