import math

import numpy as np
import pytest

from contextant.angle_family import delta_of_theta, g_of_theta
from contextant.spin_algebra import (
    IDENTITY,
    SPIN_X,
    CompatibilityError,
    Direction,
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    minus_one_eigenprojector,
    spin_operator,
    triple_product_check,
)

RNG = np.random.default_rng(12345)

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)


def random_direction(rng=RNG):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Direction(*v)


def random_orthonormal_triple(rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return [Direction(*(c / np.linalg.norm(c))) for c in q.T]


def random_density_matrix(rng=RNG):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    return m / np.trace(m).real


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
        assert np.allclose(dichotomic(Z), np.diag([1, -1, 1]), atol=1e-15)

    def test_squares_to_identity(self):
        for _ in range(20):
            a = dichotomic(random_direction())
            assert np.linalg.norm(a @ a - IDENTITY) < 1e-12

    def test_hermitian_unit_trace(self):
        for _ in range(20):
            a = dichotomic(random_direction())
            assert np.linalg.norm(a - a.conj().T) < 1e-12
            assert abs(np.trace(a).real - 1.0) < 1e-12

    def test_even_in_direction(self):
        d = random_direction()
        minus_d = Direction(-d.x, -d.y, -d.z)
        assert np.allclose(dichotomic(d), dichotomic(minus_d), atol=1e-14)


class TestExpectation:
    def test_identity_has_unit_expectation(self):
        rho = random_density_matrix()
        assert expectation(rho, [IDENTITY]) == pytest.approx(1.0, abs=1e-12)

    def test_axis_triple_is_minus_one_for_any_state(self):
        ops = [dichotomic(X), dichotomic(Y), dichotomic(Z)]
        for _ in range(10):
            rho = random_density_matrix()
            assert expectation(rho, ops) == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("theta", [math.pi / 4, 0.9, math.pi / 3, math.pi / 2])
    def test_pair_correlation_matches_g(self, theta):
        rho = minus_one_eigenprojector(dichotomic(Z))
        delta = delta_of_theta(theta)
        ops = [
            dichotomic(direction_from_angles(theta, 0.0)),
            dichotomic(direction_from_angles(theta, delta)),
        ]
        assert expectation(rho, ops) == pytest.approx(
            1 - 4 * math.cos(theta) ** 2, abs=1e-12
        )

    def test_noncommuting_rejected(self):
        rho = random_density_matrix()
        tilted = Direction(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        with pytest.raises(CompatibilityError):
            expectation(rho, [dichotomic(X), dichotomic(tilted)])


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
        assert np.allclose(p, np.diag([0, 1, 0]), atol=1e-15)

    def test_idempotent_and_eigenstate(self):
        for _ in range(10):
            a = dichotomic(random_direction())
            p = minus_one_eigenprojector(a)
            assert np.linalg.norm(p @ p - p) < 1e-12
            assert expectation(p, [a]) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_dichotomic(self):
        with pytest.raises(ValueError):
            minus_one_eigenprojector(spin_operator(Z))

    def test_rejects_non_hermitian(self):
        # squares to I and has trace 1, but is not Hermitian
        a = np.array([[1, 1, 0], [0, -1, 0], [0, 0, 1]], dtype=complex)
        assert np.array_equal(a @ a, IDENTITY) and np.trace(a) == 1
        with pytest.raises(ValueError, match="Hermitian"):
            minus_one_eigenprojector(a)


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
        ops = [
            dichotomic(direction_from_angles(theta, 0.0)),
            dichotomic(direction_from_angles(theta, delta)),
        ]
        assert abs(expectation(rho, ops) - g_of_theta(theta)) < 1e-12
