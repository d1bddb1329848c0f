"""Tests of the Cartesian spin-1 algebra against an independent oracle:
the spin-1 matrices in the S_z eigenbasis, built here with numpy; and of
quantum-check's written-out routes, pair_residuals and
triple_product_check, against the helper chain they replace, bit for bit."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextant import cli, spin_algebra
from contextant.angle_family import delta_of_theta, g_of_theta, theta_in_range
from contextant.spin_algebra import (
    COMPAT_TOL,
    IDENTITY,
    commutator_norm,
    dichotomic,
    direction_from_angles,
    expectation,
    matmul,
    minus_one_eigenprojector,
    pair_residuals,
    triple_product_check,
)

RNG = np.random.default_rng(12345)

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)

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


def spin_operator(d) -> np.ndarray:
    """Spin-1 operator for the unit direction d = (x, y, z) in the S_z
    eigenbasis; Hermitian with spectrum {+1, 0, -1}."""
    x, y, z = d
    return x * SPIN_X + y * SPIN_Y + z * SPIN_Z


def random_direction(rng=RNG):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return tuple(v)


def random_orthonormal_triple(rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return [tuple(c / np.linalg.norm(c)) for c in q.T]


NAN = (math.nan, 0.0, 0.0)


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
    def test_from_angles_z_axis(self):
        d = direction_from_angles(0.0, 0.0)
        assert np.allclose(d, [0, 0, 1], atol=1e-15)

    def test_from_angles_x_axis(self):
        d = direction_from_angles(math.pi / 2, 0.0)
        assert np.allclose(d, [1, 0, 0], atol=1e-15)

    def test_from_angles_tilted(self):
        d = direction_from_angles(math.pi / 4, math.pi / 2)
        s = math.sqrt(2) / 2
        assert np.allclose(d, [0, s, s], atol=1e-15)


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
        minus_d = tuple(-c for c in d)
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
        tilted = (math.sqrt(0.5), 0.0, math.sqrt(0.5))
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
        tilted = (math.sqrt(0.5), 0.0, math.sqrt(0.5))
        assert commutator_norm(dichotomic(X), dichotomic(tilted)) > 1e-3

    def test_nonorthogonal_noncollinear_random(self):
        rng = np.random.default_rng(11)
        tried = 0
        while tried < 30:
            d1, d2 = random_direction(rng), random_direction(rng)
            (ux, uy, uz), (vx, vy, vz) = d1, d2
            dot = abs(ux * vx + uy * vy + uz * vz)
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
            triple_product_check(X, Y, (1.0, 0.0, 0.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            triple_product_check(NAN, NAN, NAN)

    @pytest.mark.parametrize("at", range(3))
    def test_rejects_a_non_unit_vector_as_direction_does(self, at):
        # an orthogonal triple with one vector rounded to 10 digits, which
        # misses |d|^2 = 1 by about 3e-11
        x = round(_SQ2, 10)
        triple = [(_SQ2, -_SQ2, 0.0), (0.0, 0.0, 1.0)]
        triple.insert(at, (x, x, 0.0))
        with pytest.raises(ValueError) as plain:
            triple_product_check(*triple)
        n = x * x + x * x + 0.0 * 0.0
        assert str(plain.value) == f"direction must be unit length, |d|^2 = {n!r}"


def test_compatible_directions_are_orthogonal():
    # cos(delta) sin^2(theta) + cos^2(theta) = 0 along the family
    for theta in np.linspace(math.pi / 4, math.pi / 2, 1000):
        delta = delta_of_theta(theta)
        d1 = direction_from_angles(theta, 0.3)
        d2 = direction_from_angles(theta, 0.3 + delta)
        (ux, uy, uz), (vx, vy, vz) = d1, d2
        assert abs(ux * vx + uy * vy + uz * vz) < 1e-12


def test_fixed_state_correlation_equals_g_on_grid():
    rho = minus_one_eigenprojector(dichotomic(Z))
    for theta in np.linspace(math.pi / 4, math.pi / 2, 1000):
        delta = delta_of_theta(theta)
        a = dichotomic(direction_from_angles(theta, 0.0))
        b = dichotomic(direction_from_angles(theta, delta))
        assert commutator_norm(a, b) <= COMPAT_TOL
        assert abs(expectation(rho, matmul(a, b)) - g_of_theta(theta)) < 1e-12


# The helper chain that quantum-check computed its residuals with before the
# routes were written out: the oracle of the bit-for-bit tests below.  The
# m = 0 state is built and checked to be a density matrix here, once.
M0_STATE = minus_one_eigenprojector(dichotomic(direction_from_angles(0.0, 0.0)))
MINUS_IDENTITY = tuple(-x for x in IDENTITY)


def chain_pair(theta, phi, delta):
    a = dichotomic(direction_from_angles(theta, phi))
    b = dichotomic(direction_from_angles(theta, phi + delta))
    return commutator_norm(a, b), expectation(M0_STATE, matmul(a, b))


def chain_residuals(theta, phi):
    """pair_residuals(theta, phi) as the chain computes it."""
    norm, corr = chain_pair(theta, phi, delta_of_theta(theta))
    return norm, abs(corr - g_of_theta(theta))


def chain_triple(k, l, m):
    return math.dist(matmul(matmul(dichotomic(k), dichotomic(l)), dichotomic(m)),
                     MINUS_IDENTITY)


def chain_orthonormal_triple(rng):
    """quantum-check's Euler-Rodrigues triple as the chain drew it."""
    a, b, c, d = (rng.gauss(0.0, 1.0) for _ in range(4))
    n = a * a + b * b + c * c + d * d
    cols = ((a * a + b * b - c * c - d * d, 2 * (b * c + a * d), 2 * (b * d - a * c)),
            (2 * (b * c - a * d), a * a - b * b + c * c - d * d, 2 * (c * d + a * b)),
            (2 * (b * d + a * c), 2 * (c * d - a * b), a * a - b * b - c * c + d * d))
    return [tuple(x / n for x in col) for col in cols]


def bits(xs):
    """The floats of xs by their bits: -0.0 and 0.0 differ, nan equals nan."""
    return [float(x).hex() for x in xs]


angles = st.floats(-10.0, 10.0)


accepted_thetas = st.floats(math.pi / 4 - 1e-12, math.pi / 2 + 1e-12).filter(
    theta_in_range)


class TestWrittenOutRoutes:
    @settings(max_examples=500, deadline=None)
    @given(theta=accepted_thetas, phi=angles)
    def test_pair_equals_the_helper_chain(self, theta, phi):
        # the route reads the azimuth only through cos and sin, so any
        # azimuth must give the chain's bits
        assert bits(pair_residuals(theta, phi)) == bits(chain_residuals(theta, phi))

    @settings(max_examples=500, deadline=None)
    @given(theta=st.floats(math.pi / 4, math.pi / 2), phi=st.floats(0.0, 2 * math.pi))
    def test_pair_equals_the_helper_chain_on_the_family(self, theta, phi):
        # the ranges quantum-check draws from
        assert bits(pair_residuals(theta, phi)) == bits(chain_residuals(theta, phi))

    @pytest.mark.parametrize("theta", [
        math.pi / 4 - 1e-11, math.pi / 2 + 1e-11, 0.0, -math.pi / 3, math.nan,
        math.inf])
    def test_pair_refuses_a_tilt_as_delta_of_theta_does(self, theta):
        with pytest.raises(ValueError) as route:
            pair_residuals(theta, 0.0)
        with pytest.raises(ValueError) as chain:
            delta_of_theta(theta)
        assert str(route.value) == str(chain.value)

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**64), order=st.permutations(range(3)),
           signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
    def test_triple_equals_the_helper_chain(self, seed, order, signs):
        # Euler-Rodrigues columns as quantum-check draws them, in any order
        # and with any signs
        cols = cli._orthonormal_triple(random.Random(seed))
        k, l, m = (tuple(s * x for x in cols[i]) for s, i in zip(signs, order))
        assert bits([triple_product_check(k, l, m)]) == bits([chain_triple(k, l, m)])

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=9, max_size=9))
    def test_the_m0_state_reads_entry_8(self, entries):
        # the state is diag(0, 0, 1), so pair_residuals reads Tr(rho X) as X[8]
        assert M0_STATE == (0.0,) * 8 + (1.0,)
        x = tuple(entries)
        assert expectation(M0_STATE, x) == x[8]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_quantum_check_residuals_equal_the_helper_chain(self, seed, monkeypatch, capsys):
        # record what quantum-check draws and computes through its routes ...
        pairs, triples = [], []

        def pair(*args):
            pairs.append((args, pair_residuals(*args)))
            return pairs[-1][1]

        def triple(*args):
            triples.append((args, triple_product_check(*args)))
            return triples[-1][1]

        monkeypatch.setattr(cli, "pair_residuals", pair)
        monkeypatch.setattr(cli, "triple_product_check", triple)
        samples = 20_000
        assert cli.main(["quantum-check", "--samples", str(samples),
                         "--seed", str(seed)]) == 0
        capsys.readouterr()
        # ... and the draws and residual lists of the helper chain, drawn
        # with rng.uniform and rng.gauss
        rng = random.Random(seed)
        oracle_draws, oracle_comm, oracle_g = [], [], []
        for _ in range(samples):
            theta = rng.uniform(math.pi / 4, math.pi / 2)
            phi = rng.uniform(0.0, 2 * math.pi)
            norm, corr = chain_pair(theta, phi, delta_of_theta(theta))
            oracle_draws += [theta, phi]
            oracle_comm.append(norm)
            oracle_g.append(abs(corr - g_of_theta(theta)))
        oracle_triples = [chain_orthonormal_triple(rng) for _ in range(100)]
        assert bits(x for args, _ in pairs for x in args) == bits(oracle_draws)
        assert bits(norm for _, (norm, _) in pairs) == bits(oracle_comm)
        assert bits(g_err for _, (_, g_err) in pairs) == bits(oracle_g)
        assert [bits(x for d in args for x in d) for args, _ in triples] == [
            bits(x for d in t for x in d) for t in oracle_triples]
        assert bits(r for _, r in triples) == bits(chain_triple(*t) for t in oracle_triples)

    def test_nan_step_fails_the_unit_check(self, monkeypatch):
        # a nan azimuth fails u's check; a finite tilt in range gives a
        # finite step, so make math.acos, which pair_residuals takes the
        # step from, return nan to fail v's
        with pytest.raises(ValueError, match="direction must be unit length"):
            pair_residuals(1.0, math.nan)
        monkeypatch.setattr(spin_algebra.math, "acos", lambda x: math.nan)
        with pytest.raises(ValueError, match="direction must be unit length"):
            pair_residuals(1.0, 0.0)
        with pytest.raises(ValueError, match="direction must be unit length"):
            cli.main(["quantum-check", "--samples", "5"])
