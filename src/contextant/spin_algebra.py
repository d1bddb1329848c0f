"""Spin-1 operator algebra on 3x3 complex matrices.

Spin operators along unit directions, dichotomic observables from squared
spin components, density matrices as 3x3 arrays, expectation values of
commuting products, and the orthogonal-triple product identity.
"""

from __future__ import annotations

import math

import numpy as np

from .angle_family import Direction

ALGEBRA_TOL = 1e-12
COMPAT_TOL = 1e-10

_SQ2 = 1.0 / math.sqrt(2.0)

# Spin-1 matrices in the S_z eigenbasis, ordered m = +1, 0, -1.
SPIN_X = np.array([[0, _SQ2, 0], [_SQ2, 0, _SQ2], [0, _SQ2, 0]], dtype=complex)
SPIN_Y = np.array(
    [[0, -1j * _SQ2, 0], [1j * _SQ2, 0, -1j * _SQ2], [0, 1j * _SQ2, 0]],
    dtype=complex,
)
SPIN_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
IDENTITY = np.eye(3, dtype=complex)


class CompatibilityError(ValueError):
    """Raised when an operation requires commuting observables and gets none."""


def direction_from_angles(theta: float, phi: float) -> Direction:
    """Unit vector (cos(phi) sin(theta), sin(phi) sin(theta), cos(theta))."""
    st = math.sin(theta)
    v = np.array([math.cos(phi) * st, math.sin(phi) * st, math.cos(theta)])
    v /= np.linalg.norm(v)
    return Direction(v[0], v[1], v[2])


def spin_operator(d: Direction) -> np.ndarray:
    """Spin-1 operator for direction d; Hermitian with spectrum {+1, 0, -1}."""
    return d.x * SPIN_X + d.y * SPIN_Y + d.z * SPIN_Z


def dichotomic(d: Direction) -> np.ndarray:
    """Dichotomic observable 2 S_d^2 - I with spectrum {+1, +1, -1}.

    Even in d: the same observable is returned for d and -d.  Two of these
    commute exactly when their directions are orthogonal or collinear.
    """
    s = spin_operator(d)
    return 2.0 * (s @ s) - IDENTITY


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the commutator ab - ba."""
    return float(np.linalg.norm(a @ b - b @ a))


def expectation(rho: np.ndarray, ops: list[np.ndarray]) -> float:
    """Tr(rho A B ...) for pairwise-commuting observables A, B, ...

    Raises CompatibilityError if any pair of the operators fails to commute
    within the compatibility tolerance; the product is only an observable
    for a commuting family.
    """
    if not ops:
        raise ValueError("expectation requires at least one operator")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            c = commutator_norm(ops[i], ops[j])
            if c > COMPAT_TOL:
                raise CompatibilityError(
                    f"operators {i} and {j} do not commute (|[A,B]| = {c:.3e})"
                )
    prod = IDENTITY
    for op in ops:
        prod = prod @ op
    val = complex(np.trace(rho @ prod))
    if abs(val.imag) > COMPAT_TOL:
        raise CompatibilityError(f"expectation has imaginary part {val.imag:.3e}")
    return val.real


def minus_one_eigenprojector(a: np.ndarray) -> np.ndarray:
    """Projector (I - a)/2 onto the -1 eigenspace of a dichotomic observable.

    a must be Hermitian with a^2 = I and trace 1; then the projector's
    eigenvalues are 0, 0, 1 within COMPAT_TOL, so it is a density matrix.
    """
    if np.linalg.norm(a - a.conj().T) > ALGEBRA_TOL:
        raise ValueError("operator is not Hermitian")
    if np.linalg.norm(a @ a - IDENTITY) > COMPAT_TOL:
        raise ValueError("operator does not square to identity")
    if abs(np.trace(a).real - 1.0) > COMPAT_TOL:
        raise ValueError("operator does not have trace 1")
    return (IDENTITY - a) / 2.0


def triple_product_check(k: Direction, l: Direction, m: Direction) -> float:
    """Residual |A_k A_l A_m + I|_F for a mutually orthogonal triple."""
    for u, v in ((k, l), (k, m), (l, m)):
        d = abs(u.dot(v))
        if d > COMPAT_TOL:
            raise ValueError(f"directions not orthogonal (|dot| = {d:.3e})")
    prod = dichotomic(k) @ dichotomic(l) @ dichotomic(m)
    return float(np.linalg.norm(prod + IDENTITY))
