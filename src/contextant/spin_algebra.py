"""Spin-1 operator algebra on real 3x3 matrices in the Cartesian basis.

There (S_k)_ij = -i eps_kij, so (d.S)^2 = |d|^2 I - d d^T, and for a unit
direction d the dichotomic observable 2 (d.S)^2 - I is the reflection
I - 2 d d^T.  The m = 0 state along z is e_z.  A matrix is a tuple of nine
floats in row-major order, so math.dist gives the Frobenius norm of a - b.
"""

from __future__ import annotations

import math

from .angle_family import Direction

Matrix = tuple[float, ...]

# The largest defect a check here accepts: a dot product of a triple, or the
# distance of a^2 from I and of tr a from 1; nan fails them.  No check here
# reads a commutator: cli.QUANTUM_COMM_TOL bounds quantum-check's residual.
# Float rounding leaves the defects of directions from angles below 1e-14.
COMPAT_TOL = 1e-10

IDENTITY: Matrix = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_MINUS_IDENTITY: Matrix = (-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0)


def direction_from_angles(theta: float, phi: float) -> Direction:
    """Unit vector (cos(phi) sin(theta), sin(phi) sin(theta), cos(theta))."""
    st = math.sin(theta)
    return Direction(math.cos(phi) * st, math.sin(phi) * st, math.cos(theta))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product ab, each entry summed left to right over k."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a1 * b3 + a2 * b6,
            a0 * b1 + a1 * b4 + a2 * b7,
            a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6,
            a3 * b1 + a4 * b4 + a5 * b7,
            a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6,
            a6 * b1 + a7 * b4 + a8 * b7,
            a6 * b2 + a7 * b5 + a8 * b8)


def dichotomic(d: Direction) -> Matrix:
    """Dichotomic observable 2 (d.S)^2 - I = I - 2 d d^T, spectrum {+1, +1, -1}.

    Exactly symmetric and even in d.  Two of these commute exactly when their
    directions are orthogonal or collinear: [A_u, A_v] = 4 (u.v)(u v^T - v u^T).
    """
    x, y, z = d.x, d.y, d.z
    # 0 - t, not -t: an off-diagonal zero stays +0.0 whatever the sign of t
    return (1 - 2.0 * x * x, 0 - 2.0 * x * y, 0 - 2.0 * x * z,
            0 - 2.0 * y * x, 1 - 2.0 * y * y, 0 - 2.0 * y * z,
            0 - 2.0 * z * x, 0 - 2.0 * z * y, 1 - 2.0 * z * z)


def commutator_norm(a: Matrix, b: Matrix) -> float:
    """Frobenius norm of the commutator ab - ba."""
    return math.dist(matmul(a, b), matmul(b, a))


def expectation(rho: Matrix, a: Matrix) -> float:
    """Tr(rho a), the math.fsum of its nine products rho_ij a_ji.

    A product of observables is one only when its factors commute; the
    caller checks that (quantum-check reports their commutator norm).
    """
    return math.fsum(rho[3 * i + j] * a[3 * j + i]
                     for i in range(3) for j in range(3))


def minus_one_eigenprojector(a: Matrix) -> Matrix:
    """Projector (I - a)/2 onto the -1 eigenspace of a dichotomic observable.

    a must be exactly symmetric, and square to I and have trace 1 within
    COMPAT_TOL; then the projector's eigenvalues are 0, 0, 1 within
    COMPAT_TOL, so it is a density matrix.
    """
    if any(a[3 * i + j] != a[3 * j + i] for i in range(3) for j in range(i)):
        raise ValueError("operator is not Hermitian")
    if not math.dist(matmul(a, a), IDENTITY) <= COMPAT_TOL:
        raise ValueError("operator does not square to identity")
    if not abs(a[0] + a[4] + a[8] - 1.0) <= COMPAT_TOL:
        raise ValueError("operator does not have trace 1")
    return tuple((e - x) / 2.0 for e, x in zip(IDENTITY, a))


def triple_product_check(k: Direction, l: Direction, m: Direction) -> float:
    """Residual |A_k A_l A_m + I|_F for a mutually orthogonal triple."""
    for u, v in ((k, l), (k, m), (l, m)):
        d = abs(u.dot(v))
        if not d <= COMPAT_TOL:
            raise ValueError(f"directions not orthogonal (|dot| = {d:.3e})")
    prod = matmul(matmul(dichotomic(k), dichotomic(l)), dichotomic(m))
    return math.dist(prod, _MINUS_IDENTITY)
