"""Spin-1 operator algebra on real 3x3 matrices in the Cartesian basis.

There (S_k)_ij = -i eps_kij, so (d.S)^2 = |d|^2 I - d d^T, and for a unit
direction d the dichotomic observable 2 (d.S)^2 - I is the reflection
I - 2 d d^T.  The m = 0 state along z is e_z.  A vector is a plain
(x, y, z) tuple, and a matrix a tuple of nine floats in row-major order,
so math.dist gives the Frobenius norm of a - b.

quantum-check takes the two routes written out entry by entry on plain
coordinates, pair_residuals and triple_product_check.  pair_residuals takes
cos theta and sin theta once per sample and derives from them the step
delta and the correlation g with the float operations of delta_of_theta and
g_of_theta.  Both routes compute the sums of the helper chain
direction_from_angles, dichotomic, matmul, math.dist and expectation, in its
order, and skip only its exact zeros, so their results equal the chain's bit
for bit.  The chain has no caller in the program: it is the routes' test
oracle, and perfbench's spans wrap its functions by name.
"""

from __future__ import annotations

import math

from .angle_family import theta_in_range

Matrix = tuple[float, ...]
Vector = tuple[float, float, float]

# The unit check of pair_residuals and triple_product_check: the largest
# | |d|^2 - 1 | they accept.  A vector made unit in floats misses 1 by at
# most 8.9e-16 (10^5 samples each from angles, from division by its hypot
# norm and from quantum-check's Euler-Rodrigues columns); one rounded to 10
# digits misses by about 3e-11 and is refused.
UNIT_TOL = 1e-12

# The largest defect a check here accepts: a dot product of a triple, or the
# distance of a^2 from I and of tr a from 1; nan fails them.  No check here
# reads a commutator: cli.QUANTUM_COMM_TOL bounds quantum-check's residual.
# Float rounding leaves the defects of directions from angles below 1e-14.
COMPAT_TOL = 1e-10

IDENTITY: Matrix = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def direction_from_angles(theta: float, phi: float) -> Vector:
    """Unit vector (cos(phi) sin(theta), sin(phi) sin(theta), cos(theta))."""
    st = math.sin(theta)
    return math.cos(phi) * st, math.sin(phi) * st, math.cos(theta)


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


def dichotomic(d: Vector) -> Matrix:
    """Dichotomic observable 2 (d.S)^2 - I = I - 2 d d^T, spectrum {+1, +1, -1}.

    Exactly symmetric and even in d.  Two of these commute exactly when their
    directions are orthogonal or collinear: [A_u, A_v] = 4 (u.v)(u v^T - v u^T).
    """
    x, y, z = d
    # 0 - t, not -t: an off-diagonal zero stays +0.0 whatever the sign of t
    return (1 - 2.0 * x * x, 0 - 2.0 * x * y, 0 - 2.0 * x * z,
            0 - 2.0 * y * x, 1 - 2.0 * y * y, 0 - 2.0 * y * z,
            0 - 2.0 * z * x, 0 - 2.0 * z * y, 1 - 2.0 * z * z)


def commutator_norm(a: Matrix, b: Matrix) -> float:
    """Frobenius norm of the commutator ab - ba."""
    return math.dist(matmul(a, b), matmul(b, a))


def expectation(rho: Matrix, a: Matrix) -> float:
    """Tr(rho a), the math.fsum of its nine products rho_ij a_ji.

    For rho = e_z e_z^T, exactly diag(0, 0, 1), this is a[8]: the
    correlation that pair_residuals reads.
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


def pair_residuals(theta: float, phi: float) -> tuple[float, float]:
    """(|[A_u, A_v]|_F, |<e_z, A_u A_v e_z> - g(theta)|) for u and v the
    directions at tilt theta and azimuths phi and phi + delta(theta).

    theta must pass theta_in_range, with delta_of_theta's message, and u
    and v the unit check (UNIT_TOL).  cos theta and sin theta are taken once;
    delta and g are computed from them as delta_of_theta and g_of_theta
    compute them.  Both reflections are exactly symmetric and share their
    entry [2][2], so six entries of each are read; [A_u, A_v] = P - P^T for
    P = A_u A_v, so the norm is math.hypot of P's six off-diagonal
    differences in math.dist's order, the diagonal's exact zeros left out.
    The correlation is P[2][2], Tr(rho P) for rho = e_z e_z^T.
    """
    if not theta_in_range(theta):
        raise ValueError(f"theta = {theta!r} outside [pi/4, pi/2]")
    z, st = math.cos(theta), math.sin(theta)
    delta = math.acos(max(-1.0, min(1.0, -(z * z) / (st * st))))
    g = max(-1.0, min(1.0, 1.0 - 4.0 * z * z))
    x, y = math.cos(phi) * st, math.sin(phi) * st
    phi += delta  # v's azimuth
    u, v = math.cos(phi) * st, math.sin(phi) * st
    for n in (x * x + y * y + z * z, u * u + v * v + z * z):
        if not abs(n - 1.0) <= UNIT_TOL:  # a nan component fails too
            raise ValueError(f"direction must be unit length, |d|^2 = {n!r}")
    # dichotomic's entries, 0 - t as there
    a0, a1, a2 = 1 - 2.0 * x * x, 0 - 2.0 * x * y, 0 - 2.0 * x * z
    a4, a5, c8 = 1 - 2.0 * y * y, 0 - 2.0 * y * z, 1 - 2.0 * z * z
    b0, b1, b2 = 1 - 2.0 * u * u, 0 - 2.0 * u * v, 0 - 2.0 * u * z
    b4, b5 = 1 - 2.0 * v * v, 0 - 2.0 * v * z
    # P[i][j] - P[j][i], each entry summed as matmul sums it
    d01 = (a0 * b1 + a1 * b4 + a2 * b5) - (a1 * b0 + a4 * b1 + a5 * b2)
    d02 = (a0 * b2 + a1 * b5 + a2 * c8) - (a2 * b0 + a5 * b1 + c8 * b2)
    d12 = (a1 * b2 + a4 * b5 + a5 * c8) - (a2 * b1 + a5 * b4 + c8 * b5)
    return (math.hypot(d01, d02, d01, d12, d02, d12),
            abs(a2 * b2 + a5 * b5 + c8 * c8 - g))


def triple_product_check(k: Vector, l: Vector, m: Vector) -> float:
    """Residual |A_k A_l A_m + I|_F for a mutually orthogonal triple of
    (x, y, z) coordinates, each of which must pass the unit check (UNIT_TOL).

    Each factor is exactly symmetric, so six entries of each are read; the
    products are summed as matmul sums them, and the residual is
    math.dist(A_k A_l A_m, -I) bit for bit.
    """
    kx, ky, kz = k
    lx, ly, lz = l
    mx, my, mz = m
    for n in (kx * kx + ky * ky + kz * kz, lx * lx + ly * ly + lz * lz,
              mx * mx + my * my + mz * mz):
        if not abs(n - 1.0) <= UNIT_TOL:  # a nan component fails too
            raise ValueError(f"direction must be unit length, |d|^2 = {n!r}")
    # the dot products of (k, l), (k, m) and (l, m)
    for d in (kx * lx + ky * ly + kz * lz, kx * mx + ky * my + kz * mz,
              lx * mx + ly * my + lz * mz):
        d = abs(d)
        if not d <= COMPAT_TOL:
            raise ValueError(f"directions not orthogonal (|dot| = {d:.3e})")
    a0, a1, a2 = 1 - 2.0 * kx * kx, 0 - 2.0 * kx * ky, 0 - 2.0 * kx * kz
    a4, a5, a8 = 1 - 2.0 * ky * ky, 0 - 2.0 * ky * kz, 1 - 2.0 * kz * kz
    b0, b1, b2 = 1 - 2.0 * lx * lx, 0 - 2.0 * lx * ly, 0 - 2.0 * lx * lz
    b4, b5, b8 = 1 - 2.0 * ly * ly, 0 - 2.0 * ly * lz, 1 - 2.0 * lz * lz
    c0, c1, c2 = 1 - 2.0 * mx * mx, 0 - 2.0 * mx * my, 0 - 2.0 * mx * mz
    c4, c5, c8 = 1 - 2.0 * my * my, 0 - 2.0 * my * mz, 1 - 2.0 * mz * mz
    # P = A_k A_l
    p0, p1, p2 = (a0 * b0 + a1 * b1 + a2 * b2, a0 * b1 + a1 * b4 + a2 * b5,
                  a0 * b2 + a1 * b5 + a2 * b8)
    p3, p4, p5 = (a1 * b0 + a4 * b1 + a5 * b2, a1 * b1 + a4 * b4 + a5 * b5,
                  a1 * b2 + a4 * b5 + a5 * b8)
    p6, p7, p8 = (a2 * b0 + a5 * b1 + a8 * b2, a2 * b1 + a5 * b4 + a8 * b5,
                  a2 * b2 + a5 * b5 + a8 * b8)
    # P A_m - (-I), each entry minus -1.0 or +0.0 as math.dist subtracts it
    return math.hypot(
        p0 * c0 + p1 * c1 + p2 * c2 + 1.0, p0 * c1 + p1 * c4 + p2 * c5,
        p0 * c2 + p1 * c5 + p2 * c8,
        p3 * c0 + p4 * c1 + p5 * c2, p3 * c1 + p4 * c4 + p5 * c5 + 1.0,
        p3 * c2 + p4 * c5 + p5 * c8,
        p6 * c0 + p7 * c1 + p8 * c2, p6 * c1 + p7 * c4 + p8 * c5,
        p6 * c2 + p7 * c5 + p8 * c8 + 1.0)
