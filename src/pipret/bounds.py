"""Closed-form download bounds for private multi-message retrieval.

Implements the two inverse-rate formulas that bracket the capacity of
retrieving P messages out of K_msg from N replicated servers:

* the converse-side expression (floor/fraction geometric sum for
  K_msg/P >= 2, the shared linear form below that), and
* the achievability-side expression built from the complex roots r_i and
  coefficients beta_i.

On top of those, ``theorem1_bounds`` produces the bracket for the capacity
of inner-product retrieval with K files (K_msg = K(K+1)/2 virtual messages)
including the geometric correction term c * lambda2**(L-1) that vanishes as
file length grows, and ``corollary_limits`` evaluates the exact limits in
the two collapsing regimes.

Orientation note: evaluated at (K_msg=2, P=1, N=2) the beta/r fraction
equals 2/3, which is the known single-message retrieval *rate*; this module
therefore treats the fraction as the rate and returns its reciprocal as the
inverse rate.  The converse side is the floor/fraction sum.  Both choices
are validated by the P=1 geometric-sum identity and the tightness of the
two formulas at K_msg/P = 2 (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

RESIDUAL_TOL = 1e-9
_MAX_P = 64


@dataclass(frozen=True)
class BoundQuery:
    """Parameters of one bound evaluation: K_msg messages, P requested,
    N servers."""

    K_msg: int
    P: int
    N: int

    def __post_init__(self):
        if self.K_msg < 1:
            raise ValueError("K_msg must be >= 1")
        if not 1 <= self.P <= self.K_msg:
            raise ValueError(f"P must lie in [1, K_msg], got P={self.P}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.P > _MAX_P:
            raise ValueError(f"P > {_MAX_P} not supported")


@dataclass(frozen=True)
class RootCoefficients:
    """Roots r_i and linear-system coefficients beta_i of the achievability
    formula, with the worst residual of the defining equations."""

    roots: np.ndarray
    coefficients: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class CapacityBounds:
    """Bracket on the inverse capacity 1/C.

    ``inv_rate_upper`` comes from the converse side (it upper-bounds the
    capacity C) and ``inv_rate_lower`` from the achievability side (it
    lower-bounds C); as inverse rates the achievability number is the larger
    one.  ``correction`` is c * lambda2**(L-1), subtracted from the converse
    end for finite file length.
    """

    inv_rate_upper: float
    inv_rate_lower: float
    lambda2: float | None = None
    correction: float | None = None

    @property
    def bracket(self) -> tuple[float, float]:
        """(low, high) bracket on 1/C."""
        low = self.inv_rate_upper - (self.correction or 0.0)
        return (low, self.inv_rate_lower)


def inverse_rate_converse(bq: BoundQuery) -> float:
    """Converse-side inverse rate.

    Returns 1 + (K-P)/(PN) when K/P <= 2, otherwise the geometric sum
    sum_{i<floor(K/P)} N**-i + (K/P - floor(K/P)) * N**-floor(K/P).
    The two expressions agree at K/P = 2, and at N = 1 both reduce to K/P.
    """
    K, P, N = bq.K_msg, bq.P, bq.N
    if K / P <= 2:
        return 1.0 + (K - P) / (P * N)
    whole = K // P
    frac = (K - whole * P) / P
    total = sum(N ** float(-i) for i in range(whole))
    return total + frac * N ** float(-whole)


def _working_dps(K: int) -> int:
    # (N-1)**(K-P) style magnitudes need about K digits of headroom before
    # cancellation; float64 cannot certify the 1e-9 absolute residual once
    # those magnitudes pass ~1e7
    return 30 + K


def _solve_system_mp(K: int, P: int, N: int):
    """Roots, coefficients, and residual of the defining equations, in
    extended precision (list of mpc, list of mpc, mpf)."""
    roots = []
    n_root = mp.power(N, mp.mpf(1) / P)
    for i in range(1, P + 1):
        w = mp.expjpi(mp.mpf(2 * (i - 1)) / P)
        roots.append(w / (n_root - w))
    A = mp.matrix(P, P)
    for k in range(1, P + 1):
        for i in range(P):
            A[k - 1, i] = roots[i] ** (-k)
    rhs = mp.matrix(P, 1)
    rhs[P - 1] = mp.mpf(N - 1) ** (K - P)
    beta = mp.lu_solve(A, rhs)
    resid = A * beta - rhs
    max_residual = max(abs(resid[k]) for k in range(P))
    return roots, [beta[i] for i in range(P)], max_residual


def solve_root_coefficients(bq: BoundQuery) -> RootCoefficients:
    """Roots r_i = w_i / (N**(1/P) - w_i) with w_i the P-th roots of unity,
    and beta_i solving sum_i beta_i r_i**-P = (N-1)**(K-P),
    sum_i beta_i r_i**-k = 0 for k in [1, P-1].

    The system is solved by LU elimination with partial pivoting in
    extended precision, so the defining-equation residuals clear the 1e-9
    gate even when (N-1)**(K-P) is large; the exported arrays are
    complex128 downcasts.  Raises ValueError for N = 1 (the system
    degenerates; the converse formula covers that case) and
    ArithmeticError when the residual gate fails anyway.
    """
    K, P, N = bq.K_msg, bq.P, bq.N
    if N < 2:
        raise ValueError("root/coefficient system requires N >= 2")
    with mp.workdps(_working_dps(K)):
        roots, beta, max_residual = _solve_system_mp(K, P, N)
        max_residual = float(max_residual)
    if max_residual >= RESIDUAL_TOL:
        raise ArithmeticError(
            f"coefficient system residual {max_residual:.3e} exceeds {RESIDUAL_TOL}"
        )
    return RootCoefficients(
        roots=np.array([complex(r) for r in roots]),
        coefficients=np.array([complex(b) for b in beta]),
        max_residual=max_residual,
    )


def achievable_rate_fraction(bq: BoundQuery) -> complex:
    """The displayed beta/r fraction, evaluated as written (returns the
    rate).  Evaluated in extended precision: the sums cancel catastrophically
    in double precision once K grows."""
    K, P, N = bq.K_msg, bq.P, bq.N
    if N < 2:
        raise ValueError("rate fraction requires N >= 2")
    with mp.workdps(_working_dps(K)):
        roots, beta, max_residual = _solve_system_mp(K, P, N)
        if float(max_residual) >= RESIDUAL_TOL:
            raise ArithmeticError(
                f"coefficient system residual {float(max_residual):.3e} "
                f"exceeds {RESIDUAL_TOL}"
            )
        num = mp.mpc(0)
        den = mp.mpc(0)
        for r, b in zip(roots, beta):
            base = (1 + 1 / r) ** K
            weight = b * r ** (K - P)
            num += weight * (base - (1 + 1 / r) ** (K - P))
            den += weight * (base - 1)
        rate = num / den
        return complex(rate)


def inverse_rate_achievable(bq: BoundQuery) -> float:
    """Achievability-side inverse rate.

    With N = 1 the single server must ship everything, so this is K/P,
    equal to the converse.  For K/P < 2 it equals the shared closed form
    1 + (K-P)/(PN); for K/P >= 2 the beta/r fraction is evaluated
    independently and its reciprocal returned (at K/P = 2 exactly, both
    paths agree to 1e-9, which the tests assert).
    """
    K, P, N = bq.K_msg, bq.P, bq.N
    if N == 1:
        return K / P
    if K / P < 2:
        return 1.0 + (K - P) / (P * N)
    rate = achievable_rate_fraction(bq)
    if abs(rate.imag) >= RESIDUAL_TOL:
        raise ArithmeticError(f"imaginary residue {rate.imag:.3e} in rate fraction")
    return 1.0 / rate.real


def theorem1_bounds(
    K_files: int,
    P: int,
    N: int,
    L: int | None = None,
    lambda2: float | None = None,
    c: float = 1.0,
) -> CapacityBounds:
    """Bracket on 1/C for retrieving P of the K(K+1)/2 pairwise inner
    products of K files from N servers.

    With L and lambda2 supplied, the converse end is lowered by the finite-
    length correction c * lambda2**(L-1); lambda2 must lie in [0, 1) and
    c must be nonnegative.  Omitting L (or lambda2) gives the L -> infinity
    bracket.
    """
    K_msg = K_files * (K_files + 1) // 2
    if P > K_msg:
        raise ValueError(f"P={P} exceeds the {K_msg} inner products of K={K_files}")
    if c < 0:
        raise ValueError("correction constant c must be >= 0")
    correction = None
    if L is not None and lambda2 is not None:
        if not 0 <= lambda2 < 1:
            raise ValueError("lambda2 must lie in [0, 1)")
        if L < 1:
            raise ValueError("L must be >= 1")
        correction = c * lambda2 ** (L - 1)
    bq = BoundQuery(K_msg, P, N)
    return CapacityBounds(
        inv_rate_upper=inverse_rate_converse(bq),
        inv_rate_lower=inverse_rate_achievable(bq),
        lambda2=lambda2,
        correction=correction,
    )


def corollary_limits(K_files: int, P: int, N: int) -> float | None:
    """Exact limit of 1/C as L -> infinity, when the bracket collapses.

    Returns 1 + (K(K+1) - 2P)/(2PN) when K(K+1)/(2P) <= 2, the plain
    geometric sum when K(K+1)/(2P) is an integer, and None otherwise.
    """
    K_msg = K_files * (K_files + 1) // 2
    num, den = K_files * (K_files + 1), 2 * P
    if num <= 2 * den:
        return 1.0 + (num - den) / (den * N)
    if num % den == 0:
        ratio = num // den
        return float(sum(N ** float(-i) for i in range(ratio)))
    return None


def capacity_grid(
    K_files_list, P_list, N_list, verbose: bool = False
) -> list[dict]:
    """Bound rows over a parameter grid, skipping P > K_msg combinations.

    Each row carries K_files, K_msg, P, N, both inverse rates, and the
    collapsed limit (or None).  ``verbose`` adds the raw rate fraction and
    the coefficient-system residual for transparency on the orientation
    choice.
    """
    rows = []
    for K_files in K_files_list:
        K_msg = K_files * (K_files + 1) // 2
        for P in P_list:
            if P > K_msg:
                continue
            for N in N_list:
                bq = BoundQuery(K_msg, P, N)
                row = {
                    "K_files": K_files,
                    "K_msg": K_msg,
                    "P": P,
                    "N": N,
                    "inv_rate_converse": inverse_rate_converse(bq),
                    "inv_rate_achievable": inverse_rate_achievable(bq),
                    "limit": corollary_limits(K_files, P, N),
                }
                if verbose:
                    if N >= 2 and K_msg / P >= 2:
                        frac = achievable_rate_fraction(bq)
                        rc = solve_root_coefficients(bq)
                        row["rate_fraction_as_printed"] = frac.real
                        row["rate_fraction_reciprocal"] = 1.0 / frac.real
                        row["beta_residual"] = rc.max_residual
                    else:
                        row["rate_fraction_as_printed"] = None
                        row["rate_fraction_reciprocal"] = None
                        row["beta_residual"] = None
                rows.append(row)
    return rows


def single_message_inverse_rate(K_msg: int, N: int) -> float:
    """Independent P = 1 oracle: the geometric sum 1 + 1/N + ... + N**-(K-1)."""
    return float(sum(N ** float(-i) for i in range(K_msg)))


def mpir_tightness_gap(bq: BoundQuery) -> float:
    """Achievable minus converse inverse rate (nonnegative up to rounding)."""
    return inverse_rate_achievable(bq) - inverse_rate_converse(bq)


__all__ = [
    "BoundQuery",
    "RootCoefficients",
    "CapacityBounds",
    "inverse_rate_converse",
    "solve_root_coefficients",
    "achievable_rate_fraction",
    "inverse_rate_achievable",
    "theorem1_bounds",
    "corollary_limits",
    "capacity_grid",
    "single_message_inverse_rate",
    "mpir_tightness_gap",
]
