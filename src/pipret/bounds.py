"""Closed-form download bounds for private multi-message retrieval.

Implements the two inverse-rate formulas of Banawan and Ulukus ("Multi-
Message Private Information Retrieval", IEEE Trans. IT 2018) that bracket
the capacity of retrieving P messages out of K_msg from N replicated
servers:

* the converse-side expression (the closed-form geometric sum
  (N**w - 1)/((N - 1) N**(w-1)), w = floor(K_msg/P), plus the remainder
  term for K_msg/P > 2; the linear form 1 + (K_msg-P)/(PN) up to 2), and
* the achievability-side expression built from the complex roots r_i and
  coefficients beta_i.  beta_i comes in closed form from the inverse of a
  Vandermonde system; the rate it defines is an exact rational, a ratio of
  two integer sums.  An LU solve of the system is the oracle for both in
  the tests.

On top of those, ``theorem1_bounds`` produces the bracket for the capacity
of inner-product retrieval with K files (K_msg = K(K+1)/2 virtual messages)
including the geometric correction term lambda2**(L-1) that vanishes as
file length grows, and ``corollary_limits`` returns the converse where the
two ends collapse.

Orientation note: evaluated at (K_msg=2, P=1, N=2) the beta/r fraction
equals 2/3, which is the known single-message retrieval *rate*; this module
therefore treats the fraction as the rate and returns its reciprocal as the
inverse rate.  The converse side is the floor/fraction sum.  Both choices
are validated by the P=1 geometric-sum identity and the tightness of the
two formulas at K_msg/P = 2 (see tests).

Every bound is an exact ``Fraction``; callers convert to float once, where
a number leaves for a report.  Only the beta_i residual gate
(``solve_root_coefficients``, which the verbose capacity grid reports as
``beta_residual``) works in mpmath's extended precision, and mpmath is
imported there, where it runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

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

    ``converse`` is the smaller inverse rate (it upper-bounds the capacity
    C) and ``achievable`` the larger (it lower-bounds C), both exact.
    ``correction`` is lambda2**(L-1), subtracted from the converse end for
    finite file length.
    """

    converse: Fraction
    achievable: Fraction
    lambda2: float | None = None
    correction: float | None = None

    @property
    def bracket(self) -> tuple[float, float]:
        """(low, high) bracket on 1/C, as floats."""
        return (float(self.converse) - (self.correction or 0.0), float(self.achievable))


def _linear_inverse_rate(K: int, P: int, N: int) -> Fraction:
    # both sides' value for K/P <= 2
    return 1 + Fraction(K - P, P * N)


def inverse_rate_converse(bq: BoundQuery) -> Fraction:
    """Converse-side inverse rate, exact.

    Returns 1 + (K-P)/(PN) when K/P <= 2, otherwise the geometric sum
    sum_{i<w} N**-i = (N**w - 1)/((N - 1) N**(w-1)), w = floor(K/P), plus
    the remainder term (K/P - w) * N**-w.  The two expressions agree at
    K/P = 2, and at N = 1 both reduce to K/P.
    """
    K, P, N = bq.K_msg, bq.P, bq.N
    if K <= 2 * P:
        return _linear_inverse_rate(K, P, N)
    w, rem = divmod(K, P)
    geometric = Fraction(N**w - 1, (N - 1) * N ** (w - 1)) if N > 1 else Fraction(w)
    return geometric + Fraction(rem, P * N**w)


# mpmath's precision is one process-wide setting that workdps sets and
# restores; two threads inside it at once (a library caller's pool) would
# compute at each other's precision and leave it raised
_MP_LOCK = threading.Lock()


def _working_dps(K: int) -> int:
    # (N-1)**(K-P) style magnitudes need about K digits of headroom before
    # cancellation; float64 cannot certify the 1e-9 absolute residual once
    # those magnitudes pass ~1e7
    return 30 + K


def _closed_form_system(K: int, P: int, N: int):
    """Roots r_i and coefficients beta_i (lists of mpc) at the current
    mpmath precision."""
    import mpmath as mp

    rho = mp.root(N, P)
    w = [mp.expjpi(mp.mpf(2 * i) / P) for i in range(P)]
    roots = [wi / (rho - wi) for wi in w]
    c = mp.mpf(N - 1) ** (K - P)
    return roots, [c * r / (P * rho ** (P - 1) * wi) for r, wi in zip(roots, w)]


def solve_root_coefficients(bq: BoundQuery) -> RootCoefficients:
    """Roots r_i = w_i / (rho - w_i), rho = N**(1/P), w_i the P-th roots of
    unity, and beta_i solving sum_i beta_i r_i**-P = (N-1)**(K-P),
    sum_i beta_i r_i**-k = 0 for k in [1, P-1].

    In x_i = 1/r_i = rho * conj(w_i) - 1 the system is Vandermonde, whose
    inverse gives beta_i = (N-1)**(K-P) r_i / (P rho**(P-1) w_i).  The
    defining-equation residuals are evaluated in extended precision and
    gated at 1e-9; the exported arrays are complex128 downcasts.  Raises
    ValueError for N = 1 (the system degenerates; the converse formula
    covers that case) and ArithmeticError when the residual gate fails.
    """
    import mpmath as mp

    K, P, N = bq.K_msg, bq.P, bq.N
    if N < 2:
        raise ValueError("root/coefficient system requires N >= 2")
    with _MP_LOCK, mp.workdps(_working_dps(K)):
        roots, beta = _closed_form_system(K, P, N)
        # the terms beta_i r_i**-k by running products with x_i = 1/r_i
        xs = [1 / r for r in roots]
        terms, resid = beta, []
        for _ in range(P):
            terms = [t * x for t, x in zip(terms, xs)]
            resid.append(mp.fsum(terms))
        resid[-1] -= mp.mpf(N - 1) ** (K - P)
        max_residual = float(max(abs(v) for v in resid))
    if max_residual >= RESIDUAL_TOL:
        raise ArithmeticError(
            f"coefficient system residual {max_residual:.3e} exceeds {RESIDUAL_TOL}"
        )
    return RootCoefficients(
        roots=np.array([complex(r) for r in roots]),
        coefficients=np.array([complex(b) for b in beta]),
        max_residual=max_residual,
    )


def achievable_rate_fraction(bq: BoundQuery) -> Fraction:
    """The displayed beta/r fraction (returns the rate), as an exact rational.

    With u_i = conj(w_i), rho = N**(1/P) and m = K+1-P the fraction is
    (N-1) rho**(K-P) S1 / (rho**K S1 - S0), where S1 = sum_i u_i**(K+1) t_i,
    S0 = sum_i u_i t_i and t_i = (rho u_i - 1)**(-m); no beta is needed.
    Expand t = sum_j C(m-1+j, j) (rho u)**(-m-j).  As u**P = 1, term j of S1
    carries sum_i u_i**(P-j), which is P when j = 0 mod P and 0 otherwise;
    in S0 it carries sum_i u_i**(P-K-j), which keeps j = -K mod P.  Next,
    sum_j C(m-1+j, j) x**j = (1 + x + ... + x**(P-1))**m (1 - x**P)**(-m),
    and the last factor is a series in x**P: the terms with j in one class
    mod P are the class's terms c_k x**k of the first factor times the last,
    which is (1 - 1/N)**(-m) at x = 1/rho.  So with c_k the coefficients of
    (1 + y + ... + y**(P-1))**m and j0 = -K mod P,
    S1 = P rho**(-m) (1-1/N)**(-m) A and S0 = P rho**(-m-j0) (1-1/N)**(-m) B,
    A = sum_(k = 0 mod P) c_k N**(-k/P), B = sum_(k = j0 mod P) c_k
    N**(-(k-j0)/P).  The common factor cancels and K + j0 = P e with
    e = ceil(K/P), so rate = (N-1) N**(e-1) A / (N**e A - B).  Every exponent
    is an integer; A and B are scaled by one power of N into integers.
    """
    K, P, N = bq.K_msg, bq.P, bq.N
    if N < 2:
        raise ValueError("rate fraction requires N >= 2")
    m, e, j0 = K + 1 - P, -(-K // P), -K % P
    deg = m * (P - 1)  # the degree of (1 + y + ... + y**(P-1))**m
    # the c_k as b-bit fields of (1 + 2**b + ... + 2**(b(P-1)))**m; every
    # c_k is at most P**m < 2**b, so no field carries into the next
    b = m * P.bit_length()
    mask = (1 << b) - 1
    packed = (((1 << P * b) - 1) // mask) ** m

    def section(r):  # A (r = 0) or B (r = j0), times N**(deg // P)
        terms = range(r, deg + 1, P)
        return sum(((packed >> k * b) & mask) * N ** ((deg - k + r) // P) for k in terms)

    A, B = section(0), section(j0)
    return Fraction((N - 1) * N ** (e - 1) * A, N**e * A - B)


def inverse_rate_achievable(bq: BoundQuery) -> Fraction:
    """Achievability-side inverse rate, exact.

    With N = 1 the single server must ship everything, so this is K/P,
    equal to the converse.  For K/P < 2 it equals the shared closed form
    1 + (K-P)/(PN); for K/P >= 2 it is the reciprocal of the exact rate
    fraction (at K/P = 2 that reciprocal is 1 + 1/N exactly, the converse
    value, which the tests assert).
    """
    K, P, N = bq.K_msg, bq.P, bq.N
    if N == 1:
        return Fraction(K, P)
    if K < 2 * P:
        return _linear_inverse_rate(K, P, N)
    return 1 / achievable_rate_fraction(bq)


def theorem1_bounds(
    K_files: int,
    P: int,
    N: int,
    L: int | None = None,
    lambda2: float | None = None,
) -> CapacityBounds:
    """Bracket on 1/C for retrieving P of the K(K+1)/2 pairwise inner
    products of K files from N servers.

    With L and lambda2 supplied, the converse end is lowered by the finite-
    length correction lambda2**(L-1); lambda2 must lie in [0, 1).  Omitting
    L (or lambda2) gives the L -> infinity bracket.
    """
    K_msg = K_files * (K_files + 1) // 2
    if P > K_msg:
        raise ValueError(f"P={P} exceeds the {K_msg} inner products of K={K_files}")
    correction = None
    if L is not None and lambda2 is not None:
        if not 0 <= lambda2 < 1:
            raise ValueError("lambda2 must lie in [0, 1)")
        if L < 1:
            raise ValueError("L must be >= 1")
        correction = lambda2 ** (L - 1)
    bq = BoundQuery(K_msg, P, N)
    return CapacityBounds(
        converse=inverse_rate_converse(bq),
        achievable=inverse_rate_achievable(bq),
        lambda2=lambda2,
        correction=correction,
    )


def corollary_limits(K_files: int, P: int, N: int) -> Fraction | None:
    """Exact limit of 1/C as L -> infinity, when the bracket collapses.

    The bracket collapses when K_msg = K(K+1)/2 is at most 2P or a multiple
    of P; the limit is then the converse, and None otherwise.  Raises
    ValueError where ``BoundQuery`` does (P outside [1, K_msg], N < 1).
    """
    bq = BoundQuery(K_files * (K_files + 1) // 2, P, N)
    if bq.K_msg <= 2 * P or bq.K_msg % P == 0:
        return inverse_rate_converse(bq)
    return None


def capacity_grid(
    K_files_list, P_list, N_list, verbose: bool = False
) -> list[dict]:
    """Bound rows over a parameter grid, skipping P > K_msg combinations.

    Each row carries K_files, K_msg, P, N, both inverse rates, and the
    collapsed limit (or None), each the correctly rounded float of its
    exact value.  ``verbose`` adds the raw rate fraction and the
    coefficient-system residual for transparency on the orientation choice.
    """
    rows = []
    for K_files in K_files_list:
        K_msg = K_files * (K_files + 1) // 2
        for P in P_list:
            if P > K_msg:
                continue
            for N in N_list:
                bq = BoundQuery(K_msg, P, N)
                achievable = inverse_rate_achievable(bq)
                limit = corollary_limits(K_files, P, N)
                row = {
                    "K_files": K_files,
                    "K_msg": K_msg,
                    "P": P,
                    "N": N,
                    "inv_rate_converse": float(inverse_rate_converse(bq)),
                    "inv_rate_achievable": float(achievable),
                    "limit": None if limit is None else float(limit),
                }
                if verbose:
                    # the achievable end is the rate fraction's reciprocal here
                    with_fraction = N >= 2 and K_msg >= 2 * P
                    row["rate_fraction_as_printed"] = float(1 / achievable) if with_fraction else None
                    row["rate_fraction_reciprocal"] = float(achievable) if with_fraction else None
                    row["beta_residual"] = (
                        solve_root_coefficients(bq).max_residual if with_fraction else None
                    )
                rows.append(row)
    return rows


def single_message_inverse_rate(K_msg: int, N: int) -> Fraction:
    """Independent P = 1 oracle: the geometric sum 1 + 1/N + ... + N**-(K-1),
    term by term."""
    return sum(Fraction(1, N**i) for i in range(K_msg))


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
]
