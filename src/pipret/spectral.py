"""Markov analysis of the inner-product table of growing random files.

Appending one uniform column to every file of a K-file database adds an
increment vector to the table of pairwise inner products.  The table
therefore performs a random walk on the additive group F(q)^T with
T = K(K+1)/2, driven by the increment distribution computed here.  The walk
has a doubly stochastic transition operator, the uniform distribution as
its unique stationary law, and a spectral gap that controls how fast the
table forgets its initial distribution.

Because the transition operator depends only on state differences, it is a
convolution operator on the group and its eigenvalues are the character
sums of the increment law.  The character of a symmetric matrix C sums to
a Gauss sum of the quadratic form x^T C x, of modulus q^(-rank(C)/2) for
odd q; for q = 2 it is 2^(-h) when the polar form of C has rank 2h and the
form vanishes on its radical, and 0 otherwise.  So ``lambda2``, the
second largest modulus, is q^(-1/2) for odd q, 1/2 for q = 2 and K >= 2,
and 0 at (2,1), and it is computed as the correctly rounded double of
that closed form.  The q^T-point Fourier transform of the increment law
(``spectrum_via_characters``) and the dense matrix (``transition_dense``)
are brute-force oracles for tests and acceptance.

Irreducibility, strict positivity of M^(5T) and the distances to uniform
that ``converge`` reports come from the walk lumped onto congruence
classes.  The table is a symmetric K x K matrix S and a column x moves it
to S + x x^T.  For A in GL_K(F(q)), x -> A^T x is a bijection of the
columns, so the walk commutes with S -> A^T S A, and its start, the zero
table, is fixed; the law after any number of steps is therefore constant
on congruence classes, and the walk is strongly lumpable onto them
(Kemeny and Snell, Finite Markov Chains, 1960).  The classes are the rank
and the square class of the discriminant of the nondegenerate part for
odd q, 2K + 1 of them, and the rank and whether the matrix is alternating
for q = 2, 1 + K + floor(K/2) of them.  Their sizes are MacWilliams'
counts ("Orthogonal matrices over finite fields", Amer. Math. Monthly 76,
1969): a Gaussian binomial for the radical times the number of
nondegenerate forms of the class, |GL_r| over the order of the form's
isometry group.  The transition counts are closed forms in the rank, from
the classical counts of the solutions of a quadratic equation over F(q);
no column and no table is enumerated.  ``is_irreducible`` walks the level
sets of the support as sets of classes, and ``class_trace`` evolves the
class masses in integers, so both are exact, and every row at every
length, for a handful of big-integer products per step.  Those products
grow by a factor q^K per step, so the guard q^K <= ENUMERATION_LIMIT
bounds that work: (2, 20) and (3, 12) at L_max = 1000 take about 3 s.

``evolve`` keeps the per-state laws, which subset entropies need, and is
the reference for the class chain.  It is exact in integers while
q^T <= EXACT_EVOLVE_LIMIT and L_max <= 200: the distribution after L steps
is a vector of counts over q^(K*L).  Beyond that the distributions come
from inverse transforms of the powers of the increment spectrum.  Every
distribution is real, so one complex inverse transform of
p_hat_L + i*p_hat_(L+1) yields p_L as its real part and p_(L+1) as its
imaginary part, two steps per transform; each row carries a rounding
bound on its sup distance.  The float l2 distance comes from Parseval over
the character spectrum, l2(L)^2 = (1/n) sum_(chi != 0) |lambda_chi|^(2L),
which carries no convolution rounding noise.

The module needs numpy alone.  The Fourier transforms, the oracles'
``_increment_transform`` and the float path ``_evolve_float``, use
``np.fft``, which ``import numpy`` does not load; those two functions
reach it where they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import (
    Database,
    _check_prime_modulus,
    compute_table,
    pair_count,
    pair_rank,
    pair_unrank,
)

# largest q^T tables enumerated, and largest q^K of the class chain, whose
# big-integer masses in class_trace grow by a factor q^K per step
ENUMERATION_LIMIT = 2**20
DENSE_LIMIT = 2**12         # largest q^T materialized as a dense matrix
EXACT_EVOLVE_LIMIT = 2**12  # largest q^T evolved in exact integer arithmetic
MAX_TRACE_LENGTH = 1000


def _state_count(q: int, K: int) -> tuple[int, int]:
    T = pair_count(K)
    n = q**T
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"state space q^T = {n} exceeds {ENUMERATION_LIMIT}")
    return T, n


def _index_powers(q: int, T: int) -> np.ndarray:
    # big-endian: coordinate 0 is the most significant digit
    return q ** np.arange(T - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class DeltaDistribution:
    """Law of the table increment caused by one fresh uniform column.

    ``probs[i]`` is the probability of the increment vector whose base-q
    digits (in canonical pair order, most significant first) encode to i.
    Every probability is an exact multiple of q**-K; ``counts`` holds the
    integer numerators.
    """

    q: int
    K: int
    T: int
    counts: np.ndarray
    probs: np.ndarray

    @property
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.counts)[0]


def delta_distribution(q: int, K: int) -> DeltaDistribution:
    """Exact increment distribution by enumerating all q^K fresh columns.

    Raises ValueError when q is not prime or q^T exceeds the enumeration
    guard.
    """
    q = _check_prime_modulus(q)
    T, n = _state_count(q, K)
    cols = np.indices((q,) * K).reshape(K, -1).T.astype(np.int64)
    iu, ju = np.triu_indices(K)
    increments = (cols[:, iu] * cols[:, ju]) % q
    idx = increments @ _index_powers(q, T)
    counts = np.bincount(idx, minlength=n).astype(np.int64)
    return DeltaDistribution(q=q, K=K, T=T, counts=counts, probs=counts / float(q**K))


@dataclass(frozen=True)
class TransitionOperator:
    """Transition operator of the table walk; entry (i, j) is the
    probability of the increment y_i - y_j.  The dense materialization is
    optional and exists for oracle checks."""

    delta: DeltaDistribution
    matrix: np.ndarray | None = None


def transition_dense(q: int, K: int) -> TransitionOperator:
    """Dense q^T x q^T transition matrix (brute-force oracle path).

    Raises ValueError beyond the dense size guard.
    """
    d = delta_distribution(q, K)
    n = q**d.T
    if n > DENSE_LIMIT:
        raise ValueError(f"dense materialization of {n} states exceeds {DENSE_LIMIT}")
    powers = _index_powers(q, d.T)
    states = np.indices((q,) * d.T).reshape(d.T, -1).T
    M = np.empty((n, n), dtype=float)
    for i in range(n):
        diff = (states[i][None, :] - states) % q
        M[i] = d.probs[diff @ powers]
    return TransitionOperator(delta=d, matrix=M)


@dataclass(frozen=True)
class Spectrum:
    """All q^T eigenvalues of the transition operator and the second
    largest modulus."""

    eigenvalues: np.ndarray
    lambda2: float


def _increment_transform(d: DeltaDistribution) -> np.ndarray:
    """Unnormalised DFT of the increment law, shaped (q,) * T."""
    return np.fft.fftn(d.probs.reshape((d.q,) * d.T).astype(complex))


def spectrum_via_characters(d: DeltaDistribution) -> Spectrum:
    """Full spectrum from the group Fourier transform of the increment law.

    The eigenvalue attached to character chi is
    sum_delta probs[delta] * exp(2*pi*i*<chi, delta>/q); the chi = 0
    eigenvalue is 1 and lambda2 is the largest remaining modulus.
    """
    # fftn uses the negative-sign kernel; conjugating a real input's
    # transform yields the positive-sign character sums
    eig = np.conj(_increment_transform(d)).ravel()
    lambda2 = float(np.max(np.abs(eig[1:]))) if eig.size > 1 else 0.0
    return Spectrum(eigenvalues=eig, lambda2=lambda2)


def spectrum_dense_oracle(m: TransitionOperator) -> Spectrum:
    """Spectrum via a standard dense eigensolver on the materialized matrix.

    Exists to cross-check the character method; raises ValueError when the
    operator was built without a dense matrix.
    """
    if m.matrix is None:
        raise ValueError("dense matrix not materialized")
    eig = np.linalg.eigvals(m.matrix)
    mods = np.sort(np.abs(eig))[::-1]
    lambda2 = float(mods[1]) if len(mods) > 1 else 0.0
    return Spectrum(eigenvalues=eig, lambda2=lambda2)


def lambda2(q: int, K: int) -> float:
    """Second largest eigenvalue modulus of the walk, correctly rounded.

    It is q**(-1/2) for odd q, 1/2 for q = 2 with K >= 2 and 0 at (2, 1)
    (see the module docstring).  For odd q, X = 2**(h+1) * q**(-1/2) is
    irrational, so it lies strictly between R = floor(X) =
    isqrt(floor(4**(h+1) / q)) and R + 1.  With R >= 2**54, every midpoint
    between adjacent doubles near X is an integer, so X and R + 1/2 round
    alike, and the odd integer 2R + 1 converts to a double without a tie.
    Raises ValueError for a non-prime q or K < 1.
    """
    q = _check_prime_modulus(q)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if q == 2:
        return 0.5 if K >= 2 else 0.0
    h = 64 + q.bit_length()
    R = math.isqrt((1 << 2 * h + 2) // q)
    return math.ldexp(float(2 * R + 1), -(h + 2))


# --- irreducibility -----------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityReport:
    """Outcome of the level-set walk: does the increment support generate
    the whole group, and is every entry of M**gamma strictly positive for
    the witness exponent gamma = 5T."""

    irreducible: bool
    reached: int
    group_size: int
    gamma: int
    gamma_all_positive: bool


def is_irreducible(q: int, K: int) -> IrreducibilityReport:
    """Level sets S_0 = {0}, S_k = S_(k-1) + support of the walk in F(q)^T,
    walked on the congruence classes of the table.

    S_k is the support of the law after k steps from the zero table.  That
    law is constant on congruence classes (see the module docstring), so
    S_k is a union of classes, and class b lies in S_k iff some class a in
    S_(k-1) has ``class_chain(q, K).counts[a, b] > 0``, a count that is the
    same from every table of class a.  The walk on boolean sets of classes
    is therefore exact, with no transform.  It stops once a level set is
    every class (G + s = G keeps it full), or once k >= gamma and the union
    of the level sets has stopped growing.

    The chain is irreducible iff that union is every class; ``reached`` is
    the number of tables in it.  M**gamma has entry (i, j) positive iff
    y_i - y_j lies in S_gamma, so ``gamma_all_positive`` is whether S_gamma
    is every class; this needs no zero increment in the support.  Raises
    the ValueErrors of ``class_chain``.
    """
    chain = class_chain(q, K)
    moves = chain.counts > 0
    T = pair_count(K)
    gamma = 5 * T
    level = np.zeros(len(chain.labels), dtype=bool)
    level[0] = True
    union = level.copy()
    k, grown = 0, True
    while not level.all() and (k < gamma or grown):
        k += 1
        level = moves[level].any(axis=0)
        grown = bool((level & ~union).any())
        union |= level
    return IrreducibilityReport(
        irreducible=bool(union.all()),
        reached=sum(size for size, hit in zip(chain.sizes, union) if hit),
        group_size=q**T,
        gamma=gamma,
        gamma_all_positive=bool(level.all() and k <= gamma),
    )


def sum_two_squares(q: int, a: int) -> tuple[int, int]:
    """Field elements (s, t), s >= t, with s**2 + t**2 = a mod q.

    Every residue of a prime field has such a decomposition; exhaustive
    search therefore always succeeds, and failure would falsify that fact
    (hard assertion).
    """
    a = int(a) % q
    for s in range(q):
        ss = s * s % q
        for t in range(s + 1):
            if (ss + t * t) % q == a:
                return (s, t)
    raise AssertionError(f"no two-square decomposition of {a} mod {q}")


def accumulate_increment(columns: np.ndarray, q: int, K: int) -> np.ndarray:
    """Total table increment produced by a block of fresh columns.

    ``columns`` has one row per appended position and K entries per row;
    the result is the length-T increment vector in canonical pair order, a
    read-only int64 array (the inner-product table of the transposed block).
    """
    cols = np.asarray(columns, dtype=np.int64) % q
    if cols.ndim != 2 or cols.shape[1] != K:
        raise ValueError(f"columns must be (steps, {K})")
    return compute_table(Database(q, cols.T))


def reachability_witness(q: int, K: int, e: int, a: int) -> np.ndarray:
    """Five fresh columns whose accumulated increment is ``a`` at pair rank
    ``e`` and zero elsewhere.

    Diagonal pairs need two of the five steps (the two-square decomposition
    of a); off-diagonal pairs use all five (decompositions of -a**2 and -1
    cancel the two diagonal by-products).  The construction is checked by
    direct evaluation before returning.
    """
    T = pair_count(K)
    if not 0 <= e < T:
        raise ValueError(f"pair rank {e} out of range for K={K}")
    a = int(a) % q
    if a == 0:
        raise ValueError("target value a must be nonzero")
    pair = pair_unrank(K, e)
    cols = np.zeros((5, K), dtype=np.int64)
    if pair.i == pair.j:
        s, t = sum_two_squares(q, a)
        cols[0, pair.i - 1] = t
        cols[1, pair.i - 1] = s
    else:
        s1, t1 = sum_two_squares(q, -a * a % q)
        s2, t2 = sum_two_squares(q, -1 % q)
        cols[0, pair.i - 1] = a
        cols[0, pair.j - 1] = 1
        cols[1, pair.i - 1] = s1
        cols[2, pair.i - 1] = t1
        cols[3, pair.j - 1] = s2
        cols[4, pair.j - 1] = t2
    achieved = accumulate_increment(cols, q, K)
    expected = np.zeros(T, dtype=np.int64)
    expected[e] = a
    if not np.array_equal(achieved, expected):
        raise AssertionError(
            f"witness construction failed for q={q} K={K} e={e} a={a}: {achieved}"
        )
    return cols


# --- evolution ----------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceTrace:
    """Distances to uniform along the walk, plus a geometric fit.

    ``sup_dists[L-1]`` and ``l2_dists[L-1]`` are the distances of the
    length-L table distribution from uniform.  ``class_trace`` computes
    them exactly on the congruence classes of the table: the law is
    constant on each class because the walk commutes with congruence and
    starts from the zero table, so a class's mass over its size is every
    member's probability (see the module docstring for the lumpability
    argument and the classification).  ``evolve`` computes them per state.
    ``sup_floors[L-1]`` bounds the rounding error of ``sup_dists[L-1]``: 0
    on an exact trace, the bound derived in ``_float_sup_floors`` on a
    float one, so a sup distance at or below its floor is rounding noise.
    The fit models l2_dist(L) ~ c * rate**(L-1) by least squares on the
    log distances over the last half of the trace.  ``lambda2`` is the
    second largest eigenvalue modulus: the closed form ``lambda2`` on a
    ``class_trace``, the oracle transform's value on an ``evolve`` trace.
    """

    q: int
    K: int
    L_max: int
    sup_dists: np.ndarray
    sup_floors: np.ndarray
    l2_dists: np.ndarray
    fitted_rate: float
    fitted_constant: float
    distributions: list[np.ndarray] | None
    exact: bool
    lambda2: float


def evolve(
    d: DeltaDistribution, L_max: int, store_distributions: bool = True
) -> ConvergenceTrace:
    """Distribution of the table after L = 1 .. L_max columns.

    The length-1 table has exactly the increment law; each further column
    convolves the current law with the increment law over the group.  Small
    state spaces use exact integer numerators over q**(K*L); larger ones
    fall back to doubles: the distributions and ``sup_dists`` come from
    inverse transforms of the powered increment spectrum, two steps per
    transform, with ``sup_floors`` bounding their rounding, and
    ``l2_dists`` from Parseval over the character spectrum, exact up to the
    rounding of the eigenvalue moduli.
    """
    if not 1 <= L_max <= MAX_TRACE_LENGTH:
        raise ValueError(f"L_max must lie in [1, {MAX_TRACE_LENGTH}]")
    n = d.q**d.T
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"state space {n} exceeds {ENUMERATION_LIMIT}")
    if n <= EXACT_EVOLVE_LIMIT and L_max <= 200:
        sup, l2, dists = _evolve_exact(d, L_max, store_distributions)
        floors = np.zeros(L_max)
        exact = True
        lambda2 = spectrum_via_characters(d).lambda2
    else:
        sup, l2, dists, lambda2 = _evolve_float(d, L_max, store_distributions)
        floors = _float_sup_floors(d.q, d.T, l2)
        exact = False
    rate, const = _fit_geometric(l2)
    return ConvergenceTrace(
        q=d.q,
        K=d.K,
        L_max=L_max,
        sup_dists=sup,
        sup_floors=floors,
        l2_dists=l2,
        fitted_rate=rate,
        fitted_constant=const,
        distributions=dists,
        exact=exact,
        lambda2=lambda2,
    )


def _evolve_exact(d: DeltaDistribution, L_max: int, store: bool):
    q, T = d.q, d.T
    n = q**T
    powers = _index_powers(q, T)
    states = np.indices((q,) * T).reshape(T, -1).T
    support_idx = d.support_indices
    support = states[support_idx]
    shift_perms = [
        ((states + s[None, :]) % q) @ powers for s in support
    ]
    weights = [int(d.counts[i]) for i in support_idx]

    step = int(q**d.K)
    num = np.array([int(c) for c in d.counts], dtype=object)
    denom = step
    sup_dists, l2_dists, dists = [], [], [] if store else None
    for L in range(1, L_max + 1):
        if L > 1:
            new = np.zeros(n, dtype=object)
            for perm, w in zip(shift_perms, weights):
                new[perm] = new[perm] + num * w
            num = new
            denom *= step
        dev = np.abs(num * n - denom)
        sup, l2 = _exact_distances(int(dev.max()), int(np.sum(dev * dev)), denom * n)
        sup_dists.append(sup)
        l2_dists.append(l2)
        if store:
            dists.append(np.array([v / denom for v in num.tolist()], dtype=float))
    return np.array(sup_dists), np.array(l2_dists), dists


def _evolve_float(d: DeltaDistribution, L_max: int, store: bool):
    q, T = d.q, d.T
    n = q**T
    delta_hat = _increment_transform(d)
    # Parseval: l2(L)**2 = (1/n) sum_(chi != 0) |lambda_chi|**(2L).  Scaled by
    # lambda2**L, the sum keeps its leading terms at 1, so it neither
    # underflows nor sinks into the ~1e-17 rounding floor of ifftn
    mods = np.abs(delta_hat.ravel()[1:])
    lam2 = float(mods.max())
    ratio_sq = (mods / lam2) ** 2 if lam2 > 0 else mods
    scaled = np.ones_like(ratio_sq)
    pi = 1.0 / n
    sup_dists, l2_dists, dists = [], [], [] if store else None
    for L in range(1, L_max + 1):
        scaled *= ratio_sq
        l2_dists.append(lam2**L * math.sqrt(float(scaled.sum()) / n))
    # p_L and p_(L+1) are real, so the inverse transform of
    # p_hat_L + i*p_hat_(L+1) holds p_L in its real part and p_(L+1) in its
    # imaginary part: one transform per two steps.  The pair is formed in
    # the p_hat_L buffer; an odd L_max ends with p_hat_L alone.
    p_hat = delta_hat.copy()
    next_hat = np.empty_like(delta_hat)
    for L in range(1, L_max + 1, 2):
        paired = L < L_max
        if paired:
            np.multiply(p_hat, delta_hat, out=next_hat)
            p_hat.real -= next_hat.imag
            p_hat.imag += next_hat.real
        p = np.fft.ifftn(p_hat)
        for part in (p.real, p.imag) if paired else (p.real,):
            sup_dists.append(max(float(part.max()) - pi, pi - float(part.min())))
            if store:
                dists.append(np.clip(part, 0.0, None).ravel())
        if paired:
            np.multiply(next_hat, delta_hat, out=p_hat)
    return np.array(sup_dists), np.array(l2_dists), dists, lam2


def _float_sup_floors(q: int, T: int, l2_dists: np.ndarray) -> np.ndarray:
    """Rounding bound on each ``sup_dists`` entry of ``_evolve_float``.

    Notation: ||.|| is the l2 norm, n = q**T, u = 2**-53 the unit roundoff,
    gamma_k = k*u/(1 - k*u), and p_L the exact length-L law.  By Parseval
    and because p_L - pi is orthogonal to the constant pi,
    ||p_L||**2 = 1/n + l2(L)**2, so every norm below comes from the
    trace's own ``l2_dists``; and ||p_(L+1)|| <= ||p_L|| since every
    character value has modulus at most 1.

    FFT bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 24.2): a transform of t butterfly levels with twiddle factors
    correct to u has normwise relative error at most
    eps = t*eta / (1 - t*eta), eta = u + gamma_4*(sqrt(2) + u).  A pass of
    length q counts ceil(log2 q) levels, so t = T*ceil(log2 q); for odd q
    this prices the radix-q kernels as radix-2 levels.

    Three first-order error terms reach the computed p_L:
    - forward: the computed spectrum is delta_hat + e with
      ||e|| <= eps*||delta_hat|| = eps*sqrt(n)*||p_1||.  With every
      |delta_hat_chi| <= 1 the L-th power moves by at most L*|e_chi| per
      character, and the inverse transform divides norms by sqrt(n):
      L*eps*||p_1||.
    - powers: the L - 1 complex products each round by at most
      sqrt(2)*gamma_2 relatively (Higham, Lemma 3.5):
      (L - 1)*sqrt(2)*gamma_2*||p_L||.
    - inverse: the pair z = p_hat_Lo + i*p_hat_(Lo+1), Lo = L rounded down
      to odd (the pair's first member), is formed with one rounding per
      component and transformed with the 1/n scale rounded once, so its
      error is at most (eps + 2u)*||p_Lo + i*p_(Lo+1)||
      <= (eps + 2u)*sqrt(2)*||p_Lo||; the real and the imaginary part each
      carry at most that.  The tail of an odd L_max is a pair without
      its second member and stays under the same bound.
    A sup distance moves by at most the largest entry error, which is at
    most the l2 error; the roundings of pi and of p - pi stay below u
    times the norms above.  The floor is twice the sum, which covers the
    second-order terms (relative size L*eps < 1e-10 for L <= 1000).
    """
    n = q**T
    u = 2.0**-53
    gamma_2, gamma_4 = 2 * u / (1 - 2 * u), 4 * u / (1 - 4 * u)
    t = T * (q - 1).bit_length()
    eta = u + gamma_4 * (math.sqrt(2) + u)
    eps = t * eta / (1 - t * eta)
    L = np.arange(1, len(l2_dists) + 1)
    norms = np.sqrt(1.0 / n + np.asarray(l2_dists) ** 2)
    pair_norms = norms[::2].repeat(2)[: len(norms)]
    inverse = math.sqrt(2) * (eps + 2 * u) * pair_norms
    powers = (L - 1) * math.sqrt(2) * gamma_2 * pair_norms
    forward = L * eps * norms[0]
    return 2 * (forward + powers + inverse)


def _exact_distances(max_dev: int, sumsq: int, scale: int) -> tuple[float, float]:
    """sup = max_dev/scale and l2 = sqrt(sumsq)/scale as doubles.

    Integer true division rounds correctly, into the subnormal range too,
    so the sup distance is the correctly rounded ratio.  sumsq/scale**2
    underflows long before l2 does (at (7,3) beyond L ~ 365), so it is
    scaled by 4**m into [1/4, 4] before the conversion and its root scaled
    back by 2**-m.  Both scalings are exact, so wherever sumsq/scale**2 is
    a normal double the result is bit-identical to the unscaled
    sqrt(float(sumsq/scale**2)).
    """
    m = max(0, (2 * scale.bit_length() - sumsq.bit_length()) // 2)
    return max_dev / scale, math.ldexp(math.sqrt((sumsq << 2 * m) / (scale * scale)), -m)


def _fit_geometric(l2_dists: np.ndarray) -> tuple[float, float]:
    L_max = len(l2_dists)
    xs = np.arange(1, L_max + 1)
    mask = (xs >= (L_max + 1) // 2) & (l2_dists > 0)
    if mask.sum() < 2:
        # fully mixed within the window: a one-step chain
        return 0.0, float(l2_dists[0])
    slope, intercept = np.polyfit(xs[mask] - 1, np.log(l2_dists[mask]), 1)
    return float(np.exp(slope)), float(np.exp(intercept))


# --- congruence classes -------------------------------------------------------


@dataclass(frozen=True)
class ClassChain:
    """The table walk lumped onto the congruence classes of the table.

    ``labels[a]`` is (rank, kind).  For odd q, kind is '+' or '-', the
    square class of the discriminant of the nondegenerate part ('+' at
    rank 0); for q = 2 it is 'a' for an alternating matrix (zero diagonal)
    and 'n' otherwise.  Class 0 is the zero table.  ``counts[a, b]`` is the
    number of columns x in F(q)^K that move a table of class a into class
    b, the same for every table of class a, so every row sums to q**K.
    ``sizes[a]`` is the number of tables in class a.
    """

    q: int
    K: int
    labels: tuple[tuple[int, str], ...]
    counts: np.ndarray
    sizes: tuple[int, ...]


def class_chain(q: int, K: int) -> ClassChain:
    """Congruence classes of the table, their transition counts and sizes.

    The table is a symmetric K x K matrix S over F(q), and a column x moves
    it to S + x x^T.  Class a is represented by S = B (+) 0 with B an r x r
    nondegenerate block: diag(1, ..., 1, nu) for odd q, nu = 1 for '+' and
    a nonsquare for '-'; I_r ('n') or r/2 copies of
    H = [[0, 1], [1, 0]] ('a') for q = 2.  Split x = (y, z) after r
    coordinates.
    - z != 0: v -> (v_1..v_r, x.v, ...) is a change of basis taking
      S + x x^T to B (+) (1) (+) 0, of rank r + 1 and discriminant disc(B).
      These are q^K - q^r columns, and for q = 2 the image has a nonzero
      diagonal entry.
    - z = 0: S + x x^T = (B + y y^T) (+) 0 and
      det(B + y y^T) = det(B) * s, s = 1 + y^T B^-1 y.  If s != 0 the rank
      stays r and the discriminant becomes disc(B) * s.  If s = 0 the rank
      drops to r - 1: w = B^-1 y spans the radical, B(w, w) = -1, and on
      w's B-orthogonal complement y^perp the two forms agree, so the new
      discriminant is -disc(B).
    For q = 2 the diagonal of S + x x^T is diag(S) + x, since x_i**2 = x_i,
    so the new table is alternating iff x = diag(S).

    The counts follow by counting the y of each outcome, in O(1) integer
    work per class; no column is enumerated.
    - q = 2, class (r, a): y^T H y = 0, so s = 1 for every y; y = 0 keeps
      the table alternating, and the 2^r - 1 others go to (r, n).
    - q = 2, class (r, n): s = 1 + |y| mod 2, so the 2^(r-1) y of even
      weight keep rank r and the 2^(r-1) of odd weight drop to r - 1.  The
      all-ones y, of weight r, is the one with an alternating image, in
      whichever of ranks r and r - 1 is even.
    - odd q: Q(y) = y^T B^-1 y is nondegenerate of rank r, and with
      eta the quadratic character, e = eta(-1), m = floor(r/2) and
      c = eta((-1)**m) * eta(disc(B)), the number of y with Q(y) = b is
      q**(r-1) + c*q**(m-1)*v(b), v(0) = q - 1 and v(b) = -1 otherwise, for
      even r, and q**(r-1) + c*q**m*eta(b) for odd r (Lidl and
      Niederreiter, Finite Fields, Thms 6.26 and 6.27).  The rank drops
      (s = 0) at b = -1.  The kind is kept at b = s - 1 for the (q - 1)/2
      nonzero squares s; with sum_(s square, s != 0) eta(s - 1) =
      -(1 + e)/2 for odd r, those columns number
      (q - 1)/2 * q**(r-1) + c*q**(m-1)*(q + 1)/2 for even r and
      (q - 1)/2 * q**(r-1) - c*q**m*(1 + e)/2 for odd r.  The rest of the
      z = 0 columns flip the kind.

    The sizes are MacWilliams' counts (``_class_sizes``).  They are the
    image of the uniform law on the tables, so they must sum to q^T and
    satisfy sizes @ counts = q**K * sizes; both are checked in integers,
    and ArithmeticError is raised if either fails.  Raises ValueError for a
    non-prime q, for K < 1 or for q^K columns beyond ``ENUMERATION_LIMIT``.
    """
    q = _check_prime_modulus(q)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    columns = q**K
    if columns > ENUMERATION_LIMIT:
        raise ValueError(f"q^K = {columns} columns exceeds {ENUMERATION_LIMIT}")
    if q == 2:
        labels = sorted([(0, "a")] + [(r, "n") for r in range(1, K + 1)]
                        + [(r, "a") for r in range(2, K + 1, 2)])
    else:
        labels = [(0, "+")] + [(r, kind) for r in range(1, K + 1) for kind in "+-"]
    e = 1 if q % 4 == 1 else -1  # eta(-1)
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for a, (r, kind) in enumerate(labels):
        # the z = 0 moves, then the q^K - q^r columns with z != 0
        if q == 2 and kind == "a":
            moves = [((r, "a"), 1), ((r, "n"), 2**r - 1)]
        elif q == 2:
            # of r and r - 1, the even rank is the one with an alternating image
            even, odd, half = r - r % 2, r - 1 + r % 2, 2 ** (r - 1)
            moves = [((even, "a"), 1), ((even, "n"), half - 1), ((odd, "n"), half)]
        elif r == 0:
            moves = [((0, "+"), 1)]
        else:
            other = "-" if kind == "+" else "+"
            c = e ** (r // 2) * (1 if kind == "+" else -1)
            p = q ** (r - 1)
            base = (q - 1) // 2 * p
            if r % 2 == 0:
                t = c * q ** (r // 2 - 1)
                drop, keep, flip = p - t, base + t * (q + 1) // 2, base - t * (q - 1) // 2
            else:
                t = c * q ** (r // 2)
                drop, keep, flip = p + t * e, base - t * (e + 1) // 2, base - t * (e - 1) // 2
            moves = [
                ((r, kind), keep), ((r, other), flip), ((r - 1, kind if e == 1 else other), drop)
            ]
        moves.append(((r + 1, "n" if q == 2 else kind), columns - q**r))
        for label, n in moves:
            if n:  # a zero count may name a class that does not exist
                counts[a, labels.index(label)] += n
    sizes = _class_sizes(q, K, labels)
    into = counts.T.tolist()
    if sum(sizes) != q ** pair_count(K) or any(
        sum(s * c for s, c in zip(sizes, col)) != columns * size
        for col, size in zip(into, sizes)
    ):
        raise ArithmeticError(f"class sizes {sizes} are not stationary for the class chain")
    return ClassChain(q=q, K=K, labels=tuple(labels), counts=counts, sizes=sizes)


def _class_sizes(q: int, K: int, labels) -> tuple[int, ...]:
    """Number of symmetric K x K tables in each class (MacWilliams 1969).

    A table of rank r is a nondegenerate form on F(q)^K modulo its
    (K - r)-dimensional radical, so class (r, kind) holds [K r]_q
    radicals, the Gaussian binomial, times the nondegenerate r x r forms
    of that kind; those are one orbit of GL_r, so they number |GL_r| / |G|
    for G the isometry group of one of them.
    - odd q, r = 2m + 1: G = O_(2m+1), of order 2 q**(m*m) prod_(i<=m)
      (q**(2i) - 1), for either discriminant class.
    - odd q, r = 2m: G = O^e_(2m), of order 2 q**(m(m-1)) (q**m - e)
      prod_(i<m) (q**(2i) - 1), with e = +1 for the hyperbolic form, whose
      discriminant is (-1)**m; so e = eta((-1)**m) eta(disc), eta the
      quadratic character and eta(-1) = +1 iff q = 1 mod 4.
    - q = 2: the alternating forms (r = 2m) are one orbit with G = Sp_(2m),
      of order q**(m*m) prod_(i<=m) (q**(2i) - 1); the others, for any
      r = 2m or 2m + 1, are the rest of MacWilliams' N(r, r) =
      q**(m(m+1)) prod_(i<=r) (q**i - 1) / prod_(i<=m) (q**(2i) - 1)
      nondegenerate symmetric r x r matrices.
    """

    def gl(r):
        return math.prod(q**r - q**i for i in range(r))

    def units(m):  # prod_(i<=m) (q**(2i) - 1)
        return math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))

    sizes = []
    for r, kind in labels:
        radicals = math.prod(q ** (K - i) - 1 for i in range(r)) // math.prod(
            q**i - 1 for i in range(1, r + 1)
        )
        m = r // 2
        if r == 0:
            forms = 1
        elif q == 2:
            alternating = gl(r) // (q ** (m * m) * units(m)) if r % 2 == 0 else 0
            symmetric = q ** (m * (m + 1)) * math.prod(q**i - 1 for i in range(1, r + 1)) // units(m)
            forms = alternating if kind == "a" else symmetric - alternating
        elif r % 2:
            forms = gl(r) // (2 * q ** (m * m) * units(m))
        else:
            e = 1 if (kind == "+") == (m % 2 == 0 or q % 4 == 1) else -1
            forms = gl(r) // (2 * q ** (m * (m - 1)) * (q**m - e) * units(m - 1))
        sizes.append(radicals * forms)
    return tuple(sizes)


def class_trace(q: int, K: int, L_max: int) -> ConvergenceTrace:
    """Exact distances to uniform along the walk, evolved on the classes.

    The class masses after L columns, as integers over q**(K*L), evolve by
    ``class_chain(q, K).counts``; the law is constant on each class, so a
    table's numerator is its class mass over the class size, a division
    checked to be exact (ArithmeticError otherwise).  The distances are
    formed from exact integers as in the exact per-state path, so the rows
    equal its rows bit for bit wherever it runs, and stay exact at every
    size and L_max beyond it.  ``sup_floors`` are 0, ``distributions`` is
    None and ``lambda2`` is the closed form ``lambda2(q, K)``; no q^T
    enumeration or transform runs.  Raises the ValueErrors of
    ``class_chain``, and ValueError for L_max outside [1, MAX_TRACE_LENGTH].
    """
    chain = class_chain(q, K)
    if not 1 <= L_max <= MAX_TRACE_LENGTH:
        raise ValueError(f"L_max must lie in [1, {MAX_TRACE_LENGTH}]")
    n = q ** pair_count(K)
    step = q**K
    into = [[(a, int(w)) for a, w in enumerate(col) if w] for col in chain.counts.T]
    mass = [int(w) for w in chain.counts[0]]
    denom = step
    sup_dists, l2_dists = [], []
    for L in range(1, L_max + 1):
        if L > 1:
            mass = [sum(mass[a] * w for a, w in col) for col in into]
            denom *= step
        max_dev = sumsq = 0
        for c, size in zip(mass, chain.sizes):
            num, rem = divmod(c, size)
            if rem:
                raise ArithmeticError(f"class mass {c} not divisible by class size {size}")
            dev = abs(num * n - denom)
            max_dev = max(max_dev, dev)
            sumsq += size * dev * dev
        sup, l2 = _exact_distances(max_dev, sumsq, denom * n)
        sup_dists.append(sup)
        l2_dists.append(l2)
    l2 = np.array(l2_dists)
    rate, const = _fit_geometric(l2)
    return ConvergenceTrace(
        q=q,
        K=K,
        L_max=L_max,
        sup_dists=np.array(sup_dists),
        sup_floors=np.zeros(L_max),
        l2_dists=l2,
        fitted_rate=rate,
        fitted_constant=const,
        distributions=None,
        exact=True,
        lambda2=lambda2(q, K),
    )


def envelope_constant(values, rate: float, fit_window: int | None = None) -> float:
    """Smallest c with values[L-1] <= c * rate**(L-1) over L in the window.

    ``values`` is indexed from L = 1; with ``fit_window`` only the first
    that many points are used.  A rate of zero leaves only the L = 1 point.
    """
    vals = np.asarray(values, dtype=float)
    if fit_window is not None:
        vals = vals[:fit_window]
    best = 0.0
    for L, v in enumerate(vals, start=1):
        denom = rate ** (L - 1)
        if denom <= 0.0:
            continue
        best = max(best, v / denom)
    return best


# --- subset entropies ---------------------------------------------------------


class EntropyResult(NamedTuple):
    bits: float
    logq_units: float


def subset_entropy(p: np.ndarray, q: int, K: int, pairs) -> EntropyResult:
    """Shannon entropy of the table coordinates selected by ``pairs``.

    ``p`` is a distribution over F(q)^T in index order; ``pairs`` is a
    nonempty collection of PairIndex values (or integer pair ranks).  The
    marginal entropy is computed as P*log(q) minus the KL divergence of the
    marginal from uniform, which keeps the value at or below P*log(q) even
    when the marginal is within rounding distance of uniform.
    """
    T = pair_count(K)
    ranks = sorted(
        {pr if isinstance(pr, (int, np.integer)) else pair_rank(K, pr) for pr in pairs}
    )
    if not ranks:
        raise ValueError("pair set must be nonempty")
    if ranks[0] < 0 or ranks[-1] >= T:
        raise ValueError(f"pair rank out of range for K={K}")
    P = len(ranks)
    nd = np.asarray(p, dtype=float).reshape((q,) * T)
    other_axes = tuple(t for t in range(T) if t not in ranks)
    marg = nd.sum(axis=other_axes).ravel() if other_axes else nd.ravel()

    u = float(q) ** -P
    pos = marg > 0
    kl_nats = float(np.sum(marg[pos] * np.log1p((marg[pos] - u) / u)))
    if kl_nats < -1e-9:
        raise AssertionError(f"negative divergence {kl_nats} from uniform")
    kl_bits = max(kl_nats, 0.0) / math.log(2)
    bits = P * math.log2(q) - kl_bits
    return EntropyResult(bits=bits, logq_units=bits / math.log2(q))


def entropy_deficit_bits(p: np.ndarray, q: int, K: int, pairs) -> float:
    """P*log2(q) - H(selected coordinates), always >= 0."""
    ranks = [pr if isinstance(pr, (int, np.integer)) else pair_rank(K, pr) for pr in pairs]
    P = len(set(ranks))
    return P * math.log2(q) - subset_entropy(p, q, K, pairs).bits


__all__ = [
    "ENUMERATION_LIMIT",
    "DENSE_LIMIT",
    "DeltaDistribution",
    "delta_distribution",
    "TransitionOperator",
    "transition_dense",
    "Spectrum",
    "spectrum_via_characters",
    "spectrum_dense_oracle",
    "lambda2",
    "IrreducibilityReport",
    "is_irreducible",
    "sum_two_squares",
    "accumulate_increment",
    "reachability_witness",
    "ConvergenceTrace",
    "evolve",
    "ClassChain",
    "class_chain",
    "class_trace",
    "envelope_constant",
    "EntropyResult",
    "subset_entropy",
    "entropy_deficit_bits",
]
