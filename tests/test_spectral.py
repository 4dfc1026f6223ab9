import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from pipret import acceptance, spectral
from pipret.fields import PairIndex, is_prime, pair_count
from pipret.spectral import (
    DENSE_LIMIT,
    ENUMERATION_LIMIT,
    EXACT_EVOLVE_LIMIT,
    ConvergenceTrace,
    accumulate_increment,
    class_chain,
    class_trace,
    delta_distribution,
    entropy_deficit_bits,
    envelope_constant,
    evolve,
    is_irreducible,
    lambda2,
    reachability_witness,
    spectrum_dense_oracle,
    spectrum_via_characters,
    subset_entropy,
    sum_two_squares,
    transition_dense,
)
from pipret.spectral import (  # float fallback cross-checks and the size formula
    _class_sizes,
    _evolve_float,
    _float_sup_floors,
    _increment_transform,
)


def _counts_by_digits(d):
    """Map digit-string -> count for readable assertions."""
    out = {}
    for idx, c in enumerate(d.counts):
        if c:
            digits = np.base_repr(idx, base=d.q).zfill(d.T)
            out[digits] = int(c)
    return out


def test_delta_distribution_q2_k2():
    d = delta_distribution(2, 2)
    assert _counts_by_digits(d) == {"000": 1, "001": 1, "100": 1, "111": 1}
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_delta_distribution_q3_k2():
    d = delta_distribution(3, 2)
    assert _counts_by_digits(d) == {"000": 1, "001": 2, "100": 2, "111": 2, "121": 2}


def test_delta_distribution_q2_k1():
    d = delta_distribution(2, 1)
    assert d.probs.tolist() == [0.5, 0.5]


def test_delta_distribution_guards():
    with pytest.raises(ValueError, match="exceeds"):
        delta_distribution(2, 7)  # q^T = 2^28
    with pytest.raises(ValueError, match="not prime"):
        delta_distribution(4, 2)


def test_delta_probs_are_multiples_of_q_pow_k():
    for q, K in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        d = delta_distribution(q, K)
        np.testing.assert_allclose(d.counts / q**K, d.probs, atol=0)
        assert int(d.counts.sum()) == q**K


def test_transition_dense_rows_and_columns():
    op = transition_dense(2, 2)
    M = op.matrix
    assert M.shape == (8, 8)
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-12)


def test_transition_dense_q2_k1_uniform():
    M = transition_dense(2, 1).matrix
    np.testing.assert_allclose(M, 0.5, atol=0)


def test_transition_dense_fixes_uniform():
    M = transition_dense(3, 2).matrix
    pi = np.full(27, 1 / 27)
    np.testing.assert_allclose(M @ pi, pi, atol=1e-12)


def test_transition_dense_guard():
    with pytest.raises(ValueError, match="exceeds"):
        transition_dense(5, 3)  # 5^6 = 15625 > 4096


def test_spectrum_examples():
    assert spectrum_via_characters(delta_distribution(2, 2)).lambda2 == pytest.approx(
        0.5, abs=1e-12
    )
    assert spectrum_via_characters(delta_distribution(3, 2)).lambda2 == pytest.approx(
        1 / math.sqrt(3), abs=1e-12
    )
    assert spectrum_via_characters(delta_distribution(2, 1)).lambda2 == pytest.approx(
        0.0, abs=1e-12
    )


def test_spectrum_unit_eigenvalue_and_bounds():
    for q, K in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        spec = spectrum_via_characters(delta_distribution(q, K))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(spec.eigenvalues)) <= 1.0 + 1e-12
        assert spec.lambda2 < 1.0


def test_character_spectrum_matches_dense_oracle():
    for q, K in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]:
        d = delta_distribution(q, K)
        char = spectrum_via_characters(d)
        dense = spectrum_dense_oracle(transition_dense(q, K))
        assert abs(char.lambda2 - dense.lambda2) < 1e-8
        mods_char = np.sort(np.abs(char.eigenvalues))
        mods_dense = np.sort(np.abs(dense.eigenvalues))
        np.testing.assert_allclose(mods_char, mods_dense, atol=1e-8)


def test_dense_oracle_requires_matrix():
    from pipret.spectral import TransitionOperator

    with pytest.raises(ValueError, match="not materialized"):
        spectrum_dense_oracle(TransitionOperator(delta=delta_distribution(2, 2)))


def _span_rank_mod_q(vectors, q):
    """Independent oracle: rank of the support over F(q) by Gaussian
    elimination (for prime q the generated subgroup is the linear span)."""
    rows = [list(v) for v in vectors]
    rank, col_count = 0, len(rows[0]) if rows else 0
    for col in range(col_count):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [(v * inv) % q for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % q:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_irreducibility_bfs_and_rank_oracle_agree():
    for q, K in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (7, 2)]:
        d = delta_distribution(q, K)
        rep = is_irreducible(q, K)
        support = []
        for idx in d.support_indices:
            digits = []
            v = int(idx)
            for _ in range(d.T):
                digits.append(v % q)
                v //= q
            support.append(digits[::-1])
        rank = _span_rank_mod_q(support, q)
        assert rep.irreducible == (rank == d.T)
        assert rep.irreducible
        assert rep.reached == rep.group_size


def _bool_matrix_power(A, k):
    # 0/1 products in float32 count at most n < 2**24 paths, exactly
    result = np.eye(len(A), dtype=np.float32)
    while k:
        if k & 1:
            result = (result @ A > 0).astype(np.float32)
        A = (A @ A > 0).astype(np.float32)
        k >>= 1
    return result > 0


def _dense_oracle(d):
    """(irreducible, reached, gamma_all_positive) from dense matrix powers:
    entry (i, j) of M**k is positive iff y_i - y_j is a k-step increment."""
    n = d.q**d.T
    states = np.indices((d.q,) * d.T).reshape(d.T, -1).T
    powers = d.q ** np.arange(d.T - 1, -1, -1)
    diff = (states[:, None, :] - states[None, :, :]) % d.q
    A = (d.probs[diff @ powers] > 0).astype(np.float32)
    reached = int(_bool_matrix_power(np.eye(n, dtype=np.float32) + A, n - 1)[:, 0].sum())
    return reached == n, reached, bool(_bool_matrix_power(A, 5 * d.T).all())


def _report_triple(rep):
    return rep.irreducible, rep.reached, rep.gamma_all_positive


# every (q, K) with at most 729 tables, within reach of the dense oracle's
# boolean matrix powers
DENSE_POINTS = [
    (q, K)
    for K in range(1, 4)
    for q in range(2, 730)
    if is_prime(q) and q ** pair_count(K) <= 729
]


@pytest.mark.parametrize("q, K", DENSE_POINTS)
def test_irreducibility_matches_the_dense_oracle(q, K):
    rep = is_irreducible(q, K)
    assert rep.group_size == q ** pair_count(K)
    assert rep.gamma == 5 * pair_count(K)
    assert _report_triple(rep) == _dense_oracle(delta_distribution(q, K))


def _without_rank_growth(a):
    """``class_chain`` with the transitions that raise the rank of class
    ``a`` dropped."""
    real = spectral.class_chain

    def planted(q, K):
        chain = real(q, K)
        counts = chain.counts.copy()
        rank = chain.labels[a][0]
        counts[a, [r > rank for r, _ in chain.labels]] = 0
        return dataclasses.replace(chain, counts=counts)

    return planted


@pytest.mark.parametrize(
    "q, K, a, reached",
    [
        # the walk never leaves the zero table
        (3, 2, 0, 1),
        # at q = 2 the 2**K - 1 rank-one tables x x^T form class 1, and
        # without its growth the walk stays on them and the zero table
        (2, 3, 1, 8),
        (2, 4, 1, 16),
    ],
)
def test_irreducibility_fails_on_a_planted_class_chain_fault(monkeypatch, q, K, a, reached):
    monkeypatch.setattr(spectral, "class_chain", _without_rank_growth(a))
    rep = is_irreducible(q, K)
    assert not rep.irreducible and not rep.gamma_all_positive
    assert rep.reached == reached < rep.group_size
    checks = acceptance.criterion_irreducibility(0)["checks"]
    assert not all(ok for _, ok in checks)


def test_matrix_power_positivity():
    for q, K in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        op = transition_dense(q, K)
        rep = is_irreducible(q, K)
        assert rep.gamma == 5 * pair_count(K)
        assert (np.linalg.matrix_power(op.matrix, rep.gamma) > 0).all()
        assert rep.gamma_all_positive
    # beyond the dense oracle's reach; the reachability witnesses reach
    # every state in 5T steps because the zero increment is in the support
    for q, K in [(2, 4), (3, 3), (5, 3), (2, 5)]:
        assert is_irreducible(q, K).gamma_all_positive


def test_sum_two_squares_examples():
    assert sum_two_squares(5, 3) == (2, 2)
    assert sum_two_squares(2, 1) == (1, 0)
    assert sum_two_squares(7, 0) == (0, 0)


def test_sum_two_squares_all_small_primes():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(q):
            s, t = sum_two_squares(q, a)
            assert (s * s + t * t) % q == a
            assert s >= t


def test_reachability_witness_examples():
    cols = reachability_witness(5, 2, 0, 3)
    assert accumulate_increment(cols, 5, 2).tolist() == [3, 0, 0]
    # diagonal case touches file 1 only, in the first two steps
    assert np.all(cols[:, 1] == 0)
    assert np.all(cols[2:] == 0)
    assert sorted(cols[:2, 0].tolist()) == [2, 2]

    cols = reachability_witness(5, 2, 1, 1)
    assert accumulate_increment(cols, 5, 2).tolist() == [0, 1, 0]
    cols = reachability_witness(2, 2, 2, 1)
    assert accumulate_increment(cols, 2, 2).tolist() == [0, 0, 1]


def test_reachability_witness_sweep():
    for q in (2, 3, 5, 7, 11, 13):
        for K in (1, 2, 3):
            T = pair_count(K)
            for e in range(T):
                for a in range(1, q):
                    cols = reachability_witness(q, K, e, a)
                    expected = np.zeros(T, dtype=np.int64)
                    expected[e] = a
                    assert np.array_equal(accumulate_increment(cols, q, K), expected)


def test_reachability_witness_validation():
    with pytest.raises(ValueError, match="nonzero"):
        reachability_witness(5, 2, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        reachability_witness(5, 2, 3, 1)


def test_evolve_q2_k2_first_steps():
    d = delta_distribution(2, 2)
    trace = evolve(d, 2)
    assert trace.sup_dists[0] == pytest.approx(1 / 8, abs=1e-15)
    assert trace.l2_dists[1] / trace.l2_dists[0] == pytest.approx(0.5, abs=1e-12)
    p2 = trace.distributions[1]
    expected = np.full(8, 1 / 8)
    expected[0] = 1 / 4
    expected[2] = 0.0  # the 010 pattern is unreachable in two steps
    np.testing.assert_allclose(p2, expected, atol=1e-15)


def test_evolve_q2_k1_mixes_in_one_step():
    trace = evolve(delta_distribution(2, 1), 3)
    assert trace.sup_dists[1] == 0.0
    assert trace.l2_dists[2] == 0.0
    np.testing.assert_allclose(trace.distributions[1], 0.5, atol=0)
    assert trace.fitted_rate == 0.0


def test_evolve_contraction_and_rate_fit():
    for q, K in [(2, 2), (3, 2)]:
        d = delta_distribution(q, K)
        lam2 = spectrum_via_characters(d).lambda2
        trace = evolve(d, 30, store_distributions=False)
        ratios = trace.l2_dists[1:] / trace.l2_dists[:-1]
        assert np.all(ratios <= lam2 + 1e-9)
        assert abs(trace.fitted_rate - lam2) <= 0.05 * lam2
        assert trace.exact


@pytest.mark.parametrize("q, K", [(3, 2), (2, 3), (5, 3), (2, 5)])
def test_trace_lambda2_is_the_spectrum_lambda2(q, K):
    # exact traces take it from the spectrum, float ones from their own
    # transform; both must give the spectrum's value bit for bit
    d = delta_distribution(q, K)
    trace = evolve(d, 3, store_distributions=False)
    assert trace.exact == (q**d.T <= EXACT_EVOLVE_LIMIT)
    assert trace.lambda2 == spectrum_via_characters(d).lambda2


def test_evolve_float_path_agrees():
    d = delta_distribution(3, 2)
    sup_f, l2_f, dists_f, _ = _evolve_float(d, 12, True)
    exact = evolve(d, 12)
    np.testing.assert_allclose(l2_f, exact.l2_dists, atol=1e-12)
    np.testing.assert_allclose(sup_f, exact.sup_dists, atol=1e-12)
    np.testing.assert_allclose(dists_f[5], exact.distributions[5], atol=1e-13)


def test_float_path_l2_is_parseval_exact():
    # at L = 60 these distances lie near or below the ~1e-17 rounding floor
    # of an inverse FFT; Parseval over the spectrum must still match the
    # exact-integer path, and each float sup distance must lie within its
    # stated rounding floor of the exact one
    for q, K in [(3, 2), (2, 3), (2, 4)]:
        d = delta_distribution(q, K)
        sup_f, l2_f, _, _ = _evolve_float(d, 60, False)
        exact = evolve(d, 60, store_distributions=False)
        assert exact.exact
        assert not exact.sup_floors.any()
        np.testing.assert_allclose(l2_f, exact.l2_dists, rtol=1e-12, atol=0)
        floors = _float_sup_floors(q, d.T, l2_f)
        assert np.all(np.abs(sup_f - exact.sup_dists) <= floors)


def _one_transform_per_step(d, L_max, store):
    """Reference float path: one inverse transform per trace step."""
    n = d.q**d.T
    delta_hat = _increment_transform(d)
    mods = np.abs(delta_hat.ravel()[1:])
    lam2 = float(mods.max())
    ratio_sq = (mods / lam2) ** 2 if lam2 > 0 else mods
    scaled = np.ones_like(ratio_sq)
    p_hat = delta_hat.copy()
    sups, l2s, dists = [], [], [] if store else None
    for L in range(1, L_max + 1):
        if L > 1:
            p_hat = p_hat * delta_hat
        p = scipy.fft.ifftn(p_hat).real.ravel()
        sups.append(float(np.max(np.abs(p - 1.0 / n))))
        scaled *= ratio_sq
        l2s.append(lam2**L * math.sqrt(float(scaled.sum()) / n))
        if store:
            dists.append(np.clip(p, 0.0, None))
    return np.array(sups), np.array(l2s), dists


# The two paths form the same spectral powers and differ only in their
# inverse transforms, each within sqrt(2)*(eps + 2u)*||p_1|| < 3e-15 of
# exact at these points (eps < 1.4e-14 and ||p_1|| < 0.18, in the notation
# of _float_sup_floors); a swapped pair moves entries by the step-to-step
# change of p_L, far above this tolerance
PAIRED_ATOL = 1e-14


@pytest.mark.parametrize("store", [True, False])
@pytest.mark.parametrize("L_max", [1, 2, 13, 40])
@pytest.mark.parametrize("q, K", [(5, 3), (2, 5)])
def test_paired_float_path_matches_one_transform_per_step(q, K, L_max, store):
    d = delta_distribution(q, K)
    sup, l2, dists, _ = _evolve_float(d, L_max, store)
    ref_sup, ref_l2, ref_dists = _one_transform_per_step(d, L_max, store)
    assert len(sup) == len(l2) == L_max
    np.testing.assert_array_equal(l2, ref_l2)
    np.testing.assert_allclose(sup, ref_sup, rtol=0, atol=PAIRED_ATOL)
    if store:
        assert len(dists) == len(ref_dists) == L_max
        for p, ref in zip(dists, ref_dists):
            assert p.shape == ref.shape == (d.q**d.T,)
            np.testing.assert_allclose(p, ref, rtol=0, atol=PAIRED_ATOL)
    else:
        assert dists is None and ref_dists is None


def test_float_path_fitted_rate_is_lambda2():
    d = delta_distribution(7, 3)
    trace = evolve(d, 40, store_distributions=False)
    assert not trace.exact
    assert abs(trace.fitted_rate - spectrum_via_characters(d).lambda2) <= 1e-6
    # the early distances are data, the late ones rounding noise
    assert np.all(trace.sup_floors > 0)
    assert trace.sup_dists[0] > trace.sup_floors[0]
    assert trace.sup_dists[-1] < trace.sup_floors[-1]


def test_evolve_guards():
    with pytest.raises(ValueError, match="L_max"):
        evolve(delta_distribution(2, 2), 0)
    with pytest.raises(ValueError, match="L_max"):
        evolve(delta_distribution(2, 2), 100_000)


def test_subset_entropy_examples():
    d = delta_distribution(2, 2)
    cross = subset_entropy(d.probs, 2, 2, [PairIndex(1, 2)])
    expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert cross.bits == pytest.approx(expected, abs=1e-12)
    assert cross.logq_units == pytest.approx(expected, abs=1e-12)

    diag = subset_entropy(d.probs, 2, 2, [PairIndex(1, 1)])
    assert diag.bits == pytest.approx(1.0, abs=1e-12)


def test_subset_entropy_converges_to_log_q():
    for q, K in [(2, 2), (3, 2)]:
        trace = evolve(delta_distribution(q, K), 20)
        for rank in range(pair_count(K)):
            h = subset_entropy(trace.distributions[19], q, K, [rank])
            assert abs(h.bits - math.log2(q)) < 1e-4
            assert h.bits <= math.log2(q)


def test_subset_entropy_accepts_ranks_and_pairs():
    d = delta_distribution(2, 2)
    by_pair = subset_entropy(d.probs, 2, 2, [PairIndex(1, 2)])
    by_rank = subset_entropy(d.probs, 2, 2, [1])
    assert by_pair == by_rank
    with pytest.raises(ValueError, match="nonempty"):
        subset_entropy(d.probs, 2, 2, [])
    with pytest.raises(ValueError, match="out of range"):
        subset_entropy(d.probs, 2, 2, [3])


def test_entropy_sandwich_all_subsets():
    import itertools

    for q, K in [(2, 2), (3, 2)]:
        T = pair_count(K)
        d = delta_distribution(q, K)
        lam2 = spectrum_via_characters(d).lambda2
        trace = evolve(d, 20)
        subsets = [
            c for P in range(1, T + 1) for c in itertools.combinations(range(T), P)
        ]
        deficits = {
            c: [
                entropy_deficit_bits(trace.distributions[L - 1], q, K, c)
                for L in range(1, 21)
            ]
            for c in subsets
        }
        c_fit = max(
            envelope_constant(vals, lam2, fit_window=10) for vals in deficits.values()
        )
        for vals in deficits.values():
            for L, v in enumerate(vals, start=1):
                assert v >= 0.0
                assert v <= c_fit * lam2 ** (L - 1) + 1e-12


def test_envelope_constant_basics():
    # only the L = 1 point survives a zero rate
    assert envelope_constant([0.5, 0.0, 0.0], 0.0) == 0.5
    # 0.5 / 0.5^0 and 0.25 / 0.5^1 both give 0.5
    assert envelope_constant([0.5, 0.25], 0.5) == 0.5
    # the window drops the L = 3 outlier
    assert envelope_constant([0.5, 0.25, 0.5], 0.5, fit_window=2) == 0.5
    assert envelope_constant([0.5, 0.25, 0.5], 0.5) == 2.0


def test_trace_is_dataclass_with_fit_fields():
    trace = evolve(delta_distribution(2, 2), 8)
    assert isinstance(trace, ConvergenceTrace)
    assert trace.fitted_constant > 0
    assert 0 < trace.fitted_rate < 1


# --- congruence classes ---------------------------------------------------------


def _det_mod_q(M, q):
    M = [[v % q for v in row] for row in M]
    det = 1
    for c in range(len(M)):
        p = next((r for r in range(c, len(M)) if M[r][c]), None)
        if p is None:
            return 0
        if p != c:
            M[c], M[p] = M[p], M[c]
            det = -det
        det = det * M[c][c] % q
        inv = pow(M[c][c], -1, q)
        for r in range(c + 1, len(M)):
            f = M[r][c] * inv % q
            M[r] = [(a - f * b) % q for a, b in zip(M[r], M[c])]
    return det % q


def _classify_oracle(S, q):
    """(rank, kind) of a symmetric matrix, independently of ``class_chain``:
    rank by elimination; for q = 2 whether the diagonal vanishes; for odd q
    the square class (Euler's criterion) of a nonzero principal minor of
    order rank, which a symmetric matrix always has and whose block
    carries the whole nondegenerate part."""
    K = len(S)
    rank = _span_rank_mod_q(S, q) if K else 0
    if q == 2:
        return rank, "a" if not any(S[i][i] for i in range(K)) else "n"
    if rank == 0:
        return 0, "+"
    minor = next(
        m
        for rows in itertools.combinations(range(K), rank)
        if (m := _det_mod_q([[S[i][j] for j in rows] for i in rows], q))
    )
    return rank, "+" if pow(minor, (q - 1) // 2, q) == 1 else "-"


def _tables(q, K):
    """Every symmetric K x K matrix over F(q), in the state order of
    ``evolve`` (big-endian digits over the upper triangle)."""
    T = pair_count(K)
    iu, ju = np.triu_indices(K)
    for digits in itertools.product(range(q), repeat=T):
        S = np.zeros((K, K), dtype=np.int64)
        S[iu, ju] = digits
        S[ju, iu] = digits
        yield S.tolist()


# every (q, K) evolved exactly; K = 1 stops at q < 128 (its classes are
# only zero, squares and nonsquares, and evolve costs seconds at q ~ 4096)
EXACT_POINTS = [
    (q, K)
    for K in range(1, 5)
    for q in range(2, 128 if K == 1 else EXACT_EVOLVE_LIMIT + 1)
    if all(q % r for r in range(2, q)) and q ** pair_count(K) <= EXACT_EVOLVE_LIMIT
]


def test_class_count_is_2k_plus_1_or_the_q2_count():
    for q, K in [(2, 1), (2, 4), (2, 5), (3, 1), (3, 4), (7, 3), (101, 2)]:
        chain = class_chain(q, K)
        assert len(chain.labels) == (1 + K + K // 2 if q == 2 else 2 * K + 1)
        assert chain.labels[0] == (0, "a" if q == 2 else "+")
        assert sum(chain.sizes) == q ** pair_count(K)
        np.testing.assert_array_equal(chain.counts.sum(axis=1), q**K)


@pytest.mark.parametrize("q, K", EXACT_POINTS)
def test_class_chain_matches_brute_force_classification(q, K):
    chain = class_chain(q, K)
    members = {label: [] for label in chain.labels}
    for S in _tables(q, K):
        members[_classify_oracle(S, q)].append(S)
    assert tuple(len(members[label]) for label in chain.labels) == chain.sizes
    assert sum(chain.sizes) == q ** pair_count(K)
    np.testing.assert_array_equal(chain.counts.sum(axis=1), q**K)
    # the counts out of the first and the last table of each class
    cols = list(itertools.product(range(q), repeat=K))
    index = {label: b for b, label in enumerate(chain.labels)}
    for a, label in enumerate(chain.labels):
        for S in (members[label][0], members[label][-1]):
            row = np.zeros(len(chain.labels), dtype=np.int64)
            for x in cols:
                moved = [[(S[i][j] + x[i] * x[j]) % q for j in range(K)] for i in range(K)]
                row[index[_classify_oracle(moved, q)]] += 1
            np.testing.assert_array_equal(row, chain.counts[a])


@pytest.mark.parametrize("q, K", EXACT_POINTS)
def test_per_state_laws_are_constant_on_classes(q, K):
    chain = class_chain(q, K)
    index = {label: b for b, label in enumerate(chain.labels)}
    classes = np.array([index[_classify_oracle(S, q)] for S in _tables(q, K)])
    for p in evolve(delta_distribution(q, K), 6).distributions:
        for b in range(len(chain.labels)):
            members = p[classes == b]
            assert np.all(members == members[0])


@pytest.mark.parametrize("q, K", EXACT_POINTS)
def test_class_trace_rows_equal_the_exact_per_state_rows(q, K):
    d = delta_distribution(q, K)
    L_max = 200 if (q, K) in [(2, 2), (3, 2), (3, 3), (2, 4)] else 40
    trace = class_trace(q, K, L_max)
    ref = evolve(d, L_max, store_distributions=False)
    assert ref.exact and trace.exact
    np.testing.assert_array_equal(trace.sup_dists, ref.sup_dists)
    np.testing.assert_array_equal(trace.l2_dists, ref.l2_dists)
    assert trace.lambda2 == lambda2(q, K)
    assert ref.lambda2 == spectrum_via_characters(d).lambda2
    assert ref.lambda2 == pytest.approx(trace.lambda2, rel=2e-15, abs=0)
    assert (trace.fitted_rate, trace.fitted_constant) == (ref.fitted_rate, ref.fitted_constant)
    assert not trace.sup_floors.any() and trace.distributions is None


def _symmetric_rank_counts(q, K):
    """MacWilliams' count of symmetric K x K matrices over F(q) of rank r,
    prod_(i=1..s) q**(2i) / (q**(2i) - 1) * prod_(i=0..r-1) (q**(K-i) - 1)
    with s = floor(r/2), for r = 0 .. K."""
    counts = []
    for r in range(K + 1):
        num = math.prod(q ** (K - i) - 1 for i in range(r))
        num *= math.prod(q ** (2 * i) for i in range(1, r // 2 + 1))
        den = math.prod(q ** (2 * i) - 1 for i in range(1, r // 2 + 1))
        assert num % den == 0
        counts.append(num // den)
    assert sum(counts) == q ** pair_count(K)
    return counts


def _alternating_rank_counts(q, K):
    """Count of alternating K x K matrices over F(q) of rank 2h,
    q**(h(h-1)) * prod_(i=0..2h-1) (q**(K-i) - 1) / prod_(i=1..h) (q**(2i) - 1),
    for h = 0 .. floor(K/2)."""
    counts = []
    for h in range(K // 2 + 1):
        num = q ** (h * (h - 1)) * math.prod(q ** (K - i) - 1 for i in range(2 * h))
        den = math.prod(q ** (2 * i) - 1 for i in range(1, h + 1))
        assert num % den == 0
        counts.append(num // den)
    assert sum(counts) == q ** (K * (K - 1) // 2)
    return counts


def _closed_form_l2(q, K, L_max):
    """l2 distance to uniform after L = 1 .. L_max columns from the
    character spectrum in closed form, n * l2(L)**2 =
    sum_(chi != 0) |lambda_chi|**(2L), rounded as ``_exact_distances``
    rounds.  For odd q, |lambda_chi| = q**(-r/2) on the N_r characters
    whose quadratic form has rank r; for q = 2, |lambda_chi| = 2**-h on
    the A_2(K, 2h) * 4**h characters whose polar form has rank 2h and
    that vanish on its radical, and 0 on the rest."""
    n = q ** pair_count(K)
    # (multiplicity, |lambda_chi|**-2) for every nonzero modulus
    if q == 2:
        moduli = [(c * 4**h, 4**h) for h, c in enumerate(_alternating_rank_counts(2, K)) if h]
    else:
        moduli = [(c, q**r) for r, c in enumerate(_symmetric_rank_counts(q, K)) if r]
    top = max(base for _, base in moduli)
    out = []
    for L in range(1, L_max + 1):
        # l2**2 = num / den exactly
        num = sum(mult * (top // base) ** L for mult, base in moduli)
        den = n * top**L
        m = max(0, (den.bit_length() - num.bit_length()) // 2)
        out.append(math.ldexp(math.sqrt((num << 2 * m) / den), -m))
    return np.array(out)


@pytest.mark.parametrize("q, K", [(5, 3), (7, 3), (2, 5)])
def test_class_trace_agrees_with_the_float_path(q, K):
    """Exact class rows against the float path: sup within its rounding
    floor, l2 within 1e-13 relative; and l2 bit for bit against the
    closed form."""
    d = delta_distribution(q, K)
    assert q**d.T > EXACT_EVOLVE_LIMIT
    trace = class_trace(q, K, 40)
    sup_f, l2_f, _, lam2 = _evolve_float(d, 40, False)
    floors = _float_sup_floors(d.q, d.T, l2_f)
    assert trace.exact and not trace.sup_floors.any() and trace.distributions is None
    assert trace.lambda2 == pytest.approx(lam2, rel=2e-15, abs=0)
    assert np.all(np.abs(trace.sup_dists - sup_f) <= floors)
    np.testing.assert_allclose(trace.l2_dists, l2_f, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(trace.l2_dists, _closed_form_l2(q, K, 40))


def test_class_trace_l2_stays_normal_where_its_square_underflows():
    # at (7,3), l2(L)**2 ~ 7**-L leaves the normal range near L = 365, l2
    # itself near L = 730; the closed form is exact at every row
    q, K, L_max = 7, 3, 1000
    trace = class_trace(q, K, L_max)
    np.testing.assert_array_equal(trace.l2_dists, _closed_form_l2(q, K, L_max))
    assert np.all(trace.l2_dists[:700] >= np.finfo(float).tiny)
    assert trace.l2_dists[400] ** 2 < np.finfo(float).tiny


def test_class_trace_guards():
    with pytest.raises(ValueError, match="not prime"):
        class_trace(4, 2, 0)
    # 2^21 columns; the guard is on q^K, whose growth per step bounds the
    # big-integer work of class_trace, not on q^T tables
    with pytest.raises(ValueError, match=f"q\\^K = 2097152 columns exceeds {ENUMERATION_LIMIT}"):
        class_trace(2, 21, 0)
    for L_max in (0, 1001):
        with pytest.raises(ValueError, match=r"L_max must lie in \[1, 1000\]"):
            class_trace(2, 2, L_max)
    with pytest.raises(ValueError, match="not prime"):
        class_chain(9, 1)


# --- closed forms ---------------------------------------------------------------


def _stationary_sizes(counts, n):
    """Oracle for the class sizes: n * pi for the law pi with
    pi @ counts = q**K * pi, by Gaussian elimination over Fractions.

    The rows of ``counts`` sum to q**K, so one balance equation is implied
    by the others; the last one is replaced by sum(n * pi) = n."""
    m = len(counts)
    step = int(counts[0].sum())
    rows = [
        [Fraction(int(counts[a, b]) - step * (a == b)) for a in range(m)] + [Fraction(0)]
        for b in range(m - 1)
    ]
    rows.append([Fraction(1)] * m + [Fraction(n)])
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[p] = rows[p], [v / rows[p][c] for v in rows[p]]
        for r in range(m):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    sizes = [row[-1] for row in rows]
    assert all(s.denominator == 1 and s > 0 for s in sizes), sizes
    return tuple(int(s) for s in sizes)


PRIMES_TO_103 = [q for q in range(2, 104) if is_prime(q)]

# every prime q <= 103 and K <= 6 whose q^K columns the class chain admits,
# many of them beyond q^T = ENUMERATION_LIMIT tables
CLASS_SIZE_POINTS = [
    (q, K) for K in range(1, 7) for q in PRIMES_TO_103 if q**K <= ENUMERATION_LIMIT
]


def _enumerated_counts(q, K, labels):
    """Oracle for ``class_chain``'s counts: the class of S + x x^T for each
    of the q^K columns x, from the representative S of each class, by the
    case split of ``class_chain``'s docstring."""
    # class index by (rank, kind is '+' or 'a'); -1 marks no class
    lookup = np.full((K + 2, 2), -1, dtype=np.int64)
    for a, (r, kind) in enumerate(labels):
        lookup[r, int(kind in "+a")] = a
    x = np.indices((q,) * K).reshape(K, -1).astype(np.int64)
    square = np.zeros(q, dtype=bool)
    square[np.arange(1, q, dtype=np.int64) ** 2 % q] = True
    nu = next((v for v in range(2, q) if not square[v]), 1)
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for a, (r, kind) in enumerate(labels):
        # B^-1: H and I_r are their own inverses, diag(.., nu) has diag(.., nu^-1)
        if kind == "a" and r:
            inv = np.kron(np.eye(r // 2, dtype=np.int64), [[0, 1], [1, 0]])
        else:
            inv = np.eye(r, dtype=np.int64)
            if kind == "-":
                inv[-1, -1] = pow(nu, -1, q)
        y = x[:r]
        s = (1 + (y * (inv @ y % q)).sum(axis=0)) % q
        grows = x[r:].any(axis=0)
        rank = np.where(grows, r + 1, np.where(s != 0, r, r - 1))
        if q == 2:
            diag = np.zeros(K, dtype=np.int64)
            diag[:r] = kind == "n"
            top = (x == diag[:, None]).all(axis=0)
        else:
            # the new discriminant's square class: disc(B), disc(B)*s or -disc(B)
            factor = np.where(grows, True, np.where(s != 0, square[s], square[q - 1]))
            top = (factor == (kind == "+")) | (rank == 0)
        counts[a] = np.bincount(lookup[rank, top.astype(np.int64)], minlength=len(labels))
    return counts


@pytest.mark.parametrize("q, K", CLASS_SIZE_POINTS + [(2, K) for K in range(7, 17)])
def test_class_chain_counts_equal_the_column_enumeration(q, K):
    chain = class_chain(q, K)
    assert np.array_equal(chain.counts, _enumerated_counts(q, K, chain.labels))


def test_class_chain_is_stationary_beyond_the_enumeration():
    """Past the oracle's reach, the closed-form counts and the closed-form
    sizes must still agree: class_chain checks sizes @ counts =
    q**K * sizes in integers and raises ArithmeticError otherwise."""
    points = [(q, 2) for q in range(2, 1022) if is_prime(q)]
    points += [(q, 3) for q in range(2, 102) if is_prime(q)]
    for q, K in points:
        chain = class_chain(q, K)
        assert (chain.counts.sum(axis=1) == q**K).all(), (q, K)


@pytest.mark.parametrize("q, K", CLASS_SIZE_POINTS)
def test_closed_form_class_sizes_equal_the_stationary_solution(q, K):
    chain = class_chain(q, K)
    assert chain.sizes == _stationary_sizes(chain.counts, q ** pair_count(K))


def test_class_sizes_distinguish_the_orthogonal_groups():
    # nondegenerate 2 x 2 tables: O+_2 has order 2(q - 1) and O-_2 has
    # 2(q + 1), so the class of the hyperbolic plane holds
    # |GL_2| / (2(q - 1)) = q(q + 1)(q - 1)/2 tables and the other class
    # q(q - 1)**2 / 2.  The hyperbolic plane's discriminant is -1, a square
    # iff q = 1 mod 4, so the larger class is (2,+) at q = 5 and (2,-) at
    # q = 7.  Sizes of (0,+), (1,+), (1,-), (2,+), (2,-):
    labels = [(0, "+"), (1, "+"), (1, "-"), (2, "+"), (2, "-")]
    assert _class_sizes(5, 2, labels) == (1, 12, 12, 60, 40)
    assert _class_sizes(7, 2, labels) == (1, 24, 24, 126, 168)


@pytest.mark.parametrize(
    "broken",
    [
        # a permutation keeps the total, so only the balance check can catch it
        lambda sizes: sizes[::-1],
        lambda sizes: sizes[:-1] + (sizes[-1] + 1,),
    ],
)
def test_class_chain_rejects_sizes_that_are_not_stationary(monkeypatch, broken):
    real = spectral._class_sizes
    monkeypatch.setattr(spectral, "_class_sizes", lambda q, K, labels: broken(real(q, K, labels)))
    with pytest.raises(ArithmeticError, match="not stationary"):
        class_chain(5, 3)


# beyond q^T = ENUMERATION_LIMIT tables, or at the guard's edge, where one
# more file would exceed it: (2, 20) and (1048573, 1), the largest prime
# below 2^20
@pytest.mark.parametrize("q, K", [(11, 3), (3, 5), (13, 4), (2, 8), (2, 20), (1048573, 1)])
def test_class_chain_runs_beyond_the_table_limit(q, K):
    assert q**K <= ENUMERATION_LIMIT < max(q ** pair_count(K), q ** (K + 1))
    rep = is_irreducible(q, K)
    assert rep.irreducible and rep.gamma_all_positive
    assert rep.reached == rep.group_size == q ** pair_count(K)
    trace = class_trace(q, K, 40)
    np.testing.assert_array_equal(trace.l2_dists, _closed_form_l2(q, K, 40))
    assert trace.lambda2 == lambda2(q, K)


def _nearest_double_to_root(x, q):
    """Whether x is the double nearest q**(-1/2): the midpoints between x and
    its neighbours, squared exactly, must bracket 1/q."""
    lo = (Fraction(math.nextafter(x, 0.0)) + Fraction(x)) / 2
    hi = (Fraction(x) + Fraction(math.nextafter(x, 1.0))) / 2
    return lo * lo < Fraction(1, q) < hi * hi


def test_lambda2_is_correctly_rounded():
    odd = [q for q in range(3, 2000) if is_prime(q)] + [2**31 - 1, 10**9 + 7, 2**61 - 1]
    for q in odd:
        x = lambda2(q, 1)
        assert _nearest_double_to_root(x, q), q
        assert all(lambda2(q, K) == x for K in (2, 3, 6, 40))
    assert lambda2(2, 1) == 0.0
    assert all(lambda2(2, K) == 0.5 for K in (2, 3, 8, 40))
    # the FFT's value at (5, 3) was one ulp above the nearest double
    assert lambda2(5, 3) == 0.4472135954999579
    assert not _nearest_double_to_root(0.44721359549995804, 5)


def test_lambda2_guards():
    with pytest.raises(ValueError, match="not prime"):
        lambda2(9, 2)
    with pytest.raises(ValueError, match="K must be >= 1"):
        lambda2(3, 0)


# every point with q <= 103 within reach of the oracle transform
FFT_POINTS = [
    (q, K) for K in range(1, 6) for q in PRIMES_TO_103 if q ** pair_count(K) <= ENUMERATION_LIMIT
]


@pytest.mark.parametrize("q, K", FFT_POINTS)
def test_lambda2_agrees_with_the_character_spectrum(q, K):
    fft = spectrum_via_characters(delta_distribution(q, K)).lambda2
    assert fft == pytest.approx(lambda2(q, K), rel=2e-15, abs=0)


@pytest.mark.parametrize("q, K", [(q, K) for q, K in FFT_POINTS if q ** pair_count(K) <= DENSE_LIMIT])
def test_lambda2_agrees_with_the_dense_oracle(q, K):
    dense = spectrum_dense_oracle(transition_dense(q, K)).lambda2
    assert abs(dense - lambda2(q, K)) <= 1e-12
