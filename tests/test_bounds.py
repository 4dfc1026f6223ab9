import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipret.bounds import (
    BoundQuery,
    _closed_form_system,
    _working_dps,
    achievable_rate_fraction,
    capacity_grid,
    corollary_limits,
    inverse_rate_achievable,
    inverse_rate_converse,
    single_message_inverse_rate,
    solve_root_coefficients,
    theorem1_bounds,
)


def test_converse_examples():
    assert inverse_rate_converse(BoundQuery(3, 2, 2)) == Fraction(5, 4)
    assert inverse_rate_converse(BoundQuery(6, 2, 2)) == Fraction(7, 4)


def test_converse_boundary_consistency():
    # at K/P = 2 the linear form and the floor/fraction sum agree
    linear = 1 + Fraction(2, 2 * 7)
    geometric = 1 + Fraction(1, 7)
    got = inverse_rate_converse(BoundQuery(4, 2, 7))
    assert got == linear
    assert got == geometric


def test_converse_n1_telescopes_to_k_over_p():
    for K in range(1, 12):
        for P in range(1, K + 1):
            assert inverse_rate_converse(BoundQuery(K, P, 1)) == Fraction(K, P)


def test_root_coefficients_examples():
    rc = solve_root_coefficients(BoundQuery(2, 1, 2))
    assert rc.roots[0] == pytest.approx(1.0, abs=1e-12)
    assert rc.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    rc = solve_root_coefficients(BoundQuery(3, 1, 2))
    assert rc.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    rc = solve_root_coefficients(BoundQuery(5, 2, 2))
    assert rc.roots[1] == pytest.approx(-1 / (math.sqrt(2) + 1), abs=1e-12)


def test_root_coefficients_n1_degenerate():
    with pytest.raises(ValueError, match="N >= 2"):
        solve_root_coefficients(BoundQuery(4, 2, 1))


def test_achievable_examples():
    assert inverse_rate_achievable(BoundQuery(2, 1, 2)) == Fraction(3, 2)
    assert inverse_rate_achievable(BoundQuery(3, 1, 2)) == Fraction(7, 4)
    bq = BoundQuery(4, 2, 2)
    assert inverse_rate_achievable(bq) == inverse_rate_converse(bq)


def test_achievable_at_one_server_is_full_download():
    for K in range(1, 9):
        for P in range(1, K + 1):
            bq = BoundQuery(K, P, 1)
            assert inverse_rate_achievable(bq) == Fraction(K, P)
            assert inverse_rate_converse(bq) == Fraction(K, P)


def test_rate_fraction_orientation():
    # the displayed fraction evaluates to the known single-message rate 2/3
    assert achievable_rate_fraction(BoundQuery(2, 1, 2)) == Fraction(2, 3)


def test_rate_fraction_pinned_values():
    assert achievable_rate_fraction(BoundQuery(5, 2, 2)) == Fraction(17, 28)
    assert achievable_rate_fraction(BoundQuery(6, 2, 2)) == Fraction(4, 7)
    assert achievable_rate_fraction(BoundQuery(15, 4, 3)) == Fraction(9052677, 13358386)


def test_rate_fraction_single_message_is_geometric_sum():
    # P = 1: the rate is exactly the inverse of 1 + 1/N + ... + N**-(K-1)
    for K in range(1, 13):
        for N in range(2, 9):
            want = sum(Fraction(1, N**i) for i in range(K))
            assert 1 / achievable_rate_fraction(BoundQuery(K, 1, N)) == want


def test_single_message_reduction_grid():
    for N in range(2, 7):
        for K in range(2, 11):
            got = inverse_rate_achievable(BoundQuery(K, 1, N))
            want = single_message_inverse_rate(K, N)
            assert got == want


def test_tightness_at_ratio_two():
    for P in range(1, 6):
        for N in range(2, 7):
            # at K/P = 2 the exact achievable inverse rate is the converse 1 + 1/N
            bq = BoundQuery(2 * P, P, N)
            assert 1 / achievable_rate_fraction(bq) == 1 + Fraction(1, N)
            assert inverse_rate_converse(bq) == 1 + Fraction(1, N)


def test_achievable_never_beats_converse_grid():
    for K in range(1, 13):
        for P in range(1, K + 1):
            for N in range(2, 6):
                bq = BoundQuery(K, P, N)
                ach = inverse_rate_achievable(bq)
                con = inverse_rate_converse(bq)
                assert ach >= con
                assert 1 <= con <= Fraction(K, P)
                assert 1 <= ach <= Fraction(K, P)


def _converse_oracle(K, P, N):
    """The converse term by term: the linear form up to K/P = 2, above it
    sum_(i<w) N**-i plus the remainder (K/P - w) N**-w, w = floor(K/P)."""
    if K <= 2 * P:
        return 1 + Fraction(K - P, P * N)
    w = K // P
    return sum(Fraction(1, N**i) for i in range(w)) + Fraction(K - w * P, P) / N**w


def _achievable_oracle(K, P, N):
    """The achievable inverse rate from the beta/r fraction as the LU oracle
    writes it, through gamma_k = sum_i beta_i r_i**k.  (r_i + 1)**P = N r_i**P
    gives (N-1) gamma_(k+P) = sum_(j<P) C(P,j) gamma_(k+j), and the defining
    system seeds gamma_(-P) = (N-1)**(K-P), gamma_(-P+1..-1) = 0.  In
    g_k = gamma_k (N-1)**(k+P) the recursion stays in integers."""
    if N == 1:
        return Fraction(K, P)
    if K < 2 * P:
        return 1 + Fraction(K - P, P * N)
    g = dict.fromkeys(range(-P, 0), 0)
    g[-P] = (N - 1) ** (K - P)
    for k in range(K + 1):
        g[k] = sum(comb(P, j) * g[k - P + j] * (N - 1) ** (P - 1 - j) for j in range(P))

    def scaled(k):  # gamma_k (N-1)**(K+P)
        return g[k] * (N - 1) ** (K - k)

    # with gamma_k, sum_i beta_i r_i**(K-P) (1 + 1/r_i)**K = sum_j C(K,j) gamma_(j-P)
    head = sum(comb(K, j) * scaled(j - P) for j in range(K + 1))
    rate_num = head - sum(comb(K - P, j) * scaled(j) for j in range(K - P + 1))
    return Fraction(head - scaled(K - P), rate_num)


def test_bounds_equal_exact_sums_on_grid():
    """Every bound equals its term-by-term rational, with no tolerance, over
    K_files <= 10, P <= min(T, 64), N <= 8; the limit is the common value of
    both ends wherever the bracket collapses."""
    for K_files in range(1, 11):
        T = K_files * (K_files + 1) // 2
        for P in range(1, min(T, 64) + 1):
            for N in range(1, 9):
                bq = BoundQuery(T, P, N)
                converse = _converse_oracle(T, P, N)
                achievable = _achievable_oracle(T, P, N)
                assert inverse_rate_converse(bq) == converse, (K_files, P, N)
                assert inverse_rate_achievable(bq) == achievable, (K_files, P, N)
                if T <= 2 * P or T % P == 0:
                    assert achievable == converse, (K_files, P, N)
                    assert corollary_limits(K_files, P, N) == converse, (K_files, P, N)
                else:
                    assert corollary_limits(K_files, P, N) is None, (K_files, P, N)


def _lu_oracle(K, P, N):
    """beta by LU elimination of the defining system, and the beta/r rate
    fraction evaluated as written, in the library's working precision."""
    rho = mp.power(N, mp.mpf(1) / P)
    roots = [mp.expjpi(mp.mpf(2 * i) / P) for i in range(P)]
    roots = [w / (rho - w) for w in roots]
    A = mp.matrix(P, P)
    for k in range(1, P + 1):
        for i in range(P):
            A[k - 1, i] = roots[i] ** (-k)
    rhs = mp.matrix(P, 1)
    rhs[P - 1] = mp.mpf(N - 1) ** (K - P)
    beta = mp.lu_solve(A, rhs)
    num = den = mp.mpc(0)
    for i, r in enumerate(roots):
        base = (1 + 1 / r) ** K
        weight = beta[i] * r ** (K - P)
        num += weight * (base - (1 + 1 / r) ** (K - P))
        den += weight * (base - 1)
    return [beta[i] for i in range(P)], num / den


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_forms_match_lu_oracle(data):
    K = data.draw(st.integers(1, 20), label="K")
    P = data.draw(st.integers(1, min(K, 10)), label="P")
    N = data.draw(st.integers(2, 8), label="N")
    bq = BoundQuery(K, P, N)
    rate = achievable_rate_fraction(bq)
    with mp.workdps(_working_dps(K)):
        beta_lu, rate_lu = _lu_oracle(K, P, N)
        _, beta = _closed_form_system(K, P, N)
        for b, b_lu in zip(beta, beta_lu):
            assert abs(b - b_lu) <= 1e-30 * abs(b_lu)
        exact = mp.mpf(rate.numerator) / rate.denominator
        assert abs(rate_lu - exact) <= 1e-30 * abs(exact)
    np.testing.assert_allclose(
        solve_root_coefficients(bq).coefficients,
        [complex(b) for b in beta_lu],
        rtol=1e-15,
    )


def test_beta_residuals_grid():
    for P in range(1, 9):
        for N in range(2, 9):
            for K in (2 * P, 2 * P + 3):
                rc = solve_root_coefficients(BoundQuery(K, P, N))
                assert rc.max_residual < 1e-9


def test_theorem1_bounds_examples():
    cb = theorem1_bounds(2, 2, 2)
    assert cb.bracket == (1.25, 1.25)
    cb = theorem1_bounds(3, 2, 2)
    assert cb.converse == Fraction(7, 4)
    cb = theorem1_bounds(2, 2, 2, L=1, lambda2=0.5)
    assert cb.correction == 1.0
    assert cb.bracket[0] == 0.25
    cb = theorem1_bounds(2, 2, 2, L=4, lambda2=0.5)
    assert cb.correction == 0.125


def test_theorem1_bounds_orientation():
    # achievability side dominates the converse side as inverse rates
    for K_files in (2, 3, 4):
        for P in (1, 2, 3):
            cb = theorem1_bounds(K_files, P, 2)
            assert cb.achievable >= cb.converse


def test_theorem1_bounds_errors():
    with pytest.raises(ValueError, match="exceeds"):
        theorem1_bounds(2, 4, 2)
    with pytest.raises(ValueError, match="lambda2"):
        theorem1_bounds(2, 2, 2, L=3, lambda2=1.5)


def test_corollary_limits_examples():
    assert corollary_limits(2, 2, 2) == Fraction(5, 4)
    assert corollary_limits(3, 3, 3) == Fraction(4, 3)
    assert corollary_limits(3, 4, 2) == Fraction(5, 4)
    assert corollary_limits(3, 2, 2) == Fraction(7, 4)
    # ratio 10/4 = 2.5 is above two and fractional: bounds do not collapse
    assert corollary_limits(4, 4, 2) is None


def test_corollary_limits_validation():
    # P > K(K+1)/2 would give an inverse capacity below 1; P = 0 and N = 0
    # would divide by zero
    for K_files, P, N in ((2, 5, 2), (2, 0, 2), (2, 2, 0)):
        with pytest.raises(ValueError):
            corollary_limits(K_files, P, N)


def test_corollary_matches_theorem_when_collapsed():
    for K_files in (2, 3, 4):
        T = K_files * (K_files + 1) // 2
        for P in range(1, T + 1):
            for N in (2, 3):
                limit = corollary_limits(K_files, P, N)
                if limit is None:
                    continue
                cb = theorem1_bounds(K_files, P, N)
                assert limit == cb.converse
                assert limit == cb.achievable


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0, 1, 2)
    with pytest.raises(ValueError):
        BoundQuery(3, 4, 2)
    with pytest.raises(ValueError):
        BoundQuery(3, 0, 2)
    with pytest.raises(ValueError):
        BoundQuery(3, 1, 0)
    with pytest.raises(ValueError, match="> 64"):
        BoundQuery(200, 100, 2)


def test_capacity_grid_rows_identical_across_threads():
    """mpmath's working precision is process-wide; rows evaluated on four
    threads with frequent switches must equal the sequential rows."""
    points = [
        (K, P, N)
        for K in range(2, 6)
        for P in range(1, 7)
        if P <= K * (K + 1) // 2
        for N in (2, 3, 4)
    ]

    def row(point):
        K, P, N = point
        return capacity_grid([K], [P], [N], verbose=True)

    want = [row(p) for p in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(row, points, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_capacity_grid_rows():
    rows = capacity_grid([2, 3], [1, 2, 100], [2], verbose=True)
    # P = 100 exceeds every K_msg and is skipped
    assert {(r["K_files"], r["P"]) for r in rows} == {(2, 1), (2, 2), (3, 1), (3, 2)}
    for row in rows:
        assert row["K_msg"] == row["K_files"] * (row["K_files"] + 1) // 2
        bq = BoundQuery(row["K_msg"], row["P"], row["N"])
        assert row["inv_rate_converse"] == float(inverse_rate_converse(bq))
        if row["rate_fraction_as_printed"] is not None:
            assert row["rate_fraction_reciprocal"] == row["inv_rate_achievable"]
