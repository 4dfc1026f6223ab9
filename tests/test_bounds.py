import math

import numpy as np
import pytest

from pipret.bounds import (
    BoundQuery,
    achievable_rate_fraction,
    capacity_grid,
    corollary_limits,
    inverse_rate_achievable,
    inverse_rate_converse,
    mpir_tightness_gap,
    single_message_inverse_rate,
    solve_root_coefficients,
    theorem1_bounds,
)


def test_converse_examples():
    assert inverse_rate_converse(BoundQuery(3, 2, 2)) == pytest.approx(1.25, abs=1e-12)
    assert inverse_rate_converse(BoundQuery(6, 2, 2)) == pytest.approx(1.75, abs=1e-12)


def test_converse_boundary_consistency():
    # at K/P = 2 the linear form and the floor/fraction sum agree
    linear = 1 + 2 / (2 * 7)
    geometric = 1 + 1 / 7
    got = inverse_rate_converse(BoundQuery(4, 2, 7))
    assert got == pytest.approx(linear, abs=1e-12)
    assert got == pytest.approx(geometric, abs=1e-12)


def test_converse_n1_telescopes_to_k_over_p():
    for K in range(1, 12):
        for P in range(1, K + 1):
            assert inverse_rate_converse(BoundQuery(K, P, 1)) == pytest.approx(
                K / P, abs=1e-12
            )


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
    assert inverse_rate_achievable(BoundQuery(2, 1, 2)) == pytest.approx(1.5, abs=1e-9)
    assert inverse_rate_achievable(BoundQuery(3, 1, 2)) == pytest.approx(1.75, abs=1e-9)
    bq = BoundQuery(4, 2, 2)
    assert inverse_rate_achievable(bq) == pytest.approx(
        inverse_rate_converse(bq), abs=1e-9
    )


def test_achievable_at_one_server_is_full_download():
    for K in range(1, 9):
        for P in range(1, K + 1):
            bq = BoundQuery(K, P, 1)
            assert inverse_rate_achievable(bq) == K / P
            assert inverse_rate_converse(bq) == pytest.approx(K / P, abs=1e-12)


def test_rate_fraction_orientation():
    # the displayed fraction evaluates to the known single-message rate 2/3
    frac = achievable_rate_fraction(BoundQuery(2, 1, 2))
    assert frac.real == pytest.approx(2 / 3, abs=1e-12)
    assert abs(frac.imag) < 1e-12


def test_single_message_reduction_grid():
    for N in range(2, 7):
        for K in range(2, 11):
            got = inverse_rate_achievable(BoundQuery(K, 1, N))
            want = single_message_inverse_rate(K, N)
            assert abs(got - want) < 1e-9


def test_tightness_at_ratio_two():
    for P in range(1, 6):
        for N in range(2, 7):
            assert abs(mpir_tightness_gap(BoundQuery(2 * P, P, N))) < 1e-9


def test_achievable_never_beats_converse_grid():
    for K in range(1, 13):
        for P in range(1, K + 1):
            for N in range(2, 6):
                bq = BoundQuery(K, P, N)
                ach = inverse_rate_achievable(bq)
                con = inverse_rate_converse(bq)
                assert ach >= con - 1e-9
                assert 1.0 - 1e-12 <= con <= K / P + 1e-9
                assert 1.0 - 1e-12 <= ach <= K / P + 1e-9


def test_beta_residuals_grid():
    for P in range(1, 9):
        for N in range(2, 9):
            for K in (2 * P, 2 * P + 3):
                rc = solve_root_coefficients(BoundQuery(K, P, N))
                assert rc.max_residual < 1e-9


def test_theorem1_bounds_examples():
    cb = theorem1_bounds(2, 2, 2)
    assert cb.bracket == (pytest.approx(1.25, abs=1e-9), pytest.approx(1.25, abs=1e-9))
    cb = theorem1_bounds(3, 2, 2)
    assert cb.inv_rate_upper == pytest.approx(1.75, abs=1e-9)
    cb = theorem1_bounds(2, 2, 2, L=1, lambda2=0.5, c=1.0)
    assert cb.correction == pytest.approx(1.0, abs=1e-12)
    assert cb.bracket[0] == pytest.approx(0.25, abs=1e-9)


def test_theorem1_bounds_orientation():
    # achievability side dominates the converse side as inverse rates
    for K_files in (2, 3, 4):
        for P in (1, 2, 3):
            cb = theorem1_bounds(K_files, P, 2)
            assert cb.inv_rate_lower >= cb.inv_rate_upper - 1e-9


def test_theorem1_bounds_errors():
    with pytest.raises(ValueError, match="exceeds"):
        theorem1_bounds(2, 4, 2)
    with pytest.raises(ValueError, match="lambda2"):
        theorem1_bounds(2, 2, 2, L=3, lambda2=1.5)
    with pytest.raises(ValueError, match="c must"):
        theorem1_bounds(2, 2, 2, L=3, lambda2=0.5, c=-1.0)


def test_corollary_limits_examples():
    assert corollary_limits(2, 2, 2) == pytest.approx(1.25, abs=1e-12)
    assert corollary_limits(3, 3, 3) == pytest.approx(1 + 1 / 3, abs=1e-12)
    assert corollary_limits(3, 4, 2) == pytest.approx(1.25, abs=1e-12)
    assert corollary_limits(3, 2, 2) == pytest.approx(1.75, abs=1e-12)
    # ratio 10/4 = 2.5 is above two and fractional: bounds do not collapse
    assert corollary_limits(4, 4, 2) is None


def test_corollary_matches_theorem_when_collapsed():
    for K_files in (2, 3, 4):
        T = K_files * (K_files + 1) // 2
        for P in range(1, T + 1):
            for N in (2, 3):
                limit = corollary_limits(K_files, P, N)
                if limit is None:
                    continue
                cb = theorem1_bounds(K_files, P, N)
                assert limit == pytest.approx(cb.inv_rate_upper, abs=1e-9)
                assert limit == pytest.approx(cb.inv_rate_lower, abs=1e-9)


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


def test_capacity_grid_rows():
    rows = capacity_grid([2, 3], [1, 2, 100], [2], verbose=True)
    # P = 100 exceeds every K_msg and is skipped
    assert {(r["K_files"], r["P"]) for r in rows} == {(2, 1), (2, 2), (3, 1), (3, 2)}
    for row in rows:
        assert row["K_msg"] == row["K_files"] * (row["K_files"] + 1) // 2
        bq = BoundQuery(row["K_msg"], row["P"], row["N"])
        assert row["inv_rate_converse"] == inverse_rate_converse(bq)
        if row["rate_fraction_as_printed"] is not None:
            assert row["rate_fraction_reciprocal"] == pytest.approx(
                row["inv_rate_achievable"], abs=1e-9
            )
