#!/usr/bin/env python3
"""Tour of the download-cost bounds for private inner-product retrieval.

Retrieving P of the K(K+1)/2 pairwise inner products of K files from N
replicated servers costs at least `inv_rate_converse` and at most
`inv_rate_achievable` downloaded symbols per useful symbol (as file length
grows).  This script walks the closed forms, shows where the two ends
collapse to an exact capacity, and inspects the root/coefficient system
behind the achievability formula.
"""

import numpy as np

from pipret.bounds import (
    BoundQuery,
    achievable_rate_fraction,
    corollary_limits,
    inverse_rate_achievable,
    inverse_rate_converse,
    single_message_inverse_rate,
    solve_root_coefficients,
    theorem1_bounds,
)

print("=" * 72)
print("1. The two bound formulas over a small grid")
print("=" * 72)
print(f"{'K_files':>8} {'K_msg':>6} {'P':>3} {'N':>3} {'converse':>10} {'achievable':>11} {'limit':>8}")
for K_files in (2, 3, 4):
    K_msg = K_files * (K_files + 1) // 2
    for P in (1, 2, 3):
        for N in (2, 3):
            bq = BoundQuery(K_msg, P, N)
            con = float(inverse_rate_converse(bq))
            ach = float(inverse_rate_achievable(bq))
            lim = corollary_limits(K_files, P, N)
            lim_txt = f"{float(lim):.4f}" if lim is not None else "open"
            print(f"{K_files:>8} {K_msg:>6} {P:>3} {N:>3} {con:>10.4f} {ach:>11.4f} {lim_txt:>8}")

print()
print("Whenever K(K+1)/(2P) <= 2 or it is an integer, the ends coincide and")
print("the asymptotic inverse capacity is exact ('limit' column).")

print()
print("=" * 72)
print("2. P = 1 sanity check: the classic single-message geometric sum")
print("=" * 72)
for N in (2, 3, 5):
    for K_msg in (3, 6):
        ach = inverse_rate_achievable(BoundQuery(K_msg, 1, N))
        geo = single_message_inverse_rate(K_msg, N)
        print(f"  K_msg={K_msg} N={N}: achievable {float(ach):.6f}  geometric {float(geo):.6f}  "
              f"equal {ach == geo}")

print()
print("=" * 72)
print("3. The roots and coefficients behind the achievability formula")
print("=" * 72)
bq = BoundQuery(6, 2, 2)
rc = solve_root_coefficients(bq)
print(f"  roots     : {np.round(rc.roots, 6)}")
print(f"  betas     : {np.round(rc.coefficients, 6)} (Vandermonde inverse, closed form)")
print(f"  residual  : {rc.max_residual:.2e} (defining equations)")
frac = achievable_rate_fraction(bq)
print(f"  fraction  : {frac} = {float(frac):.6f} -> inverse rate {float(1 / frac):.6f}")
print("  (the fraction itself is the rate, an exact rational from two integer")
print("   sums over the coefficients of (1 + y + ... + y^(P-1))^(K+1-P); its")
print("   reciprocal is reported)")

print()
print("=" * 72)
print("4. Finite-length correction of the converse end")
print("=" * 72)
lam2 = 0.5  # the q=2, K=2 walk; see the spectral demo
for L in (1, 2, 4, 8, 16):
    cb = theorem1_bounds(2, 2, 2, L=L, lambda2=lam2)
    low, high = cb.bracket
    print(f"  L={L:>2}: 1/C in [{low:.6f}, {high:.6f}]  correction {cb.correction:.6f}")
print("  The bracket closes geometrically fast as files grow.")
