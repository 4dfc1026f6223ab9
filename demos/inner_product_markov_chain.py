#!/usr/bin/env python3
"""The random walk performed by an inner-product table as files grow.

Appending one uniform column to every file adds an increment vector to the
table of all pairwise inner products.  The script builds that increment
law, checks the walk's transition matrix is doubly stochastic, reads the
whole spectrum off a group Fourier transform, verifies it against a dense
eigensolver and lambda2 against its closed form q^(-1/2), decides
irreducibility on the few congruence classes of the table and backs it
with explicit 5-column witnesses, and watches the distribution contract to
uniform at exactly lambda2 per step, on all q^T tables and on their
congruence classes.
"""

import numpy as np

from pipret.fields import PairIndex, pair_count
from pipret.spectral import (
    accumulate_increment,
    class_chain,
    class_trace,
    delta_distribution,
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

q, K = 3, 2
T = pair_count(K)

print("=" * 72)
print(f"1. Increment distribution for q={q}, K={K} (T={T} tracked pairs)")
print("=" * 72)
d = delta_distribution(q, K)
for idx in d.support_indices:
    digits = np.base_repr(int(idx), base=q).zfill(T)
    print(f"  increment {digits}: probability {d.counts[idx]}/{q**K}")

print()
print("=" * 72)
print("2. Transition operator: doubly stochastic, uniform is stationary")
print("=" * 72)
M = transition_dense(q, K).matrix
print(f"  matrix size        : {M.shape[0]} x {M.shape[1]}")
print(f"  worst row-sum dev  : {np.max(np.abs(M.sum(axis=1) - 1)):.2e}")
print(f"  worst col-sum dev  : {np.max(np.abs(M.sum(axis=0) - 1)):.2e}")
pi = np.full(M.shape[0], 1 / M.shape[0])
print(f"  ||M pi - pi||_inf  : {np.max(np.abs(M @ pi - pi)):.2e}")

print()
print("=" * 72)
print("3. Spectrum by characters, cross-checked against dense eigensolver and closed form")
print("=" * 72)
spec = spectrum_via_characters(d)
dense = spectrum_dense_oracle(transition_dense(q, K))
print(f"  lambda2 (characters) : {spec.lambda2!r}")
print(f"  lambda2 (dense)      : {dense.lambda2!r}")
print(f"  lambda2 (closed form): {lambda2(q, K)!r}  (q^(-1/2), correctly rounded)")

print()
print("=" * 72)
print("4. Irreducibility: class-chain closure plus constructive witnesses")
print("=" * 72)
rep = is_irreducible(q, K)
print(f"  level sets on the congruence classes reach {rep.reached}/{rep.group_size} tables")
print(f"  M^(5T) = M^{rep.gamma} strictly positive: {rep.gamma_all_positive}")
a = 2
s, t = sum_two_squares(q, a)
print(f"  two-square witness: {s}^2 + {t}^2 = {a} (mod {q})")
for e, label in [(0, "diagonal pair {1,1}"), (1, "cross pair {1,2}")]:
    cols = reachability_witness(q, K, e, a)
    print(f"  5 fresh columns hitting {label} with value {a}:")
    for step, col in enumerate(cols, start=1):
        print(f"      step {step}: {col.tolist()}")
    print(f"      accumulated increment: {accumulate_increment(cols, q, K).tolist()}")

print()
print("=" * 72)
print("5. Convergence to uniform at rate lambda2")
print("=" * 72)
chain = class_chain(q, K)
print("  the law stays constant on congruence classes of the table:")
print(f"  {len(chain.labels)} classes (rank, discriminant) of {q**T} tables, sizes {chain.sizes}")
trace = evolve(d, 16)
lumped = class_trace(q, K, 16)
same = np.array_equal(trace.sup_dists, lumped.sup_dists) and np.array_equal(
    trace.l2_dists, lumped.l2_dists
)
print(f"  class chain rows equal the {q**T}-state rows bit for bit: {same}")
print(f"  {'L':>3} {'sup dist':>12} {'l2 dist':>12} {'l2 ratio':>10}")
for L in range(1, 17):
    ratio = trace.l2_dists[L - 1] / trace.l2_dists[L - 2] if L > 1 else float("nan")
    print(f"  {L:>3} {trace.sup_dists[L-1]:>12.3e} {trace.l2_dists[L-1]:>12.3e} {ratio:>10.6f}")
print(f"  fitted decay rate: {trace.fitted_rate:.6f} (lambda2 = {lumped.lambda2:.6f})")

print()
print("=" * 72)
print("6. Subset entropies approach P log2(q) bits")
print("=" * 72)
cross = PairIndex(1, 2)
for L in (1, 2, 4, 8, 16):
    h = subset_entropy(trace.distributions[L - 1], q, K, [cross])
    print(f"  L={L:>2}: H(cross pair) = {h.bits:.10f} bits (cap {np.log2(q):.10f})")
