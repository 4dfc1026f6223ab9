#!/usr/bin/env python3
"""Auditing what each server can learn from the queries it receives.

The privacy contract: a server's query must be identically distributed no
matter which pair set the user is after.  The audit checks this per server
across every request set of a given size, exactly for deterministic-query
schemes (total-variation distance of point masses) and by sampled
chi-square tests on canonicalized queries for randomized ones.  A planted
leaky scheme shows the audit actually catches violations.
"""

from pipret.protocol import (
    VirtualFileSpace,
    audit_privacy,
    scheme_full_download,
    scheme_leaky_index,
    scheme_repeated_pir,
)

print("=" * 72)
print("1. Exact audit of the constant-query baseline")
print("=" * 72)
space = VirtualFileSpace(T=3, q=5, nu=2)
rep = audit_privacy(scheme_full_download(), space, 2, 2, mode="exact")
print(f"  scheme={rep.scheme}  request sets of size {rep.P} out of T={rep.T}")
print(f"  max total-variation distance: {rep.max_tv_distance}")
print(f"  per-server download counts identical: {rep.count_symmetric}")
print(f"  verdict: {'PASS' if rep.passed else 'FAIL'}")

print()
print("=" * 72)
print("2. Negative control: a scheme that sends the request in the clear")
print("=" * 72)
rep = audit_privacy(scheme_leaky_index(), space, 2, 2, mode="exact")
print(f"  scheme={rep.scheme}")
print(f"  max total-variation distance: {rep.max_tv_distance}")
print(f"  first difference: {rep.worst_test}")
print(f"  verdict: {'PASS' if rep.passed else 'FAIL'}  (failing is the point)")

print()
print("=" * 72)
print("3. Sampled audit of the randomized subpacketized scheme")
print("=" * 72)
space = VirtualFileSpace(T=3, q=2, nu=8)
rep = audit_privacy(
    scheme_repeated_pir(), space, 2, 1, mode="sampled", samples=20_000, seed=42
)
print(f"  {rep.samples} sampled queries per request set; "
      f"{rep.n_tests} pairwise chi-square tests over canonical channels")
print(f"  (channels: per-server sum structure, per-server per-file index sets)")
print(f"  min p-value {rep.min_pvalue:.4f} vs Bonferroni threshold {rep.threshold:.2e}")
print(f"  download counts identical across request sets: {rep.count_symmetric}")
print(f"  verdict: {'PASS' if rep.passed else 'FAIL'}")

print()
print("  worst five tests by p-value:")
worst = sorted(rep.tests, key=lambda t: t["pvalue"])[:5]
for t in worst:
    print(f"    {t['channel']:<28} sets {t['set1']} vs {t['set2']}: "
          f"chi2={t['chi2']:8.2f} dof={t['dof']:>4} p={t['pvalue']:.4f}")

print()
print("=" * 72)
print("4. The leaky scheme also fails the sampled audit")
print("=" * 72)
space = VirtualFileSpace(T=3, q=5, nu=2)
rep = audit_privacy(
    scheme_leaky_index(), space, 2, 1, mode="sampled", samples=10_000, seed=42
)
print(f"  min p-value {rep.min_pvalue:.3e}, worst test {rep.worst_test}")
print(f"  verdict: {'PASS' if rep.passed else 'FAIL'}  (failing is the point)")
