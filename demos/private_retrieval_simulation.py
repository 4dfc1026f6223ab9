#!/usr/bin/env python3
"""Simulated multi-server retrieval of inner products, with rate accounting.

Builds replicated databases, treats each of the K(K+1)/2 pairwise inner
products as a virtual file (over nu independent database instances, stacked
on the leading axis of one Database, so it has real length), runs two retrieval schemes against N servers, and
compares measured download cost with the closed-form bounds.
"""

import numpy as np

from pipret.bounds import BoundQuery, inverse_rate_converse, single_message_inverse_rate
from pipret.fields import Database, PairIndex, compute_table, pair_rank
from pipret.protocol import (
    FullDownloadScheme,
    PairSet,
    RepeatedPirScheme,
    VirtualFileSpace,
    measure_rate,
    rate_summary,
    retrieve_pairs,
    run_retrieval,
)

print("=" * 72)
print("1. One run in detail: subpacketized retrieval, T=2 files, N=2 servers")
print("=" * 72)
space = VirtualFileSpace(T=2, q=5, nu=4)
data = np.random.default_rng(7).integers(0, 5, size=(2, 4))
tr = run_retrieval(RepeatedPirScheme(), space, 2, (0,), data, seed=11)
print(f"  replicated data (rows = virtual files):\n    {data.tolist()}")
for n, server_query in enumerate(tr.queries):
    for block in server_query:
        print(f"  server {n + 1} is asked for:")
        for terms in block:
            label = " + ".join(f"file{f}[{i}]" for f, i in terms)
            print(f"      {label}")
print(f"  answers: {[[block.tolist() for block in server] for server in tr.answers]}")
print(f"  decoded file 0: {tr.decoded[0].tolist()} (ground truth {data[0].tolist()})")
print(f"  downloaded {tr.downloaded} symbols for {space.nu} useful ones "
      f"-> inverse rate {tr.inverse_rate}")

print()
print("=" * 72)
print("2. Database-derived runs: inner products as virtual files")
print("=" * 72)
K, q, N = 2, 5, 2
nu = N ** 3  # subpacketization for T = K(K+1)/2 = 3
# nu instances of K files of length 6, stacked: entries shaped (nu, K, 6)
db = Database(q, np.random.default_rng(3).integers(0, q, size=(nu, K, 6)))
pairs = PairSet({PairIndex(1, 2)})
tr = retrieve_pairs(RepeatedPirScheme(), pairs, db, N, seed=3)
# one (nu, T) table: row n is instance n's inner products in pair order
table = compute_table(db)
truth = table[:, pair_rank(K, PairIndex(1, 2))].tolist()
print(f"  requested pair {{1,2}} across {nu} database instances (table {table.shape})")
print(f"  decoded : {tr.decoded[0].tolist()}")
print(f"  truth   : {truth}")
print(f"  inverse rate {tr.inverse_rate} vs geometric sum "
      f"{single_message_inverse_rate(3, N)}")

print()
print("=" * 72)
print("3. Measured rates against the bounds")
print("=" * 72)
rows = []
for scheme, T, P, N, nu in [
    (FullDownloadScheme(), 3, 1, 1, 2),
    (FullDownloadScheme(), 3, 2, 2, 2),
    (RepeatedPirScheme(), 3, 1, 2, 8),
    (RepeatedPirScheme(), 3, 2, 2, 8),
    (RepeatedPirScheme(), 2, 1, 3, 9),
]:
    space = VirtualFileSpace(T=T, q=5, nu=nu)
    transcripts = []
    for s in range(10):
        rng = np.random.default_rng([17, T, P, N, s])
        data = rng.integers(0, 5, size=(T, nu))
        transcripts.append(
            run_retrieval(scheme, space, N, tuple(range(P)), data, seed=[18, s])
        )
    summary = rate_summary(transcripts, N)
    rows.append(summary)

print(f"{'scheme':>15} {'T':>3} {'P':>3} {'N':>3} {'measured':>10} {'converse':>10} {'achievable':>11}")
for r in rows:
    print(f"{r['scheme']:>15} {r['T']:>3} {r['P']:>3} {r['N']:>3} "
          f"{r['measured_inverse_rate']:>10.4f} {r['inv_rate_converse']:>10.4f} "
          f"{r['inv_rate_achievable']:>11.4f}")
print()
print("  full_download at N=1 sits exactly on the converse (T/P);")
print("  repeated_pir at P=1 sits exactly on the achievability end;")
print("  nothing ever dips below the converse.")
