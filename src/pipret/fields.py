"""Replicated databases over prime fields and exact inner-product tables.

Everything downstream (the Markov analysis, the retrieval simulator, the
Gram-matrix pipeline) consumes the objects defined here: a ``Database`` of K
length-L files over F(q), the canonical ordering of the K(K+1)/2 unordered
file pairs, and ``compute_table``, the read-only int64 array of all
pairwise inner products in that order.  A ``Database`` may also hold nu
independent instances stacked on a leading axis; its table then has one row
of K(K+1)/2 inner products per instance, which is how the retrieval
simulator gives each inner product a message length of nu symbols.

All values are immutable after construction and all operations are pure
functions, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_MAX_MODULUS = 2**61
_INT64_MAX = 2**63 - 1


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < 2**61: trial division for
    small n, Miller-Rabin with a witness set proven exhaustive for 64-bit
    integers above that."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime_modulus(q: int) -> int:
    q = int(q)
    if q >= _MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds the 2**61 limit")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return q


@dataclass(frozen=True)
class Database:
    """K files of length L over F(q), the content replicated at every server.

    ``entries`` is K x L, or nu x K x L for nu independent instances of the
    database stacked on a leading instance axis.  Row k-1 of an instance is
    the vector form of file W_k (files are 1-based to match the pair
    indexing); ``K`` and ``L`` read the last two axes.  ``compute_table``
    takes either form.
    """

    q: int
    entries: np.ndarray

    def __post_init__(self):
        q = _check_prime_modulus(self.q)
        ent = np.asarray(self.entries)
        if ent.ndim not in (2, 3) or 0 in ent.shape:
            raise ValueError("entries must be a K x L or nu x K x L array with every axis >= 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "entries", np.mod(ent.astype(np.int64), q))
        self.entries.setflags(write=False)

    @property
    def K(self) -> int:
        return self.entries.shape[-2]

    @property
    def L(self) -> int:
        return self.entries.shape[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Database)
            and self.q == other.q
            and np.array_equal(self.entries, other.entries)
        )


def random_database(q: int, K: int, L: int, seed) -> Database:
    """Database with entries i.i.d. uniform over F(q), deterministic per seed."""
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    q = _check_prime_modulus(q)
    rng = np.random.default_rng(seed)
    return Database(q, rng.integers(0, q, size=(K, L), dtype=np.int64))


# --- canonical pair ordering ------------------------------------------------


@dataclass(frozen=True, order=True)
class PairIndex:
    """Unordered file pair {i, j}, stored normalized with i <= j (1-based)."""

    i: int
    j: int

    def __post_init__(self):
        i, j = int(self.i), int(self.j)
        if i > j:
            i, j = j, i
        if i < 1:
            raise ValueError(f"pair indices must be >= 1, got {{{i},{j}}}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def __repr__(self):
        return f"{{{self.i},{self.j}}}"


def pair_count(K: int) -> int:
    """Number of unordered pairs including the diagonal: K(K+1)/2."""
    return K * (K + 1) // 2


def pair_rank(K: int, p: PairIndex) -> int:
    """Position of pair {i,j} in the canonical order ({i,j} before {k,l}
    iff i < k, or i = k and j < l), 0-based.

    Raises ValueError when the pair is out of range for K files.
    """
    if p.j > K:
        raise ValueError(f"pair {p} out of range for K={K}")
    i, j = p.i, p.j
    # pairs with first index < i occupy sum_{a<i} (K - a + 1) slots
    return (i - 1) * K - (i - 1) * (i - 2) // 2 + (j - i)


def pair_unrank(K: int, r: int) -> PairIndex:
    """Inverse of pair_rank: the pair at 0-based position r."""
    if not 0 <= r < pair_count(K):
        raise ValueError(f"rank {r} out of range for K={K}")
    i = 1
    while r >= K - i + 1:
        r -= K - i + 1
        i += 1
    return PairIndex(i, i + r)


@dataclass(frozen=True)
class PairOrdering:
    """All K(K+1)/2 pairs for K files in canonical order."""

    K: int
    pairs: tuple = field(init=False)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        pairs = tuple(
            PairIndex(i, j)
            for i in range(1, self.K + 1)
            for j in range(i, self.K + 1)
        )
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, r: int) -> PairIndex:
        return self.pairs[r]

    def index(self, p: PairIndex) -> int:
        return pair_rank(self.K, p)


# --- inner-product tables ----------------------------------------------------


@lru_cache(maxsize=32)
def _triangle(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of a K x K matrix, in
    canonical pair order; cached per K and read-only."""
    iu, ju = np.triu_indices(K)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def compute_table(db: Database) -> np.ndarray:
    """The length-K(K+1)/2 vector of all pairwise inner products <W_i, W_j>
    mod q, diagonal pairs included, in canonical pair order; for a stacked
    database one such row per instance, shape (nu, K(K+1)/2), from one
    batched product.  A read-only int64 array of values in [0, q).

    Exact in int64: the columns go in blocks of floor((2**63 - 1) / (q-1)**2),
    so no block's dot product can pass 2**63 - 1, and the blocks' products
    are summed mod q.  Only where (q-1)**2 alone passes that (q above about
    3.04e9) does the product run in Python integers.
    """
    E = db.entries
    q = db.q
    width = _INT64_MAX // (q - 1) ** 2
    if width:
        first = E[..., :width]
        gram = first @ first.swapaxes(-1, -2) % q
        for lo in range(width, db.L, width):
            block = E[..., lo : lo + width]
            gram = (gram + block @ block.swapaxes(-1, -2) % q) % q
    else:
        E = E.astype(object)
        gram = (E @ E.swapaxes(-1, -2)) % q
    iu, ju = _triangle(db.K)
    table = gram[..., iu, ju].astype(np.int64, copy=False)
    table.setflags(write=False)
    return table
