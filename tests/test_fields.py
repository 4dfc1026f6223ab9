import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipret import fields
from pipret.fields import (
    Database,
    PairIndex,
    PairOrdering,
    compute_table,
    is_prime,
    pair_count,
    pair_rank,
    pair_unrank,
    random_database,
)


def _cross(q, a, b):
    """The {1,2} entry of the table of the two-file database [a; b]."""
    return int(compute_table(Database(q, [a, b]))[pair_rank(2, PairIndex(1, 2))])


def test_inner_product_examples():
    assert _cross(5, [1, 2, 3], [2, 0, 1]) == 0
    assert _cross(3, [0, 0], [1, 2]) == 0
    assert _cross(2, [1, 1], [1, 1]) == 0


def test_inner_product_large_modulus_path():
    q = 2305843009213693951  # 2**61 - 1
    expected = ((q - 1) * (q - 1) + (q - 2) * 2) % q
    assert _cross(q, [q - 1, q - 2], [q - 1, 2]) == expected


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError, match="not prime"):
            Database(bad, [[1]])
    with pytest.raises(ValueError, match="exceeds"):
        Database(2**62, [[1]])


def test_is_prime_agrees_with_sieve():
    sieve = np.ones(2000, dtype=bool)
    sieve[:2] = False
    for i in range(2, 2000):
        if sieve[i]:
            sieve[2 * i :: i] = False
    for n in range(2000):
        assert is_prime(n) == bool(sieve[n])
    assert is_prime(2305843009213693951)  # 2**61 - 1
    assert not is_prime(2305843009213693953)


def test_compute_table_examples():
    assert compute_table(Database(2, [[1], [1]])).tolist() == [1, 1, 1]
    assert compute_table(Database(5, [[0, 0]])).tolist() == [0]
    assert compute_table(Database(5, [[1, 2], [3, 4]])).tolist() == [0, 1, 0]


def test_pair_rank_examples():
    assert pair_rank(3, PairIndex(1, 1)) == 0
    assert pair_rank(3, PairIndex(2, 3)) == 4
    assert pair_unrank(3, 5) == PairIndex(3, 3)


def test_pair_rank_bijection_and_order():
    for K in range(1, 9):
        ordering = PairOrdering(K)
        assert len(ordering) == pair_count(K)
        for r, pair in enumerate(ordering):
            assert pair_rank(K, pair) == r
            assert pair_unrank(K, r) == pair
        # canonical order is lexicographic on (i, j)
        keys = [(p.i, p.j) for p in ordering]
        assert keys == sorted(keys)


@given(st.data())
def test_pair_rank_unrank_bijection_property(data):
    K = data.draw(st.integers(1, 500), label="K")
    r = data.draw(st.integers(0, pair_count(K) - 1), label="rank")
    assert pair_rank(K, pair_unrank(K, r)) == r
    i = data.draw(st.integers(1, K), label="i")
    j = data.draw(st.integers(i, K), label="j")
    rank = pair_rank(K, PairIndex(i, j))
    assert 0 <= rank < pair_count(K)
    assert pair_unrank(K, rank) == PairIndex(i, j)


def test_pair_rank_errors():
    with pytest.raises(ValueError):
        pair_rank(3, PairIndex(2, 4))
    with pytest.raises(ValueError):
        pair_unrank(3, 6)
    with pytest.raises(ValueError):
        PairIndex(0, 1)


def test_pair_index_normalizes():
    assert PairIndex(3, 1) == PairIndex(1, 3)
    assert repr(PairIndex(2, 1)) == "{1,2}"


def test_random_database_determinism_and_range():
    db1 = random_database(5, 3, 4, seed=7)
    db2 = random_database(5, 3, 4, seed=7)
    assert db1 == db2
    assert db1.entries.shape == (3, 4)
    assert db1.entries.min() >= 0 and db1.entries.max() < 5
    assert random_database(5, 3, 4, seed=8) != db1


def test_random_database_uniform_bit():
    bits = [random_database(2, 1, 1, seed=s).entries[0, 0] for s in range(10_000)]
    assert abs(np.mean(bits) - 0.5) < 0.02


def test_random_database_rejects_bad_params():
    with pytest.raises(ValueError):
        random_database(4, 2, 2, seed=0)
    with pytest.raises(ValueError):
        random_database(5, 0, 2, seed=0)


def _table_oracle(db):
    """Pairwise inner products in Python integers, canonical pair order."""
    rows = [[int(v) for v in row] for row in db.entries]
    return [
        sum(a * b for a, b in zip(rows[i], rows[j])) % db.q
        for i in range(db.K)
        for j in range(i, db.K)
    ]


def _prime_from(n, step):
    while not is_prime(n):
        n += step
    return n


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compute_table_matches_integer_oracle_at_the_object_switch(data):
    """L*(q-1)**2 drawn just below and above 2**62, and far above it, where
    one int64 dot product over all L columns would wrap."""
    L = data.draw(st.integers(1, 64), label="L")
    side = data.draw(st.sampled_from(["below", "above", "far above"]), label="side")
    offset = data.draw(st.integers(0, 10**6), label="offset")
    root = math.isqrt(2**62 // L)  # L*root**2 <= 2**62 < L*(root+1)**2
    if side == "below":
        q = _prime_from(root - offset, -1)
    elif side == "above":
        q = _prime_from(root + 2 + offset, 1)
    else:  # L*(q-1)**2 > 2**63, where int64 accumulation would wrap
        q = _prime_from(3 * root // 2 + offset, 1)
    assert (L * (q - 1) ** 2 < 2**62) is (side == "below")
    K = data.draw(st.integers(1, 5), label="K")
    K_other = data.draw(st.integers(1, 5), label="K_other")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    extreme = data.draw(st.booleans(), label="all q-1")
    if extreme:
        db = Database(q, np.full((K, L), q - 1, dtype=np.int64))
    else:
        db = Database(q, rng.integers(0, q, size=(K, L), dtype=np.int64))
    other = Database(q, rng.integers(0, q, size=(K_other, L), dtype=np.int64))
    # a table of another size first: the cached triangle of K must not be disturbed
    assert compute_table(other).tolist() == _table_oracle(other)
    assert compute_table(db).tolist() == _table_oracle(db)
    for idx in fields._triangle(K):
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0


# (q-1)**2 <= 2**63 - 1 exactly when q <= OBJECT_SWITCH
OBJECT_SWITCH = math.isqrt(2**63 - 1) + 1


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("L", [1, 2, 5])
def test_compute_table_matches_integer_oracle_next_to_python_integers(side, L):
    """The primes next to the switch: below it every column is its own
    int64 block, above it the product runs in Python integers."""
    q = _prime_from(OBJECT_SWITCH, -1) if side == "below" else _prime_from(OBJECT_SWITCH + 1, 1)
    assert ((q - 1) ** 2 <= 2**63 - 1) is (side == "below")
    rng = np.random.default_rng(L)
    for db in (
        Database(q, np.full((3, L), q - 1, dtype=np.int64)),
        Database(q, rng.integers(0, q, size=(4, L), dtype=np.int64)),
    ):
        assert compute_table(db).tolist() == _table_oracle(db)


@pytest.mark.parametrize("q,width", [(10**9 + 7, 9), (2**31 - 1, 2), (65537, 2147483647)])
def test_compute_table_matches_integer_oracle_across_column_blocks(q, width):
    """One int64 block holds floor((2**63 - 1) / (q-1)**2) columns; check L
    at one block, one block plus one column, and several blocks."""
    assert (2**63 - 1) // (q - 1) ** 2 == width
    lengths = [width, width + 1, 3 * width + 2] if width < 100 else [1, 40]
    if q == 10**9 + 7:
        lengths.append(12)  # the learn datasets' feature count
    rng = np.random.default_rng(q % 1000)
    for L in lengths:
        for db in (
            Database(q, np.full((3, L), q - 1, dtype=np.int64)),
            Database(q, rng.integers(0, q, size=(5, L), dtype=np.int64)),
        ):
            assert compute_table(db).tolist() == _table_oracle(db)


@pytest.mark.parametrize("q", [2, 5, 10**9 + 7, 2**61 - 1])
@settings(max_examples=25, deadline=None)
@given(
    nu=st.integers(1, 5),
    K=st.integers(1, 4),
    L=st.integers(1, 30),
    extreme=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(nu=1, K=3, L=20, extreme=True, seed=0)
@example(nu=4, K=4, L=29, extreme=False, seed=1)
def test_compute_table_of_a_stack_is_the_stack_of_tables(q, nu, K, L, extreme, seed):
    """One call on a (nu, K, L) stack gives each instance's table as a row:
    at q = 10**9+7 L runs past the 9-column int64 block, and q = 2**61-1
    takes the Python-integer path."""
    if extreme:
        E = np.full((nu, K, L), q - 1, dtype=np.int64)
    else:
        E = np.random.default_rng(seed).integers(0, q, size=(nu, K, L), dtype=np.int64)
    db = Database(q, E)
    assert (db.K, db.L) == (K, L)
    stacked = compute_table(db)
    assert stacked.shape == (nu, pair_count(K))
    want = np.stack([compute_table(Database(q, e)) for e in E])
    assert stacked.tolist() == want.tolist()
    assert stacked[0].tolist() == _table_oracle(Database(q, E[0]))


@pytest.mark.parametrize(
    "shape", [(3,), (2, 2, 2, 2), (0, 3), (2, 0), (0, 2, 3), (2, 0, 3), (2, 3, 0)]
)
def test_database_rejects_entries_of_the_wrong_rank_or_an_empty_axis(shape):
    with pytest.raises(ValueError, match="every axis >= 1"):
        Database(5, np.zeros(shape, dtype=np.int64))


def test_table_permutation_symmetry():
    rng = np.random.default_rng(3)
    for K in (2, 3, 4):
        db = random_database(7, K, 5, seed=11)
        perm = rng.permutation(K)
        permuted = Database(7, db.entries[perm])
        table = compute_table(db)
        table_perm = compute_table(permuted)
        ordering = PairOrdering(K)
        for r, pair in enumerate(ordering):
            # file k of the permuted database is file perm[k]+1 of the original
            orig_pair = PairIndex(int(perm[pair.i - 1]) + 1, int(perm[pair.j - 1]) + 1)
            assert table_perm[r] == table[pair_rank(K, orig_pair)]


def test_append_column_delta_relation():
    db = random_database(5, 3, 4, seed=2)
    col = [1, 4, 2]
    grown = Database(5, np.hstack([db.entries, np.array(col)[:, None]]))
    before = compute_table(db)
    after = compute_table(grown)
    for r, pair in enumerate(PairOrdering(3)):
        delta = col[pair.i - 1] * col[pair.j - 1] % 5
        assert after[r] == (before[r] + delta) % 5


@pytest.mark.parametrize("q", [5, 2**61 - 1])
def test_compute_table_returns_a_read_only_int64_array(q):
    """The table itself, for one database and a stack of them, on the int64
    and the Python-integer path alike."""
    for entries, shape in (([[1, 2], [3, 4]], (3,)), ([[[1, 2], [3, 4]]] * 2, (2, 3))):
        table = compute_table(Database(q, entries))
        assert type(table) is np.ndarray
        assert table.dtype == np.int64 and table.shape == shape
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[..., 0] = 0
