import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pipret import acceptance, protocol

from pipret.bounds import BoundQuery, inverse_rate_converse, single_message_inverse_rate
from pipret.fields import Database, PairIndex, compute_table, pair_count, random_database
from pipret.protocol import (
    DecodeMismatchError,
    FullDownloadScheme,
    LeakyIndexScheme,
    PairSet,
    RepeatedPirScheme,
    RetrievalScheme,
    SumBlock,
    UnsupportedParameters,
    VirtualFileSpace,
    audit_privacy,
    make_scheme,
    measure_rate,
    per_server_download,
    rate_summary,
    retrieve_pairs,
    run_retrieval,
    virtual_data_from_databases,
)
from pipret.protocol import _empty_tally, _run_layout


def _random_data(space, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, space.q, size=(space.T, space.nu))


# --- query blocks and answers -------------------------------------------------------


def _block(sums):
    """A SumBlock from a list of sums, each a list of (file, index) terms."""
    starts = np.cumsum([0] + [len(terms) for terms in sums])[:-1]
    terms = [t for s in sums for t in s]
    return SumBlock([f for f, _ in terms], [i for _, i in terms], starts)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_answer_matches_a_python_integer_oracle(data):
    T = data.draw(st.integers(1, 6), label="T")
    nu = data.draw(st.integers(1, 4), label="nu")
    q = data.draw(st.sampled_from([2, 5, 10**9 + 7, 2**61 - 1]), label="q")
    space = VirtualFileSpace(T=T, q=q, nu=nu)
    if data.draw(st.booleans(), label="all q-1"):
        symbols = [[q - 1] * nu for _ in range(T)]
    else:
        symbol = st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1))
        symbols = [data.draw(st.lists(symbol, min_size=nu, max_size=nu)) for _ in range(T)]
    term = st.tuples(st.integers(0, T - 1), st.integers(0, nu - 1))
    sums = st.lists(st.lists(term, min_size=1, max_size=T), max_size=6)
    query = data.draw(st.lists(sums, min_size=1, max_size=3), label="query")
    answers = FullDownloadScheme().answer(
        space, tuple(_block(b) for b in query), np.array(symbols, dtype=np.int64)
    )
    want = [[sum(symbols[f][i] for f, i in terms) % q for terms in b] for b in query]
    assert [a.dtype for a in answers] == [np.int64] * len(query)
    assert [a.tolist() for a in answers] == want


def test_answer_is_exact_where_int64_sums_would_wrap():
    q = 2**61 - 1
    space = VirtualFileSpace(T=6, q=q, nu=1)
    data = np.full((6, 1), q - 1, dtype=np.int64)
    # four terms fit in int64, five of q-1 pass 2**63 - 1
    query = (_block([[(f, 0) for f in range(k)] for k in range(1, 7)]),)
    (got,) = FullDownloadScheme().answer(space, query, data)
    assert got.tolist() == [k * (q - 1) % q for k in range(1, 7)]


def test_sum_block_views_and_validation():
    block = _block([[(0, 1)], [(1, 0), (2, 3)]])
    assert len(block) == 2
    assert list(block) == [((0, 1),), ((1, 0), (2, 3))]
    assert block == _block([[(0, 1)], [(1, 0), (2, 3)]])
    assert block != _block([[(0, 1)], [(1, 0), (2, 2)]])
    assert block != _block([[(0, 1), (1, 0)], [(2, 3)]])
    assert list(SumBlock((), (), ())) == [] and len(SumBlock((), (), ())) == 0
    for a in (block.files, block.indices, block.starts):
        assert a.dtype == np.intp and not a.flags.writeable
    with pytest.raises(ValueError, match="every sum"):
        SumBlock([0, 1], [0, 0], [0, 2])  # an empty last sum
    with pytest.raises(ValueError, match="every sum"):
        SumBlock([0, 1], [0, 0], [1])  # terms before the first sum
    with pytest.raises(ValueError, match="one length"):
        SumBlock([0, 1], [0], [0])


def test_relabel_shares_the_checked_arrays_and_copies_the_indices():
    block = _block([[(0, 1)], [(1, 0), (2, 3)]])
    new = np.array([5, 6, 7])
    relabelled = block.relabel(new)
    assert relabelled.files is block.files and relabelled.starts is block.starts
    assert relabelled.indices.dtype == np.intp and not relabelled.indices.flags.writeable
    assert relabelled == SumBlock(block.files, new, block.starts)
    new[0] = 9  # the caller's array stays its own
    assert relabelled.indices.tolist() == [5, 6, 7] and new.flags.writeable
    assert block.indices.tolist() == [1, 0, 3]
    for wrong in ([5, 6], [5, 6, 7, 8], [[5, 6, 7]]):
        with pytest.raises(ValueError, match="one index per term"):
            block.relabel(wrong)


def _tuple_view_oracle(name, space, N, request, rng):
    """Queries in the nested-tuple form, built straight from the scheme
    definitions: a query is a tuple of blocks, a block a tuple of sums, a
    sum a tuple of (file, index) terms."""
    T, nu = space.T, space.nu
    if name in ("full_download", "leaky_index"):
        files = range(T) if name == "full_download" else request
        return [(tuple(((f, i),) for f in files for i in range(nu)),)] + [((),)] * (N - 1)
    blocks = [[] for _ in range(N)]
    for theta in request:
        index = [rng.permutation(nu).tolist() for _ in range(T)]
        for n, sums in enumerate(_run_layout(T, N, theta).sums):
            files, slots = sums.files.tolist(), sums.indices.tolist()
            bounds = sums.starts.tolist() + [len(files)]
            blocks[n].append(tuple(
                tuple((f, index[f][slot]) for f, slot in zip(files[lo:hi], slots[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])
            ))
    return [tuple(b) for b in blocks]


@pytest.mark.parametrize(
    "name,T,N,P",
    [("full_download", 3, 2, 2), ("full_download", 4, 1, 1), ("leaky_index", 3, 2, 2),
     ("leaky_index", 4, 3, 1), ("repeated_pir", 2, 2, 1), ("repeated_pir", 3, 2, 2),
     ("repeated_pir", 3, 3, 3), ("repeated_pir", 4, 2, 2)],
)
def test_sum_block_iteration_is_the_nested_tuple_view(name, T, N, P):
    scheme = make_scheme(name)
    nu = N**T if name == "repeated_pir" else 2
    space = VirtualFileSpace(T=T, q=5, nu=nu)
    for request in itertools.combinations(range(T), P):
        for seed in range(3):
            plan = scheme.query(space, N, request, np.random.default_rng(seed))
            view = [tuple(tuple(block) for block in sq) for sq in plan.server_queries]
            assert view == _tuple_view_oracle(name, space, N, request, np.random.default_rng(seed))
            for sq in plan.server_queries:
                assert all(isinstance(block, SumBlock) for block in sq)


# --- full download ---------------------------------------------------------------


def test_full_download_rate_example():
    space = VirtualFileSpace(T=3, q=5, nu=1)
    tr = run_retrieval(FullDownloadScheme(), space, 2, (0, 2), _random_data(space), 0)
    assert tr.downloaded == 3
    assert tr.inverse_rate == pytest.approx(1.5)


def test_full_download_constant_query():
    space = VirtualFileSpace(T=4, q=5, nu=2)
    sch = FullDownloadScheme()
    plans = [
        sch.query(space, 3, req, np.random.default_rng(0)).server_queries
        for req in itertools.combinations(range(4), 2)
    ]
    assert all(p == plans[0] for p in plans)


def test_full_download_shares_one_read_only_block():
    space = VirtualFileSpace(T=4, q=5, nu=3)
    sch = FullDownloadScheme()
    first, second = (
        sch.query(space, 2, req, None).server_queries[0][0] for req in ((0,), (1, 3))
    )
    assert first is second
    assert first == SumBlock(np.repeat(np.arange(4), 3), np.tile(np.arange(3), 4), np.arange(12))
    for a in (first.files, first.indices, first.starts):
        assert not a.flags.writeable


def test_full_download_n1_matches_converse():
    for T, P in [(3, 1), (3, 2), (4, 2), (6, 5)]:
        space = VirtualFileSpace(T=T, q=5, nu=2)
        tr = run_retrieval(
            FullDownloadScheme(), space, 1, tuple(range(P)), _random_data(space), 1
        )
        assert tr.inverse_rate == pytest.approx(T / P, abs=1e-12)
        assert tr.inverse_rate == pytest.approx(
            inverse_rate_converse(BoundQuery(T, P, 1)), abs=1e-9
        )


# --- repeated PIR ------------------------------------------------------------------


def test_per_server_download_counts():
    assert per_server_download(3, 2) == 7
    assert per_server_download(2, 2) == 3
    assert per_server_download(1, 2) == 1
    assert per_server_download(3, 3) == 3 + 6 + 4


def test_repeated_pir_rate_t3_n2():
    space = VirtualFileSpace(T=3, q=5, nu=8)
    tr = run_retrieval(RepeatedPirScheme(), space, 2, (1,), _random_data(space), 0)
    assert tr.per_server_counts == (7, 7)
    assert tr.downloaded == 14
    assert tr.inverse_rate == pytest.approx(1.75)
    assert tr.inverse_rate == pytest.approx(1 + 1 / 2 + 1 / 4)


def test_repeated_pir_rate_t2_n2():
    space = VirtualFileSpace(T=2, q=5, nu=4)
    tr = run_retrieval(RepeatedPirScheme(), space, 2, (0,), _random_data(space), 0)
    assert tr.per_server_counts == (3, 3)
    assert tr.inverse_rate == pytest.approx(1.5)


def test_repeated_pir_rate_independent_of_p():
    space = VirtualFileSpace(T=3, q=5, nu=8)
    rates = []
    for P in (1, 2, 3):
        tr = run_retrieval(
            RepeatedPirScheme(), space, 2, tuple(range(P)), _random_data(space), 0
        )
        rates.append(tr.inverse_rate)
    assert rates[0] == rates[1] == rates[2] == pytest.approx(1.75)


def test_repeated_pir_geometric_sum_grid():
    for T, N in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        space = VirtualFileSpace(T=T, q=5, nu=N**T)
        tr = run_retrieval(
            RepeatedPirScheme(), space, N, (0,), _random_data(space, T * N), 5
        )
        assert tr.inverse_rate == pytest.approx(
            single_message_inverse_rate(T, N), abs=1e-9
        )


def test_repeated_pir_correctness_100_seeds():
    cases = [
        (VirtualFileSpace(T=3, q=5, nu=8), 2, (1,)),
        (VirtualFileSpace(T=3, q=2, nu=8), 2, (0, 2)),
    ]
    for space, N, request in cases:
        data = _random_data(space, seed=99)
        for s in range(100):
            tr = run_retrieval(RepeatedPirScheme(), space, N, request, data, seed=s)
            assert np.array_equal(tr.decoded, data[list(request)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_repeated_pir_decodes_exactly_at_the_closed_form_download(data):
    T = data.draw(st.integers(1, 4), label="T")
    N = data.draw(st.sampled_from([2, 3]), label="N")
    P = data.draw(st.integers(1, T), label="P")
    q = data.draw(st.sampled_from([2, 3, 5, 7, 2**31 - 1]), label="q")
    request = tuple(sorted(data.draw(st.permutations(range(T)), label="files")[:P]))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    space = VirtualFileSpace(T=T, q=q, nu=N**T)
    symbols = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data"))
    values = symbols.integers(0, q, size=(T, space.nu))
    tr = run_retrieval(RepeatedPirScheme(), space, N, request, values, seed=seed)
    assert np.array_equal(tr.decoded, values[list(request)])
    assert tr.downloaded == P * N * sum(
        comb(T, t) * (N - 1) ** (t - 1) for t in range(1, T + 1)
    )


@pytest.mark.parametrize("T,N,P", [(3, 2, 1), (3, 2, 2), (3, 2, 3), (2, 3, 2), (4, 2, 3)])
def test_repeated_pir_query_draws_like_sequential_permutations(T, N, P):
    """The query's one batched draw gives the indices that T permutations
    drawn one by one per run give, and leaves the generator where they do."""
    nu = N**T
    space = VirtualFileSpace(T=T, q=5, nu=nu)
    request = np.arange(T - P, T)
    rng, twin = np.random.default_rng(100 + P), np.random.default_rng(100 + P)
    plan = RepeatedPirScheme().query(space, N, request, rng)
    for r, theta in enumerate(request):
        perms = np.stack([twin.permutation(nu) for _ in range(T)])
        for n, sums in enumerate(_run_layout(T, N, theta).sums):
            block = plan.server_queries[n][r]
            assert block.indices.tolist() == perms[sums.files, sums.indices].tolist()
        assert plan.state[r][0] == theta
        assert plan.state[r][1].tolist() == perms[theta].tolist()
    assert rng.integers(0, 2**62, size=4).tolist() == twin.integers(0, 2**62, size=4).tolist()


@pytest.mark.parametrize(
    "T,N,P", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 2, 3), (2, 3, 2), (3, 3, 1)]
)
def test_repeated_pir_query_relabels_its_layout_without_rechecking(T, N, P, monkeypatch):
    """A query's blocks are its cached layout's blocks relabelled: no block
    goes through the checking constructor, and each equals the block that
    constructor builds from the same arrays."""
    space = VirtualFileSpace(T=T, q=5, nu=N**T)
    request = np.arange(T - P, T)
    for theta in request:
        _run_layout(T, N, theta)  # layouts are built, and checked, before counting
    checked = []
    post_init = SumBlock.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(SumBlock, "__post_init__", counted)
    plan = RepeatedPirScheme().query(space, N, request, np.random.default_rng(T * N + P))
    assert checked == []
    monkeypatch.undo()
    for n, server in enumerate(plan.server_queries):
        assert len(server) == P
        for theta, block in zip(request, server):
            sums = _run_layout(T, N, theta).sums[n]
            assert block.files is sums.files and block.starts is sums.starts
            assert not block.indices.flags.writeable
            assert block == SumBlock(block.files.copy(), block.indices.copy(), block.starts.copy())


def test_repeated_pir_unsupported_params():
    sch = RepeatedPirScheme()
    with pytest.raises(UnsupportedParameters):
        run_retrieval(sch, VirtualFileSpace(T=3, q=5, nu=4), 2, (0,), np.zeros((3, 4)), 0)
    with pytest.raises(UnsupportedParameters):
        run_retrieval(sch, VirtualFileSpace(T=3, q=5, nu=1), 1, (0,), np.zeros((3, 1)), 0)


def test_repeated_pir_structure_counts():
    for T, N, theta in [
        (T, N, theta) for T, N in [(1, 2), (2, 2), (3, 2), (3, 3), (4, 2), (3, 1)]
        for theta in range(T)
    ]:
        layout = _run_layout(T, N, theta)
        # each file's slots over all servers: theta's pool of N^T exactly
        # exhausted, each slot read once, every other file's pool at N^(T-1)
        for f in range(T):
            slots = np.concatenate([sums.indices[sums.files == f] for sums in layout.sums])
            if f == theta:
                assert sorted(slots.tolist()) == list(range(N**T))
            else:
                assert sorted(set(slots.tolist())) == list(range(N ** (T - 1)))
        assert sorted(layout.desired.tolist()) == list(range(N**T))
        undesired, offset = [], 0  # the flat positions of undesired sums
        for sums in layout.sums:
            assert len(sums) == per_server_download(T, N)
            supports = [{f for f, _ in terms} for terms in sums]
            # round t: C(T-1,t) (N-1)^(t-1) fresh undesired t-sums
            for t in range(1, T + 1):
                made = sum(len(s) == t and theta not in s for s in supports)
                assert made == comb(T - 1, t) * (N - 1) ** (t - 1)
            undesired += [offset + p for p, s in enumerate(supports) if theta not in s]
            offset += len(sums)
        # every undesired sum is side information once at each other server;
        # the N round-1 reads subtract the appended 0
        want = Counter({p: N - 1 for p in undesired if N > 1})
        want[offset] = N
        assert Counter(layout.side.tolist()) == want


@pytest.mark.parametrize(
    "T,N,P", [(T, N, P) for T in range(1, 5) for N in (2, 3) for P in range(1, T + 1)]
)
def test_repeated_pir_sent_order_is_the_same_for_every_request(T, N, P):
    """Every run of every request and seed shows server n the same sequence
    of per-sum file supports, and within a run no (file, index) twice.

    This is the privacy argument of the scheme.  Each run draws a uniform
    permutation of the nu positions per file, independently across files and
    runs, and a server's sums name each slot of a file at most once.  The
    indices a uniform permutation gives to any fixed order of distinct slots
    form a uniform injective sequence, so, given its support sequence, a
    server's view of a run is uniform over injective index assignments for
    each file, independently across files.  The support sequence itself does
    not depend on the request, so neither does the view.
    """
    space = VirtualFileSpace(T=T, q=2, nu=N**T)
    sch = RepeatedPirScheme()
    seen = [set() for _ in range(N)]
    for request in itertools.combinations(range(T), P):
        for seed in range(5):
            plan = sch.query(space, N, request, np.random.default_rng(seed))
            for n, server_query in enumerate(plan.server_queries):
                for block in server_query:
                    seen[n].add(tuple(tuple(f for f, _ in terms) for terms in block))
                    for f in range(T):
                        indexes = [i for terms in block for g, i in terms if g == f]
                        assert len(set(indexes)) == len(indexes), (n, f)
    assert all(len(supports) == 1 for supports in seen)


def test_repeated_pir_download_count_symmetry():
    space = VirtualFileSpace(T=3, q=5, nu=8)
    sch = RepeatedPirScheme()
    counts = set()
    for req in itertools.combinations(range(3), 2):
        plan = sch.query(space, 2, req, np.random.default_rng(0))
        counts.add(tuple(sum(len(b) for b in sq) for sq in plan.server_queries))
    assert len(counts) == 1


def test_decode_mismatch_is_hard_failure():
    class CorruptingScheme(RepeatedPirScheme):
        def answer(self, space, server_query, data):
            out = super().answer(space, server_query, data)
            if out and len(out[0]):
                out[0][0] = (out[0][0] + 1) % space.q
            return out

    space = VirtualFileSpace(T=3, q=5, nu=8)
    with pytest.raises(DecodeMismatchError):
        run_retrieval(CorruptingScheme(), space, 2, (0,), _random_data(space), 0)


def test_run_retrieval_validation():
    space = VirtualFileSpace(T=3, q=5, nu=1)
    data = _random_data(space)
    with pytest.raises(ValueError, match="repeat"):
        run_retrieval(FullDownloadScheme(), space, 2, (0, 0), data, 0)
    with pytest.raises(ValueError, match="out of range"):
        run_retrieval(FullDownloadScheme(), space, 2, (3,), data, 0)
    with pytest.raises(ValueError, match="shaped"):
        run_retrieval(FullDownloadScheme(), space, 2, (0,), np.zeros((2, 2)), 0)


# --- database-derived runs ----------------------------------------------------------


def _stacked_database(q, K, L, nu):
    """The nu instances random_database(q, K, L, seed=s), s < nu, as one stack."""
    return Database(q, np.stack([random_database(q, K, L, seed=s).entries for s in range(nu)]))


def test_retrieve_pairs_matches_table():
    db = _stacked_database(5, 3, 4, nu=3)
    pairs = PairSet({PairIndex(1, 2), PairIndex(3, 3)})
    tr = retrieve_pairs(FullDownloadScheme(), pairs, db, 2, seed=1)
    for col, entries in enumerate(db.entries):
        table = compute_table(Database(5, entries))
        for row, rank in enumerate(pairs.ranks(3)):
            assert tr.decoded[row, col] == table[rank]


def test_retrieve_pairs_with_repeated_pir():
    db = _stacked_database(2, 2, 3, nu=8)  # nu = 8 = 2^T
    pairs = PairSet({PairIndex(1, 2)})
    tr = retrieve_pairs(RepeatedPirScheme(), pairs, db, 2, seed=4)
    assert tr.inverse_rate == pytest.approx(1.75)


@pytest.mark.parametrize("q,K,L,nu", [(5, 3, 4, 3), (2, 2, 3, 8), (10**9 + 7, 4, 11, 1)])
def test_virtual_data_columns_are_the_instance_tables(q, K, L, nu):
    db = _stacked_database(q, K, L, nu)
    space, data = virtual_data_from_databases(db)
    assert space == VirtualFileSpace(T=pair_count(K), q=q, nu=nu)
    assert data.shape == (pair_count(K), nu)
    for n, entries in enumerate(db.entries):
        assert data[:, n].tolist() == compute_table(Database(q, entries)).tolist()
    # a single database is the one-column case
    single = Database(q, db.entries[0])
    space, data = virtual_data_from_databases(single)
    assert data.shape == (pair_count(K), 1) and space.nu == 1
    assert data[:, 0].tolist() == compute_table(single).tolist()


def test_pair_set_validation():
    with pytest.raises(ValueError, match="nonempty"):
        PairSet(set())
    with pytest.raises(TypeError, match="PairIndex"):
        PairSet({(1, 2)})
    ps = PairSet({PairIndex(2, 1), PairIndex(1, 2)})
    assert ps.P == 1  # identical normalized pairs collapse


# --- rate accounting -----------------------------------------------------------------


def test_measure_rate_and_summary():
    space = VirtualFileSpace(T=3, q=5, nu=1)
    data = _random_data(space)
    transcripts = [
        run_retrieval(FullDownloadScheme(), space, 2, (0, 1), data, seed=s)
        for s in range(4)
    ]
    assert measure_rate(transcripts) == pytest.approx(1.5)
    summary = rate_summary(transcripts, 2)
    assert summary["measured_inverse_rate"] == pytest.approx(1.5)
    assert summary["inv_rate_converse"] == pytest.approx(1.25)
    assert not summary["beats_converse"]
    with pytest.raises(ValueError):
        measure_rate([])


def test_rate_summary_rejects_an_empty_run_list():
    with pytest.raises(ValueError, match="at least one transcript"):
        rate_summary([], 2)
    with pytest.raises(ValueError, match="at least one transcript"):
        rate_summary(iter(()), 2)


@pytest.mark.parametrize("q", [0, 1, 4, 6, 9, 15, 561])
def test_virtual_file_space_rejects_a_non_prime_modulus(q):
    with pytest.raises(ValueError, match="prime"):
        VirtualFileSpace(T=2, q=q, nu=1)


@pytest.mark.parametrize("q", [2**61, 2**89 - 1, 2**107 - 1, 2**127 - 1])
def test_virtual_file_space_rejects_a_prime_modulus_from_2_to_the_61(q):
    with pytest.raises(ValueError, match=r"2\*\*61"):
        VirtualFileSpace(T=2, q=q, nu=1)
    assert VirtualFileSpace(T=2, q=2**61 - 1, nu=1).q == 2**61 - 1


def test_no_scheme_beats_converse():
    for scheme_name, T, P, N, nu in [
        ("full_download", 3, 2, 2, 1),
        ("full_download", 4, 1, 3, 2),
        ("repeated_pir", 3, 2, 2, 8),
        ("repeated_pir", 2, 2, 3, 9),
    ]:
        scheme = make_scheme(scheme_name)
        space = VirtualFileSpace(T=T, q=5, nu=nu)
        tr = run_retrieval(scheme, space, N, tuple(range(P)), _random_data(space, 7), 3)
        converse = inverse_rate_converse(BoundQuery(T, P, N))
        assert tr.inverse_rate >= converse - 1e-9


# --- privacy audits ------------------------------------------------------------------


def test_exact_audit_full_download_tv_zero():
    space = VirtualFileSpace(T=3, q=5, nu=1)
    rep = audit_privacy(FullDownloadScheme(), space, 2, 2, mode="exact")
    assert rep.passed
    assert rep.max_tv_distance == 0.0
    assert rep.count_symmetric


def test_exact_audit_flags_leaky_scheme():
    space = VirtualFileSpace(T=3, q=5, nu=1)
    rep = audit_privacy(LeakyIndexScheme(), space, 2, 1, mode="exact")
    assert not rep.passed
    assert rep.max_tv_distance == 1.0


def test_exact_audit_rejects_randomized_scheme():
    space = VirtualFileSpace(T=2, q=5, nu=4)
    with pytest.raises(ValueError, match="randomized"):
        audit_privacy(RepeatedPirScheme(), space, 2, 1, mode="exact")


class _CoinFlipLeak(LeakyIndexScheme):
    """Declares deterministic queries, but downloads everything on one draw
    in two and names the requested files on the others."""

    def query(self, space, n_servers, request, rng=None):
        if rng.integers(2):
            return FullDownloadScheme().query(space, n_servers, request)
        return super().query(space, n_servers, request, rng)


@pytest.mark.parametrize("mode,samples", [("exact", None), ("sampled", 10_000)])
def test_audits_reject_a_deterministic_scheme_whose_draws_differ(mode, samples):
    space = VirtualFileSpace(T=3, q=5, nu=2)
    message = "leaky_index declares deterministic queries but two draws differ"
    with pytest.raises(RuntimeError, match=message):
        audit_privacy(_CoinFlipLeak(), space, 2, 1, mode=mode, samples=samples, seed=0)


def test_exact_audit_rejects_samples():
    space = VirtualFileSpace(T=3, q=5, nu=1)
    with pytest.raises(ValueError, match="samples applies to sampled mode only"):
        audit_privacy(FullDownloadScheme(), space, 2, 1, mode="exact", samples=10_000)


def test_sampled_audit_passes_repeated_pir():
    space = VirtualFileSpace(T=2, q=5, nu=4)
    rep = audit_privacy(
        RepeatedPirScheme(), space, 2, 1, mode="sampled", samples=10_000, seed=11
    )
    assert rep.passed
    assert rep.count_symmetric
    assert rep.min_pvalue >= rep.threshold
    assert rep.n_tests == len(rep.tests) > 0


def test_sampled_audit_flags_leaky_scheme():
    space = VirtualFileSpace(T=3, q=5, nu=2)
    rep = audit_privacy(
        LeakyIndexScheme(), space, 2, 1, mode="sampled", samples=10_000, seed=11
    )
    assert not rep.passed


def test_sampled_audit_counts_its_informative_tests():
    """At T = 3, N = 3 (nu = 27) every category of every test pools into one,
    so the audit passes on 36 tests of dof 0 and reports 0 informative tests;
    criterion 7's audits have informative tests, and exact audits None."""
    vacuous = audit_privacy(
        RepeatedPirScheme(), VirtualFileSpace(T=3, q=3, nu=27), 3, 1,
        mode="sampled", samples=30_000, seed=0,
    )
    assert vacuous.passed
    assert vacuous.n_tests == 36
    assert vacuous.informative_tests == 0
    for P in (1, 2):
        rep = audit_privacy(
            RepeatedPirScheme(), VirtualFileSpace(T=3, q=2, nu=8), 2, P,
            mode="sampled", samples=100_000, seed=acceptance.MASTER_SEED_DEFAULT,
        )
        assert 0 < rep.informative_tests == sum(t["dof"] >= 1 for t in rep.tests)
    exact = audit_privacy(FullDownloadScheme(), VirtualFileSpace(T=3, q=5, nu=2), 2, 2)
    assert exact.informative_tests is None


def test_sampled_audit_requires_enough_samples():
    space = VirtualFileSpace(T=2, q=5, nu=4)
    with pytest.raises(ValueError, match="samples"):
        audit_privacy(RepeatedPirScheme(), space, 2, 1, mode="sampled", samples=100)


def test_audit_mode_validation():
    space = VirtualFileSpace(T=2, q=5, nu=4)
    with pytest.raises(ValueError, match="unknown audit mode"):
        audit_privacy(FullDownloadScheme(), space, 2, 1, mode="bogus")
    with pytest.raises(ValueError, match="P must"):
        audit_privacy(FullDownloadScheme(), space, 2, 5, mode="exact")


def _packed_key(file_key, nu: int) -> tuple:
    """The batched tally's key for one of the base loop's index keys, built
    with Python integers: each run's index set as packed membership bits
    (index j at bit 8w-1-j of a w = ceil(nu/8) byte field), the fields
    sorted and concatenated into one integer, left-aligned in 64-bit words
    listed most significant first."""
    width = 8 * -(-nu // 8)
    key = 0
    for field in sorted(sum(1 << (width - 1 - j) for j in run) for run in file_key):
        key = key << width | field
    bits = width * len(file_key)
    words = -(-bits // 64)
    key <<= 64 * words - bits
    return tuple(key >> (64 * (words - 1 - w)) & (2**64 - 1) for w in range(words))


def _counter(channel) -> Counter:
    """A (keys, counts) channel tally as a Counter with tuple keys (rows of
    a 2-D key array become tuples), after checking that its keys ascend."""
    keys, counts = channel
    keys = [tuple(k) for k in keys.tolist()]
    assert keys == sorted(set(keys))
    assert counts.dtype == np.int64
    return Counter(dict(zip(keys, counts.tolist())))


def _packed_counter(ch, channel, nu: int) -> Counter:
    """A base-loop channel tally as a Counter keyed like the batched tally."""
    counter = _counter(channel)
    if ch[0] == "indexes":
        counter = Counter({_packed_key(k, nu): v for k, v in counter.items()})
    return counter


def _check_tally_against_loop(T, N, request, seed, samples, chunk, draw):
    space = VirtualFileSpace(T=T, q=2, nu=N**T)
    sch = RepeatedPirScheme()
    r_fast = np.random.default_rng(seed)
    r_loop = np.random.default_rng(seed)
    # a block of `chunk` samples drawn `draw` samples at a time, so the tally
    # spans several chunks and a chunk several draws
    per_sample = len(request) * T * space.nu
    with mock.patch.multiple(
        protocol, _TALLY_BLOCK=chunk * per_sample, _DRAW_BLOCK=draw * per_sample
    ):
        fast = sch.tally_statistics(space, N, request, r_fast, samples)
    loop = RetrievalScheme.tally_statistics(sch, space, N, request, r_loop, samples)
    assert list(fast) == list(loop)
    for ch, channel in loop.items():
        assert _counter(fast[ch]) == _packed_counter(ch, channel, space.nu), ch
    assert r_fast.bit_generator.state == r_loop.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tally_statistics_matches_per_sample_loop(data):
    T = data.draw(st.integers(2, 4), label="T")
    N = data.draw(st.integers(2, 3), label="N")
    P = data.draw(st.integers(1, T), label="P")
    request = tuple(sorted(data.draw(st.permutations(range(T)), label="files")[:P]))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    samples = data.draw(st.integers(1, 12 if N**T > 30 else 40), label="samples")
    chunk = data.draw(st.integers(1, samples), label="chunk")
    draw = data.draw(st.integers(1, chunk), label="draw")
    _check_tally_against_loop(T, N, request, seed, samples, chunk, draw)


def test_tally_statistics_matches_per_sample_loop_on_multiword_keys():
    # nu = 81: each run mask spans two words and the P = 3 key five
    _check_tally_against_loop(4, 3, (0, 1, 3), seed=5, samples=9, chunk=4, draw=3)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_permuted_on_intp_draws_like_a_narrow_dtype(dtype):
    # the batched tally draws intp and narrows: this numpy property makes
    # that the same draw as the narrow one, down to the generator state
    r_wide, r_narrow = np.random.default_rng(7), np.random.default_rng(7)
    shape = (50, 2, 3, 8)
    wide = r_wide.permuted(np.broadcast_to(np.arange(8, dtype=np.intp), shape), axis=-1)
    narrow = r_narrow.permuted(np.broadcast_to(np.arange(8, dtype=dtype), shape), axis=-1)
    assert np.array_equal(wide, narrow)
    assert r_wide.bit_generator.state == r_narrow.bit_generator.state


def test_tally_memory_follows_the_chunk_not_the_samples():
    # T = 3, N = 2, P = 2: a chunk of 2**20 uint8 entries is 1 MiB; an intp
    # chunk would be 8 MiB and a tally holding every sample's key more still
    space = VirtualFileSpace(T=3, q=2, nu=8)
    sch = RepeatedPirScheme()
    # a first call fills the layout cache, which is not the tally's memory
    sch.tally_statistics(space, 2, (0, 2), np.random.default_rng(0), 100)
    tracemalloc.start()
    try:
        sch.tally_statistics(space, 2, (0, 2), np.random.default_rng(0), 30_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("name", ["leaky_index", "full_download"])
def test_deterministic_tally_matches_per_sample_loop(name):
    sch = make_scheme(name)
    space = VirtualFileSpace(T=3, q=5, nu=2)
    rng = np.random.default_rng(0)
    tally = sch.tally_statistics(space, 2, (0, 2), rng, 50)
    loop = _empty_tally(2, space.T)
    for _ in range(50):
        for n, (structure_key, file_keys) in enumerate(
            sch.query_statistics(space, 2, (0, 2), rng)
        ):
            loop[("structure", n)][structure_key] += 1
            for f in range(space.T):
                loop[("indexes", n, f)][file_keys[f]] += 1
    assert {ch: _counter(channel) for ch, channel in tally.items()} == loop


def test_deterministic_tally_rejects_a_varying_statistic():
    class Flaky(LeakyIndexScheme):
        def query_statistics(self, space, n_servers, request, rng):
            return [((rng.integers(1 << 30),), {0: ()})]

    with pytest.raises(RuntimeError, match="two draws differ"):
        Flaky().tally_statistics(
            VirtualFileSpace(T=1, q=5, nu=1), 1, (0,), np.random.default_rng(0), 10
        )


class _IndexReusePir(RepeatedPirScheme):
    """repeated_pir with a planted leak in ``query`` alone: server 0 reads
    the desired file's first two terms of each run at one index, and a
    repeated index names the desired file.  Counts its ``query`` calls."""

    def __init__(self):
        self.calls = 0

    def query(self, space, n_servers, request, rng):
        self.calls += 1
        plan = super().query(space, n_servers, request, rng)
        blocks = list(plan.server_queries[0])
        for r, (theta, _) in enumerate(plan.state):
            first, second = np.flatnonzero(blocks[r].files == theta)[:2]
            indices = blocks[r].indices.copy()
            indices[second] = indices[first]
            blocks[r] = SumBlock(blocks[r].files, indices, blocks[r].starts)
        plan.server_queries[0] = tuple(blocks)
        return plan


def test_tally_of_a_subclass_that_overrides_query_calls_its_query():
    space = VirtualFileSpace(T=3, q=2, nu=8)
    samples = 300
    keys = []
    for request in [(0,), (1,)]:
        sch = _IndexReusePir()
        tally = sch.tally_statistics(space, 2, request, np.random.default_rng(0), samples)
        assert sch.calls == samples
        keys.append(set(tally[("indexes", 0, 0)][0]))
    assert keys[0] and keys[1] and keys[0].isdisjoint(keys[1])


def test_tally_takes_the_batch_under_a_wrapper_set_on_the_class():
    calls = []
    original = RepeatedPirScheme.query

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    space = VirtualFileSpace(T=3, q=2, nu=8)
    with mock.patch.object(RepeatedPirScheme, "query", counted):
        tally = RepeatedPirScheme().tally_statistics(
            space, 2, (0,), np.random.default_rng(0), 50
        )
    assert calls == []
    assert tally[("indexes", 0, 0)][0].dtype == np.uint64


def test_audits_name_the_leak_of_the_leaky_control():
    space = VirtualFileSpace(T=3, q=5, nu=2)
    exact = audit_privacy(LeakyIndexScheme(), space, 2, 1, mode="exact")
    assert exact.worst_test == {
        "channel": "query/server0", "set1": [0], "set2": [1], "pvalue": None
    }
    sampled = audit_privacy(
        LeakyIndexScheme(), space, 2, 1, mode="sampled", samples=10_000, seed=11
    )
    worst = sampled.worst_test
    assert worst["pvalue"] == sampled.min_pvalue < sampled.threshold
    assert worst["channel"].endswith("server0")
    assert (worst["set1"], worst["set2"]) == ([0], [1])
    passing = audit_privacy(FullDownloadScheme(), space, 2, 1, mode="exact")
    assert passing.worst_test is None


def _reference_chisquare(c1: Counter, c2: Counter, min_bucket: int = 10):
    """The Counter-based two-sample chi-square that the array version
    replaced, kept verbatim as its reference."""
    # a total order, so the summation order never depends on hashing
    cats = sorted(set(c1) | set(c2), key=lambda k: (-(c1[k] + c2[k]), k))
    a, b = [], []
    rest_a = rest_b = 0
    for k in cats:
        if c1[k] + c2[k] >= min_bucket:
            a.append(c1[k])
            b.append(c2[k])
        else:
            rest_a += c1[k]
            rest_b += c2[k]
    if rest_a + rest_b > 0:
        a.append(rest_a)
        b.append(rest_b)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) <= 1:
        return 0.0, 0, 1.0
    with np.errstate(invalid="ignore"):
        terms = (a - b) ** 2 / (a + b)
    stat = float(np.nansum(terms))
    dof = len(a) - 1
    pvalue = float(scipy.stats.chi2.sf(stat, dof))
    return stat, dof, pvalue


_DBL_MIN = float(np.finfo(float).tiny)


def _chi2_sf_bound(k: int, x: float) -> float:
    """``protocol._chi2_sf``'s stated relative error bound at k, x > 0."""
    y = x / 2
    return 2.0**-44 + 2.0**-50 * (y + k / 2 * abs(math.log(y)) + math.lgamma(k / 2 + 1))


def _assert_pvalue_within_bound(got, ref, k, x):
    """``got`` lies within ``_chi2_sf``'s stated bound of the reference
    p-value ``ref`` of a chi-square statistic x with k degrees of freedom;
    where ``ref`` is below the smallest normal double, ``got`` <= 1e-300."""
    if x <= 0:
        assert got == ref == 1.0, (k, x, got, ref)
    elif ref >= _DBL_MIN:
        assert abs(got - ref) <= _chi2_sf_bound(k, x) * ref, (k, x, got, ref)
    else:
        assert got <= 1e-300, (k, x, got, ref)


def _channel_arrays(counter: Counter, words: int, as_rows: bool) -> tuple:
    """A Counter of word tuples as a channel tally: keys as uint64 rows or
    as a 1-D object array of the tuples, in ascending order."""
    items = sorted(counter.items())
    counts = np.array([c for _, c in items], dtype=np.int64)
    if as_rows:
        keys = np.array([k for k, _ in items], dtype=np.uint64).reshape(len(items), words)
    else:
        keys = np.empty(len(items), dtype=object)
        for i, (k, _) in enumerate(items):
            keys[i] = k
    return keys, counts


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_array_chisquare_matches_counter_reference(data):
    words = data.draw(st.integers(1, 2), label="words")
    # both sides draw from one pool, so keys are shared, one-sided or absent
    word = st.integers(0, 2**64 - 1)
    pool = data.draw(st.lists(st.tuples(*[word] * words), unique=True, max_size=30), label="pool")
    # small counts make ties in the combined count common
    count = st.one_of(st.integers(1, 12), st.integers(1, 400))
    sides = []
    for label in ("side1", "side2"):
        keys = data.draw(st.lists(st.sampled_from(pool), unique=True), label=label) if pool else []
        sides.append(Counter({k: data.draw(count, label=f"{label} count") for k in keys}))
    as_rows = data.draw(st.booleans(), label="as_rows")
    min_bucket = data.draw(st.sampled_from([1, 10, 50]), label="min_bucket")
    tallies = [_channel_arrays(c, words, as_rows) for c in sides]
    got = protocol._two_sample_chisquare(*tallies, min_bucket=min_bucket)
    ref = _reference_chisquare(*sides, min_bucket=min_bucket)
    assert got[:2] == ref[:2]
    assert type(got[1]) is int
    _assert_pvalue_within_bound(got[2], ref[2], got[1], got[0])


def _chi2_oracle(k, x):
    """Q(k/2, x/2), the chi-square survival function, at 60 digits."""
    with mp.workdps(60):
        return mp.gammainc(mp.mpf(k) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)


def test_chisquare_pvalue_is_within_its_bound_of_an_mpmath_oracle():
    """The p-value is within _chi2_sf's stated relative bound of an mpmath
    oracle and of scipy.stats' chi2.sf, for every k in 1..60 and sampled k up
    to 5,000 on x from 0 to past the point where the value underflows, and on
    audit tests up to dof 5000 (the P=2 audit reaches 2473, the leaky control
    a p-value that underflows to 0.0)."""
    rng = np.random.default_rng(20)
    sampled = rng.choice(np.arange(61, 5000), size=12, replace=False)
    for k in [*range(1, 61), *sorted(sampled.tolist()), 2473, 5000]:
        # Q(k/2, x/2) < 1e-308 beyond x = 3k + 1800 for every k <= 5,000
        xs = [*np.linspace(0, 3 * k + 1800, 24), 1e-300, 1e-6, *k * np.exp(rng.uniform(-3, 1, 3))]
        oracles = []
        for x in map(float, xs):
            got = protocol._chi2_sf(k, x)
            oracles.append(_chi2_oracle(k, x))
            _assert_pvalue_within_bound(got, oracles[-1], k, x)
            _assert_pvalue_within_bound(got, float(scipy.stats.chi2.sf(x, k)), k, x)
        assert min(oracles) < _DBL_MIN and max(oracles) == 1, k

    pvalues = []
    for dof in (1, 2, 29, 30, 100, 1000, 2473, 5000):
        keys = np.arange(dof + 1, dtype=np.uint64).reshape(-1, 1)
        a = rng.integers(20, 80, size=dof + 1)
        # stat near f**2 * dof: from equal sides through sampling noise
        # (f = 1) to a tail where the p-value underflows
        for f in (0.0, 0.5, 1.0, 1.1, 1.25, 1.5, 2.0):
            noise = f * np.sqrt(2 * a) * rng.standard_normal(dof + 1)
            b = np.maximum(a + np.rint(noise).astype(np.int64), 1)
            for b in (b, 10 * b):
                stat, got_dof, pvalue = protocol._two_sample_chisquare((keys, a), (keys, b))
                assert got_dof == dof
                _assert_pvalue_within_bound(pvalue, _chi2_oracle(dof, stat), dof, stat)
                _assert_pvalue_within_bound(pvalue, float(scipy.stats.chi2.sf(stat, dof)), dof, stat)
                pvalues.append(pvalue)
    assert 0.0 in pvalues
    assert any(0.0 < p < 1e-12 for p in pvalues)
    assert any(p > 0.5 for p in pvalues)


class _ReferencePir(RepeatedPirScheme):
    """repeated_pir tallied by the base per-sample loop, as Counters keyed
    like the batched tally, for the reference chi-square."""

    def tally_statistics(self, space, n_servers, request, rng, samples):
        tally = RetrievalScheme.tally_statistics(self, space, n_servers, request, rng, samples)
        return {ch: _packed_counter(ch, channel, space.nu) for ch, channel in tally.items()}


@pytest.mark.parametrize("P", [1, 2])
@pytest.mark.parametrize("seed", [5, 2027])
def test_sampled_audit_matches_the_reference_pipeline(P, seed):
    # the base loop draws about 6k samples/s, so 1,000 samples per request
    # set (under MIN_AUDIT_SAMPLES) keep the four cases near 3 s
    samples = 1_000
    space = VirtualFileSpace(T=3, q=2, nu=8)
    with mock.patch.object(protocol, "MIN_AUDIT_SAMPLES", samples):
        fast = audit_privacy(
            RepeatedPirScheme(), space, 2, P, mode="sampled", samples=samples, seed=seed
        )
        with mock.patch.object(protocol, "_two_sample_chisquare", _reference_chisquare):
            ref = audit_privacy(
                _ReferencePir(), space, 2, P, mode="sampled", samples=samples, seed=seed
            )
    # everything but the p-values is exact; those are within _chi2_sf's bound
    # of scipy.stats' chi2.sf, which the reference calls
    assert fast.n_tests == ref.n_tests > 0
    for got, want in zip(fast.tests, ref.tests, strict=True):
        assert {**got, "pvalue": None} == {**want, "pvalue": None}
        _assert_pvalue_within_bound(got["pvalue"], want["pvalue"], got["dof"], got["chi2"])
    worst = min(fast.tests, key=lambda t: t["pvalue"])
    _assert_pvalue_within_bound(fast.min_pvalue, ref.min_pvalue, worst["dof"], worst["chi2"])
    assert fast.passed == ref.passed
    assert {**fast.worst_test, "pvalue": None} == {**ref.worst_test, "pvalue": None}


def test_sampled_audit_json_is_independent_of_hash_seed():
    root = Path(__file__).resolve().parents[1]
    argv = [
        sys.executable, "-m", "pipret.cli", "audit", "--scheme", "repeated_pir",
        "--mode", "sampled", "--samples", "10000", "--T", "3", "--N", "2", "--P", "2",
    ]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["results"]["passed"]


def test_make_scheme_lookup():
    assert make_scheme("full_download").name == "full_download"
    with pytest.raises(ValueError, match="unknown scheme"):
        make_scheme("carrier_pigeon")
