import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipret import protocol

from pipret.bounds import BoundQuery, inverse_rate_converse, single_message_inverse_rate
from pipret.fields import PairIndex, compute_table, pair_count, random_database
from pipret.protocol import (
    DecodeMismatchError,
    FullDownloadScheme,
    LeakyIndexScheme,
    PairSet,
    RepeatedPirScheme,
    RetrievalScheme,
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
from pipret.protocol import _empty_tally, _pir_run_structure


def _random_data(space, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, space.q, size=(space.T, space.nu))


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


def test_repeated_pir_unsupported_params():
    sch = RepeatedPirScheme()
    with pytest.raises(UnsupportedParameters):
        run_retrieval(sch, VirtualFileSpace(T=3, q=5, nu=4), 2, (0,), np.zeros((3, 4)), 0)
    with pytest.raises(UnsupportedParameters):
        run_retrieval(sch, VirtualFileSpace(T=3, q=5, nu=1), 1, (0,), np.zeros((3, 1)), 0)


def test_repeated_pir_structure_counts():
    for T, N in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        st = _pir_run_structure(T, N)
        # desired pool exactly exhausted, undesired pools at N^(T-1)
        assert st.used[0] == N**T
        for k in range(1, T):
            assert st.used[k] == N ** (T - 1)
        for n in range(N):
            assert len(st.sums[n]) == per_server_download(T, N)
            # round t: C(T-1,t) (N-1)^(t-1) undesired sums produced
            for t in range(1, T + 1):
                assert st.produced[n][t] == comb(T - 1, t) * (N - 1) ** (t - 1)
        # every undesired (t-1)-sum is consumed once by each other server
        for n in range(N):
            for t in range(1, T):
                assert st.consumed[n][t] == st.produced[n][t] * (N - 1)


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
            if out and out[0]:
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


def test_retrieve_pairs_matches_table():
    dbs = [random_database(5, 3, 4, seed=s) for s in range(3)]
    pairs = PairSet({PairIndex(1, 2), PairIndex(3, 3)})
    tr = retrieve_pairs(FullDownloadScheme(), pairs, dbs, 2, seed=1)
    tables = [compute_table(db).values for db in dbs]
    for col, table in enumerate(tables):
        for row, rank in enumerate(pairs.ranks(3)):
            assert tr.decoded[row, col] == table[rank]


def test_retrieve_pairs_with_repeated_pir():
    dbs = [random_database(2, 2, 3, seed=s) for s in range(8)]  # nu = 8 = 2^T
    pairs = PairSet({PairIndex(1, 2)})
    tr = retrieve_pairs(RepeatedPirScheme(), pairs, dbs, 2, seed=4)
    assert tr.inverse_rate == pytest.approx(1.75)


def test_virtual_data_requires_consistent_instances():
    with pytest.raises(ValueError, match="share"):
        virtual_data_from_databases(
            [random_database(5, 2, 3, seed=0), random_database(7, 2, 3, seed=0)]
        )
    with pytest.raises(ValueError, match="at least one"):
        virtual_data_from_databases([])


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


def _packed_key(file_key, nu: int) -> bytes:
    """The batched tally's key for one of the base loop's index keys: each
    run's index set as packed membership bits, sorted and concatenated."""
    runs = []
    for indexes in file_key:
        bits = np.zeros(nu, dtype=bool)
        bits[list(indexes)] = True
        runs.append(np.packbits(bits).tobytes())
    return b"".join(sorted(runs))


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
    space = VirtualFileSpace(T=T, q=2, nu=N**T)
    sch = RepeatedPirScheme()
    r_fast = np.random.default_rng(seed)
    r_loop = np.random.default_rng(seed)
    # a block of `chunk` samples, so the tally spans several chunks
    with mock.patch.object(protocol, "_TALLY_BLOCK", chunk * P * T * space.nu):
        fast = sch.tally_statistics(space, N, request, r_fast, samples)
    loop = RetrievalScheme.tally_statistics(sch, space, N, request, r_loop, samples)
    assert list(fast) == list(loop)
    for ch, counter in loop.items():
        if ch[0] == "indexes":
            counter = Counter(
                {_packed_key(k, space.nu): v for k, v in counter.items()}
            )
        assert fast[ch] == counter, ch
    assert r_fast.bit_generator.state == r_loop.bit_generator.state


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
    assert tally == loop


def test_deterministic_tally_rejects_a_varying_statistic():
    class Flaky(LeakyIndexScheme):
        def query_statistics(self, space, n_servers, request, rng):
            return [((rng.integers(1 << 30),), {0: ()})]

    with pytest.raises(RuntimeError, match="two draws differ"):
        Flaky().tally_statistics(
            VirtualFileSpace(T=1, q=5, nu=1), 1, (0,), np.random.default_rng(0), 10
        )


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
