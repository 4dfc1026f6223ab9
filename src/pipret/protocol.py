"""Multi-server retrieval simulator with privacy auditing and rate accounting.

Messages here are *virtual files*: T retrievable units of nu symbols each
over F(q), replicated at every server.  When derived from a database, the
r-th virtual file holds the inner product of the r-th canonical pair across
nu independent database instances, which gives each inner product a genuine
message length so measured rates are comparable to the closed-form bounds.

A scheme turns a request (a sorted tuple of virtual-file indices) into one
query per server; a query is a tuple of blocks, a block is a tuple of sums,
and a sum is a tuple of (file, symbol_index) terms the server adds up mod q.
Servers are memoryless: the answer is a pure function of the query and the
replicated data.  Decoding must reproduce the requested symbols exactly;
a mismatch is a hard failure, never a statistic.

Three schemes are provided:

* ``full_download``     - constant query, baseline; trivially private.
* ``repeated_pir``      - one capacity-achieving single-message retrieval
                          per requested file, using nu = N**T
                          subpacketization and cross-server side
                          information; meets the P = 1 bound exactly.
                          One cached layout per desired file fixes each
                          server's sums, sent in order of file support, and
                          the decode, one gather per run.
* ``leaky_index``       - negative control that sends the request in the
                          clear; privacy audits must flag it.
"""

from __future__ import annotations

import abc
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np
import scipy.stats

from .bounds import BoundQuery, inverse_rate_achievable, inverse_rate_converse
from .fields import Database, PairIndex, compute_table, is_prime, pair_count, pair_rank

MIN_AUDIT_SAMPLES = 10_000
# permutation entries (samples * P * T * nu) drawn per chunk of a batched tally
_TALLY_BLOCK = 1 << 20


@dataclass(frozen=True)
class VirtualFileSpace:
    """T virtual files of nu symbols each over F(q)."""

    T: int
    q: int
    nu: int

    def __post_init__(self):
        if self.T < 1 or self.nu < 1:
            raise ValueError("T and nu must be >= 1")
        if not is_prime(self.q):
            raise ValueError(f"q must be a prime, got {self.q}")


@dataclass(frozen=True)
class PairSet:
    """The requested subset of file pairs; only its size is public."""

    pairs: frozenset

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", frozenset(pairs))
        if not self.pairs:
            raise ValueError("pair set must be nonempty")
        for p in self.pairs:
            if not isinstance(p, PairIndex):
                raise TypeError(f"expected PairIndex, got {type(p).__name__}")

    @property
    def P(self) -> int:
        return len(self.pairs)

    def ranks(self, K: int) -> tuple[int, ...]:
        return tuple(sorted(pair_rank(K, p) for p in self.pairs))


@dataclass
class QueryPlan:
    """Per-server queries plus the user's private decoding state."""

    server_queries: list
    state: object


@dataclass
class RetrievalTranscript:
    """One complete retrieval: queries, answers, downloaded-symbol count,
    and the decoded (P, nu) symbol block."""

    scheme: str
    space: VirtualFileSpace
    n_servers: int
    request: tuple
    seed: object
    queries: list
    answers: list
    downloaded: int
    per_server_counts: tuple
    decoded: np.ndarray

    @property
    def inverse_rate(self) -> float:
        return self.downloaded / (len(self.request) * self.space.nu)


class DecodeMismatchError(RuntimeError):
    """Decoded symbols differ from ground truth (correctness is exact)."""


class UnsupportedParameters(ValueError):
    """Scheme cannot run at the requested (T, q, nu, N)."""


class RetrievalScheme(abc.ABC):
    """Interface every scheme implements; ``answer`` is shared because all
    queries are lists of explicit sums."""

    name: str = "abstract"
    deterministic_query: bool = False

    @abc.abstractmethod
    def supports(self, space: VirtualFileSpace, n_servers: int) -> bool:
        ...

    def check_supports(self, space: VirtualFileSpace, n_servers: int) -> None:
        if not self.supports(space, n_servers):
            raise UnsupportedParameters(
                f"{self.name} does not support T={space.T} q={space.q} "
                f"nu={space.nu} N={n_servers}"
            )

    @abc.abstractmethod
    def query(self, space, n_servers, request, rng) -> QueryPlan:
        ...

    def answer(self, space, server_query, data) -> list:
        """Evaluate each sum of each block mod q against replicated data."""
        q = space.q
        out = []
        for block in server_query:
            vals = []
            for terms in block:
                acc = 0
                for f, i in terms:
                    acc += int(data[f, i])
                vals.append(acc % q)
            out.append(vals)
        return out

    @abc.abstractmethod
    def decode(self, space, plan, answers) -> np.ndarray:
        ...

    def query_statistics(self, space, n_servers, request, rng) -> list:
        """Canonical per-server statistic of one sampled query, used by the
        privacy audit: (sorted file-support multiset per block, per-file
        sorted index tuples per block)."""
        plan = self.query(space, n_servers, request, rng)
        return [_server_statistic(sq, space.T) for sq in plan.server_queries]

    def tally_statistics(self, space, n_servers, request, rng, samples) -> dict:
        """Counts of ``samples`` draws of ``query_statistics`` per audit
        channel: ``("structure", n)`` and ``("indexes", n, f)``.

        This per-sample loop is the reference for overrides.  A scheme that
        declares ``deterministic_query`` is drawn twice, must give the same
        statistic both times, and that statistic is counted ``samples`` times.
        """
        tally = _empty_tally(n_servers, space.T)
        if self.deterministic_query:
            first = self.query_statistics(space, n_servers, request, rng)
            if self.query_statistics(space, n_servers, request, rng) != first:
                raise RuntimeError(
                    f"{self.name} declares deterministic queries but two draws differ"
                )
            draws, weight = [first], samples
        else:
            draws = (
                self.query_statistics(space, n_servers, request, rng)
                for _ in range(samples)
            )
            weight = 1
        for stats in draws:
            for n, (structure_key, file_keys) in enumerate(stats):
                tally[("structure", n)][structure_key] += weight
                for f in range(space.T):
                    tally[("indexes", n, f)][file_keys[f]] += weight
        return tally


def _empty_tally(n_servers: int, T: int) -> dict:
    channels = [("structure", n) for n in range(n_servers)]
    channels += [("indexes", n, f) for n in range(n_servers) for f in range(T)]
    return {ch: Counter() for ch in channels}


def _server_statistic(server_query, T: int):
    structure = []
    index_sets = {f: [] for f in range(T)}
    for block in server_query:
        supports = tuple(sorted(tuple(f for f, _ in terms) for terms in block))
        structure.append(supports)
        per_file = {}
        for terms in block:
            for f, i in terms:
                per_file.setdefault(f, []).append(i)
        for f in range(T):
            index_sets[f].append(tuple(sorted(per_file.get(f, ()))))
    structure_key = tuple(sorted(structure))
    file_keys = {f: tuple(sorted(index_sets[f])) for f in range(T)}
    return structure_key, file_keys


# --- baseline scheme ----------------------------------------------------------


class FullDownloadScheme(RetrievalScheme):
    """Server 1 ships every symbol; the other servers get empty queries.

    The query is a constant, so privacy is immediate, and with N = 1 the
    download T*nu meets the converse exactly.
    """

    name = "full_download"
    deterministic_query = True

    def supports(self, space, n_servers) -> bool:
        return n_servers >= 1

    def query(self, space, n_servers, request, rng=None) -> QueryPlan:
        self.check_supports(space, n_servers)
        everything = tuple(
            ((f, i),) for f in range(space.T) for i in range(space.nu)
        )
        queries = [(everything,)] + [((),)] * (n_servers - 1)
        return QueryPlan(server_queries=queries, state=tuple(request))

    def decode(self, space, plan, answers) -> np.ndarray:
        table = np.array(answers[0][0], dtype=np.int64).reshape(space.T, space.nu)
        return table[list(plan.state)]


class LeakyIndexScheme(RetrievalScheme):
    """Negative control: asks server 1 for the requested files by name.

    Minimal download, zero privacy; exists so audits have something to
    catch.
    """

    name = "leaky_index"
    deterministic_query = True

    def supports(self, space, n_servers) -> bool:
        return n_servers >= 1

    def query(self, space, n_servers, request, rng=None) -> QueryPlan:
        self.check_supports(space, n_servers)
        block = tuple(((f, i),) for f in request for i in range(space.nu))
        queries = [(block,)] + [((),)] * (n_servers - 1)
        return QueryPlan(server_queries=queries, state=tuple(request))

    def decode(self, space, plan, answers) -> np.ndarray:
        vals = np.array(answers[0][0], dtype=np.int64)
        return vals.reshape(len(plan.state), space.nu)


# --- subpacketized side-information scheme -------------------------------------


@dataclass(frozen=True)
class _RunStructure:
    """Symbolic single-run query layout for desired file 0 of T files.

    Sums reference (file, slot) with slot a per-file fresh counter; actual
    symbol indices come from per-run private permutations.  ``recover``
    lists how each desired slot is decoded, referencing original sum
    positions.  ``produced``/``consumed`` record the side-information
    bookkeeping per round for verification.
    """

    T: int
    N: int
    sums: tuple
    recover: tuple
    used: tuple
    produced: tuple
    consumed: tuple


@lru_cache(maxsize=None)
def _pir_run_structure(T: int, N: int) -> _RunStructure:
    counters = [0] * T

    def fresh(f: int) -> int:
        counters[f] += 1
        return counters[f] - 1

    sums = [[] for _ in range(N)]
    recover = []
    side_prev = [[] for _ in range(N)]
    produced = [[0] * (T + 1) for _ in range(N)]
    consumed = [[0] * (T + 1) for _ in range(N)]

    # round 1: one fresh symbol of every file at every server
    for n in range(N):
        slot = fresh(0)
        recover.append(("direct", n, len(sums[n]), slot))
        sums[n].append(((0, slot),))
        cur = []
        for k in range(1, T):
            cur.append(len(sums[n]))
            sums[n].append(((k, fresh(k)),))
        side_prev[n] = cur
        produced[n][1] = len(cur)

    # round t: pair a fresh desired symbol with every (t-1)-sum of
    # undesired files downloaded elsewhere, and add fresh undesired t-sums
    for t in range(2, T + 1):
        side_next = [[] for _ in range(N)]
        for n in range(N):
            for n2 in range(N):
                if n2 == n:
                    continue
                for pos2 in side_prev[n2]:
                    slot = fresh(0)
                    terms = ((0, slot),) + sums[n2][pos2]
                    recover.append(("diff", n, len(sums[n]), slot, n2, pos2))
                    sums[n].append(terms)
                    consumed[n2][t - 1] += 1
            for files in itertools.combinations(range(1, T), t):
                for _rep in range((N - 1) ** (t - 1)):
                    terms = tuple((k, fresh(k)) for k in files)
                    side_next[n].append(len(sums[n]))
                    sums[n].append(terms)
            produced[n][t] = len(side_next[n])
        side_prev = side_next

    assert counters[0] == N**T, "desired-symbol pool must be exactly exhausted"
    return _RunStructure(
        T=T,
        N=N,
        sums=tuple(tuple(s) for s in sums),
        recover=tuple(recover),
        used=tuple(counters),
        produced=tuple(tuple(p) for p in produced),
        consumed=tuple(tuple(c) for c in consumed),
    )


def per_server_download(T: int, N: int) -> int:
    """Symbols each server ships per run: sum_t C(T,t) (N-1)**(t-1)."""
    return sum(comb(T, t) * (N - 1) ** (t - 1) for t in range(1, T + 1))


@dataclass(frozen=True)
class _RunLayout:
    """One run of ``_pir_run_structure`` with desired file theta.

    ``sums[n]`` lists server n's sums in the order they are sent, each a
    tuple of (file, slot) terms in file order; a slot becomes a symbol
    index through the run's permutation of its file.  With the run's
    answers of all servers concatenated and a 0 appended as ``flat``, the
    desired file decodes as ``out[perm_theta[desired]] = (flat[read] -
    flat[side]) % q``.
    """

    sums: tuple
    desired: np.ndarray
    read: np.ndarray
    side: np.ndarray


@lru_cache(maxsize=None)
def _run_layout(T: int, N: int, theta: int) -> _RunLayout:
    struct = _pir_run_structure(T, N)
    # the structure retrieves file 0: relabel files 0 and theta
    swap = list(range(T))
    swap[0], swap[theta] = theta, 0
    sums, flat_at = [], {}  # flat_at[n, pos]: where structure sum pos of server n lands
    for n, server_sums in enumerate(struct.sums):
        real = [tuple(sorted((swap[f], slot) for f, slot in terms)) for terms in server_sums]
        # sorted by support, stable on structure order: the same sequence of
        # supports for every theta, whatever the run's permutations
        order = sorted(range(len(real)), key=lambda p: (len(real[p]), [f for f, _ in real[p]]))
        flat_at.update({(n, pos): len(flat_at) + sent for sent, pos in enumerate(order)})
        sums.append(tuple(real[pos] for pos in order))
    desired, read, side = [], [], []
    for kind, n, pos, slot, *other in struct.recover:
        desired.append(slot)
        read.append(flat_at[n, pos])
        # a "direct" symbol subtracts the appended 0
        side.append(flat_at[tuple(other)] if kind == "diff" else len(flat_at))
    arrays = [np.array(a, dtype=np.intp) for a in (desired, read, side)]
    for a in arrays:
        a.flags.writeable = False
    return _RunLayout(tuple(sums), *arrays)


class RepeatedPirScheme(RetrievalScheme):
    """P independent runs of the subpacketized single-message scheme.

    Each run privately retrieves all nu = N**T symbols of one requested
    file: round t asks every server for C(T-1,t-1)(N-1)**(t-1) t-sums
    containing the desired file (each reusing one undesired (t-1)-sum
    downloaded from another server as side information) and
    C(T-1,t)(N-1)**(t-1) fresh undesired t-sums.  Fresh symbol positions
    are drawn through an independent uniform permutation per file per run.

    Everything but the permutations is fixed by the desired file theta and
    cached once per (T, N, theta) by ``_run_layout``: the sums each server
    gets, as (file, slot) terms, and where the decoder reads each desired
    slot.  A server's sums are sent in order of file support, so the
    sequence of supports it sees is the same for every request, and within a
    run its slots of each file are distinct, so their indices are uniformly
    random whatever the request.
    """

    name = "repeated_pir"
    deterministic_query = False

    def supports(self, space, n_servers) -> bool:
        return n_servers >= 2 and space.nu == n_servers**space.T

    def query(self, space, n_servers, request, rng) -> QueryPlan:
        self.check_supports(space, n_servers)
        T, nu = space.T, space.nu
        server_blocks = [[] for _ in range(n_servers)]
        runs = []
        for theta in request:
            perms = [rng.permutation(nu) for _ in range(T)]
            index = [perm.tolist() for perm in perms]
            for blocks, sums in zip(server_blocks, _run_layout(T, n_servers, theta).sums):
                blocks.append(
                    tuple(tuple((f, index[f][slot]) for f, slot in terms) for terms in sums)
                )
            runs.append((theta, perms[theta]))
        queries = [tuple(blocks) for blocks in server_blocks]
        return QueryPlan(server_queries=queries, state=runs)

    def decode(self, space, plan, answers) -> np.ndarray:
        q = space.q
        out = np.full((len(plan.state), space.nu), -1, dtype=np.int64)
        for r, (theta, perm_theta) in enumerate(plan.state):
            layout = _run_layout(space.T, len(answers), theta)
            flat = np.array([v for server in answers for v in server[r]] + [0], dtype=np.int64)
            out[r, perm_theta[layout.desired]] = (flat[layout.read] - flat[layout.side]) % q
        if (out < 0).any():
            raise DecodeMismatchError("decoder left symbols unassigned")
        return out

    # the generic query()-based statistic is the reference; it is bound by
    # name here so tools that wrap scheme methods per class (such as
    # perfbench/tracing.py) find it on this class
    query_statistics = RetrievalScheme.query_statistics

    def tally_statistics(self, space, n_servers, request, rng, samples) -> dict:
        """Batched tally, count-identical to the base per-sample loop.

        The permutations ``query`` would draw are drawn a chunk of samples at
        a time by ``rng.permuted``, which consumes the generator exactly like
        the sequential ``rng.permutation(nu)`` calls.  Each (server, file)
        index set of a run is gathered through that file's slots in the run's
        cached layout and keyed by its packed membership bits (a
        ``V{ceil(nu/8)}`` scalar); the
        sorted P run keys, concatenated, are the multiset key, and the keys of
        a chunk are counted by sorting them.  Index-channel keys are
        therefore ``bytes``, not the index tuples of the base loop.
        The structure keys do not depend on the permutations, so each
        structure channel is one key counted ``samples`` times.
        """
        self.check_supports(space, n_servers)
        T, nu, P = space.T, space.nu, len(request)
        layouts = [_run_layout(T, n_servers, theta) for theta in request]
        tally = _empty_tally(n_servers, T)
        for n in range(n_servers):
            run_keys = (
                tuple(sorted(tuple(f for f, _ in terms) for terms in layout.sums[n]))
                for layout in layouts
            )
            tally[("structure", n)][tuple(sorted(run_keys))] = samples
        # slots[r][n][f]: the slots of file f in server n's sums of run r
        slots = []
        for layout in layouts:
            terms = [np.array([t for s in sums for t in s], dtype=np.intp) for sums in layout.sums]
            slots.append([[ft[ft[:, 0] == f, 1] for f in range(T)] for ft in terms])
        width = (nu + 7) // 8
        identity = np.arange(nu, dtype=np.min_scalar_type(nu - 1))
        chunk = max(1, _TALLY_BLOCK // (P * T * nu))
        for start in range(0, samples, chunk):
            S = min(chunk, samples - start)
            perms = rng.permuted(np.broadcast_to(identity, (S, P, T, nu)), axis=-1)
            for n in range(n_servers):
                for f in range(T):
                    member = np.zeros((S, P, nu), dtype=bool)
                    for r in range(P):
                        chosen = perms[:, r, f, slots[r][n][f]]
                        np.put_along_axis(member[:, r], chosen, True, axis=-1)
                    run_keys = np.packbits(member, axis=-1).view(f"V{width}")[..., 0]
                    keys = np.sort(run_keys, axis=1).view(np.uint8).reshape(S, -1)
                    # lexsort on the key bytes, not np.unique on void scalars,
                    # whose generic comparison sort is several times slower
                    keys = keys[np.lexsort(keys.T[::-1])]
                    differs = (keys[1:] != keys[:-1]).any(axis=1)
                    starts = np.flatnonzero(np.r_[True, differs])
                    counts = np.diff(np.r_[starts, S])
                    tally[("indexes", n, f)].update(
                        dict(zip(map(bytes, keys[starts]), counts.tolist()))
                    )
        return tally


SCHEMES = {
    "full_download": FullDownloadScheme,
    "repeated_pir": RepeatedPirScheme,
    "leaky_index": LeakyIndexScheme,
}


def make_scheme(name: str) -> RetrievalScheme:
    try:
        return SCHEMES[name]()
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}")


# --- running retrievals ---------------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


def run_retrieval(
    scheme: RetrievalScheme,
    space: VirtualFileSpace,
    n_servers: int,
    request,
    data: np.ndarray,
    seed=0,
) -> RetrievalTranscript:
    """Execute one retrieval and verify it decodes exactly.

    ``data`` is the replicated (T, nu) symbol array; ``request`` a set of
    distinct virtual-file indices.  Raises DecodeMismatchError when decoded
    symbols differ from the requested rows of ``data``.
    """
    request = tuple(sorted(request))
    if len(set(request)) != len(request):
        raise ValueError("request must not repeat virtual files")
    if not request or request[0] < 0 or request[-1] >= space.T:
        raise ValueError(f"request out of range for T={space.T}")
    data = np.asarray(data, dtype=np.int64)
    if data.shape != (space.T, space.nu):
        raise ValueError(f"data must be shaped ({space.T}, {space.nu})")
    rng = _as_rng(seed)
    plan = scheme.query(space, n_servers, request, rng)
    answers = [scheme.answer(space, sq, data) for sq in plan.server_queries]
    decoded = scheme.decode(space, plan, answers)
    expected = data[list(request)]
    if not np.array_equal(decoded, expected):
        raise DecodeMismatchError(
            f"{scheme.name} decoded wrong symbols for request {request}"
        )
    counts = tuple(sum(len(block) for block in sq) for sq in plan.server_queries)
    return RetrievalTranscript(
        scheme=scheme.name,
        space=space,
        n_servers=n_servers,
        request=request,
        seed=seed,
        queries=plan.server_queries,
        answers=answers,
        downloaded=sum(counts),
        per_server_counts=counts,
        decoded=decoded,
    )


def virtual_data_from_databases(databases) -> tuple[VirtualFileSpace, np.ndarray]:
    """Stack the inner-product tables of nu database instances into the
    (T, nu) virtual-file array."""
    if not databases:
        raise ValueError("need at least one database instance")
    first = databases[0]
    for db in databases:
        if db.q != first.q or db.K != first.K:
            raise ValueError("database instances must share q and K")
    tables = [compute_table(db).values for db in databases]
    data = np.stack(tables, axis=1)
    space = VirtualFileSpace(T=pair_count(first.K), q=first.q, nu=len(databases))
    return space, data


def retrieve_pairs(
    scheme: RetrievalScheme,
    pairs: PairSet,
    databases,
    n_servers: int,
    seed=0,
) -> RetrievalTranscript:
    """Retrieve the inner products of ``pairs`` across the given database
    instances (one virtual symbol per instance)."""
    space, data = virtual_data_from_databases(databases)
    request = pairs.ranks(databases[0].K)
    return run_retrieval(scheme, space, n_servers, request, data, seed)


def measure_rate(transcripts) -> float:
    """Average downloaded symbols per requested symbol: D / (P * nu)."""
    transcripts = list(transcripts)
    if not transcripts:
        raise ValueError("need at least one transcript")
    return float(np.mean([t.inverse_rate for t in transcripts]))


def rate_summary(transcripts, n_servers: int) -> dict:
    """Measured inverse rate next to the closed-form bracket for the same
    (T, P, N); the converse comparison is the 'no scheme beats it' check."""
    transcripts = list(transcripts)
    if not transcripts:
        raise ValueError("need at least one transcript")
    t0 = transcripts[0]
    T, P = t0.space.T, len(t0.request)
    bq = BoundQuery(T, P, n_servers)
    measured = measure_rate(transcripts)
    converse = inverse_rate_converse(bq)
    achievable = inverse_rate_achievable(bq)
    return {
        "scheme": t0.scheme,
        "T": T,
        "P": P,
        "N": n_servers,
        "nu": t0.space.nu,
        "runs": len(transcripts),
        "measured_inverse_rate": measured,
        "inv_rate_converse": converse,
        "inv_rate_achievable": achievable,
        "gap_to_converse": measured - converse,
        "beats_converse": measured < converse - 1e-9,
    }


# --- privacy auditing -----------------------------------------------------------


@dataclass
class PrivacyAuditReport:
    """Outcome of a privacy audit over every request set of size P.

    ``worst_test`` names the cause of the verdict as (channel, set1, set2,
    pvalue): the sampled test with the smallest p-value, or, for an exact
    audit that fails, the first server and request-set pair whose queries
    differ (pvalue None).  It is None for an exact audit that passes.
    """

    scheme: str
    mode: str
    n_servers: int
    T: int
    P: int
    nu: int
    passed: bool
    count_symmetric: bool
    max_tv_distance: float | None
    tests: list
    n_tests: int
    alpha: float
    threshold: float | None
    samples: int | None
    min_pvalue: float | None
    worst_test: dict | None


def audit_privacy(
    scheme: RetrievalScheme,
    space: VirtualFileSpace,
    n_servers: int,
    P: int,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
    alpha: float = 1e-3,
) -> PrivacyAuditReport:
    """Compare per-server query distributions across every request set.

    ``exact`` mode requires a scheme with deterministic queries and reports
    the worst total-variation distance between the (point-mass) query
    distributions, which must be zero.  ``sampled`` mode tallies the
    canonical per-server statistic of ``samples`` queries per request set
    (``RetrievalScheme.tally_statistics``), and runs
    pairwise two-sample chi-square tests per canonical channel; the audit
    fails when any p-value drops below alpha / n_tests (Bonferroni) or the
    per-server download counts differ across request sets.
    """
    if not 1 <= P <= space.T:
        raise ValueError(f"P must lie in [1, T={space.T}]")
    request_sets = list(itertools.combinations(range(space.T), P))

    if mode == "exact":
        return _audit_exact(scheme, space, n_servers, P, request_sets, alpha)
    if mode == "sampled":
        if samples is None or samples < MIN_AUDIT_SAMPLES:
            raise ValueError(f"sampled mode requires samples >= {MIN_AUDIT_SAMPLES}")
        return _audit_sampled(
            scheme, space, n_servers, P, request_sets, samples, seed, alpha
        )
    raise ValueError(f"unknown audit mode {mode!r}")


def _audit_exact(scheme, space, n_servers, P, request_sets, alpha):
    if not scheme.deterministic_query:
        raise ValueError(
            f"exact audit requires deterministic queries; {scheme.name} is randomized"
        )
    queries, counts = [], []
    for req in request_sets:
        plan = scheme.query(space, n_servers, req, np.random.default_rng(0))
        queries.append(tuple(plan.server_queries))
        counts.append(tuple(sum(len(b) for b in sq) for sq in plan.server_queries))
    # equality is transitive, so the first differing pair involves set 0
    differing = next(
        (
            {
                "channel": f"query/server{n}",
                "set1": list(request_sets[0]),
                "set2": list(req),
                "pvalue": None,
            }
            for req, qr in zip(request_sets[1:], queries[1:])
            for n in range(n_servers)
            if qr[n] != queries[0][n]
        ),
        None,
    )
    max_tv = 0.0 if differing is None else 1.0
    count_symmetric = all(c == counts[0] for c in counts)
    return PrivacyAuditReport(
        scheme=scheme.name,
        mode="exact",
        n_servers=n_servers,
        T=space.T,
        P=P,
        nu=space.nu,
        passed=(max_tv == 0.0 and count_symmetric),
        count_symmetric=count_symmetric,
        max_tv_distance=max_tv,
        tests=[],
        n_tests=0,
        alpha=alpha,
        threshold=None,
        samples=None,
        min_pvalue=None,
        worst_test=differing,
    )


def _audit_sampled(scheme, space, n_servers, P, request_sets, samples, seed, alpha):
    # per request set: one Counter per channel; channels are the structure
    # of each server's query plus each (server, file) index-usage pattern
    counters = {}
    for set_idx, req in enumerate(request_sets):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, set_idx]))
        counters[req] = scheme.tally_statistics(space, n_servers, req, rng, samples)
    counts_seen = {_expected_counts(scheme, space, n_servers, req) for req in request_sets}
    count_symmetric = len(counts_seen) == 1

    tests = []
    for ch in counters[request_sets[0]]:
        for r1, r2 in itertools.combinations(request_sets, 2):
            stat, dof, pvalue = _two_sample_chisquare(counters[r1][ch], counters[r2][ch])
            tests.append(
                {
                    "channel": _channel_label(ch),
                    "set1": list(r1),
                    "set2": list(r2),
                    "chi2": stat,
                    "dof": dof,
                    "pvalue": pvalue,
                }
            )
    n_tests = len(tests)
    threshold = alpha / max(n_tests, 1)
    worst = min(tests, key=lambda t: t["pvalue"], default=None)
    min_p = 1.0 if worst is None else worst["pvalue"]
    passed = count_symmetric and min_p >= threshold
    return PrivacyAuditReport(
        scheme=scheme.name,
        mode="sampled",
        n_servers=n_servers,
        T=space.T,
        P=P,
        nu=space.nu,
        passed=passed,
        count_symmetric=count_symmetric,
        max_tv_distance=None,
        tests=tests,
        n_tests=n_tests,
        alpha=alpha,
        threshold=threshold,
        samples=samples,
        min_pvalue=min_p,
        worst_test=None if worst is None else {
            k: worst[k] for k in ("channel", "set1", "set2", "pvalue")
        },
    )


def _expected_counts(scheme, space, n_servers, req):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[0]))
    plan = scheme.query(space, n_servers, req, rng)
    return tuple(sum(len(b) for b in sq) for sq in plan.server_queries)


def _channel_label(ch) -> str:
    if ch[0] == "structure":
        return f"structure/server{ch[1]}"
    return f"indexes/server{ch[1]}/file{ch[2]}"


def _two_sample_chisquare(c1: Counter, c2: Counter, min_bucket: int = 10):
    """Two-sample chi-square with equal sample sizes; categories whose
    combined count falls below ``min_bucket`` are pooled."""
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


__all__ = [
    "VirtualFileSpace",
    "PairSet",
    "QueryPlan",
    "RetrievalTranscript",
    "DecodeMismatchError",
    "UnsupportedParameters",
    "RetrievalScheme",
    "FullDownloadScheme",
    "LeakyIndexScheme",
    "RepeatedPirScheme",
    "SCHEMES",
    "make_scheme",
    "per_server_download",
    "run_retrieval",
    "virtual_data_from_databases",
    "retrieve_pairs",
    "measure_rate",
    "rate_summary",
    "audit_privacy",
    "PrivacyAuditReport",
]
