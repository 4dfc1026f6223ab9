"""Multi-server retrieval simulator with privacy auditing and rate accounting.

Messages here are *virtual files*: T retrievable units of nu symbols each
over F(q), replicated at every server.  When derived from a database, the
r-th virtual file holds the inner product of the r-th canonical pair in each
of the nu instances of a stacked ``Database`` (one table row per instance),
which gives each inner product a genuine message length so measured rates
are comparable to the closed-form bounds.

A scheme turns a request (sorted virtual-file indices, which
``run_retrieval`` passes as an integer array) into one query per server.  A
query is a tuple of ``SumBlock``s: read-only intp arrays
``files`` and ``indices`` naming the (file, symbol index) terms, and
``starts``, the offset of each sum's first term.  A server answers a block
with one gather and a segmented sum mod q.  Iterating a block yields each
sum as a tuple of (file, index) terms, the view the privacy audit reads.
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

The module needs numpy alone.  The sampled audit's chi-square p-value is
``scipy.special.chdtrc``, the function ``scipy.stats.chi2.sf`` calls, and
scipy.special is imported there, at its one point of use.
"""

from __future__ import annotations

import abc
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .bounds import BoundQuery, inverse_rate_achievable, inverse_rate_converse
from .fields import (
    _INT64_MAX,
    Database,
    PairIndex,
    _check_prime_modulus,
    compute_table,
    pair_count,
    pair_rank,
)

MIN_AUDIT_SAMPLES = 10_000
# family-wise significance of a sampled audit, split over its tests (Bonferroni)
AUDIT_ALPHA = 1e-3
# permutation entries (samples * P * T * nu) held per chunk of a batched
# tally, in the smallest dtype that holds nu - 1 (1 MiB at nu <= 256), or
# one sample's P * T * nu entries where that is more
_TALLY_BLOCK = 1 << 20
# entries per rng.permuted call, drawn as intp for numpy's 8-byte shuffle
# path and narrowed into the chunk: a 256 KiB buffer, not an intp chunk
# (again one sample's entries where that is more)
_DRAW_BLOCK = 1 << 15


@dataclass(frozen=True)
class VirtualFileSpace:
    """T virtual files of nu symbols each over F(q), q a prime below 2**61."""

    T: int
    q: int
    nu: int

    def __post_init__(self):
        if self.T < 1 or self.nu < 1:
            raise ValueError("T and nu must be >= 1")
        object.__setattr__(self, "q", _check_prime_modulus(self.q))


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


@dataclass(frozen=True, eq=False)
class SumBlock:
    """Sums a server adds up mod q, as read-only intp arrays.

    Sum s adds the symbols ``data[files[k], indices[k]]`` for k from
    ``starts[s]`` up to the next start (or the end); every sum has at least
    one term.  ``len`` counts the sums, iteration yields each sum as a tuple
    of (file, index) terms, and equality compares the arrays.
    """

    files: np.ndarray
    indices: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        arrays = [np.array(a, dtype=np.intp) for a in (self.files, self.indices, self.starts)]
        files, indices, starts = arrays
        if any(a.ndim != 1 for a in arrays) or len(files) != len(indices):
            raise ValueError("files and indices must be 1-D arrays of one length")
        if len(starts):
            valid = starts[0] == 0 and starts[-1] < len(files) and (starts[1:] > starts[:-1]).all()
        else:
            valid = not len(files)
        if not valid:
            raise ValueError("starts must rise from 0 and give every sum a term")
        for name, a in zip(("files", "indices", "starts"), arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self):
        return len(self.starts)

    def __iter__(self):
        files, indices = self.files.tolist(), self.indices.tolist()
        bounds = self.starts.tolist() + [len(files)]
        for lo, hi in zip(bounds, bounds[1:]):
            yield tuple(zip(files[lo:hi], indices[lo:hi]))

    def __eq__(self, other):
        if not isinstance(other, SumBlock):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("files", "indices", "starts")
        )


_NO_SUMS = SumBlock((), (), ())


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
    queries are blocks of explicit sums."""

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
        """Each block's sums mod q, one int64 array per block, from the
        replicated (T, nu) symbols in [0, q).

        One gather and one segmented sum per block.  The sum runs in int64
        while its longest sum cannot pass 2**63 - 1, and in Python integers
        beyond that (long sums with q near 2**61)."""
        q = space.q
        out = []
        for block in server_query:
            values = np.asarray(data[block.files, block.indices], dtype=np.int64)
            if not len(block):
                out.append(values)
                continue
            # the longest sum is looked for only where all the terms together could wrap
            if (q - 1) * len(values) > _INT64_MAX:
                longest = int(np.diff(block.starts, append=len(values)).max())
                if (q - 1) * longest > _INT64_MAX:
                    values = values.astype(object)
            out.append((np.add.reduceat(values, block.starts) % q).astype(np.int64))
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

        A channel's tally is a ``(keys, counts)`` pair of arrays: the
        distinct statistics in ascending order, here the tuple keys of
        ``query_statistics`` in a 1-D object array, and their int64 counts.
        This per-sample loop is the reference for overrides.  A scheme that
        declares ``deterministic_query`` is drawn twice, must give the same
        statistic both times, and that statistic is counted ``samples`` times.
        """
        tally = _empty_tally(n_servers, space.T)
        if self.deterministic_query:
            first = self.query_statistics(space, n_servers, request, rng)
            _check_same_draws(self, first, self.query_statistics(space, n_servers, request, rng))
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
        return {ch: _counter_arrays(counter) for ch, counter in tally.items()}


def _check_same_draws(scheme: RetrievalScheme, first, second) -> None:
    """Two draws of a scheme that declares deterministic queries must agree."""
    if first != second:
        raise RuntimeError(f"{scheme.name} declares deterministic queries but two draws differ")


def _empty_tally(n_servers: int, T: int) -> dict:
    channels = [("structure", n) for n in range(n_servers)]
    channels += [("indexes", n, f) for n in range(n_servers) for f in range(T)]
    return {ch: Counter() for ch in channels}


def _counter_arrays(counter: Counter) -> tuple:
    """A ``Counter`` as a channel tally: its keys in ascending order in a
    1-D object array, and their int64 counts."""
    items = sorted(counter.items())
    keys = np.fromiter((k for k, _ in items), dtype=object, count=len(items))
    return keys, np.fromiter((c for _, c in items), dtype=np.int64, count=len(items))


def _count_keys(keys: np.ndarray, weights: np.ndarray) -> tuple:
    """The distinct keys in ascending order and the summed ``weights`` of
    each (summed along the first axis).

    Keys are the entries of a 1-D array or the rows of a 2-D one, rows
    compared column by column from the first.
    """
    rows = keys[:, None] if keys.ndim == 1 else keys
    # least significant column first, then stable sorts on the more
    # significant ones; equal rows may land in any order
    order = np.argsort(rows[:, -1])
    for column in rows.T[-2::-1]:
        order = order[np.argsort(column[order], kind="stable")]
    rows = np.take(rows, order, axis=0)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return keys[order[starts]], np.add.reduceat(weights[order], starts, axis=0)


def _rows_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each row of ``a`` sorts before the same row of ``b``,
    comparing the columns from the first."""
    less = np.zeros(len(a), dtype=bool)
    equal = np.ones(len(a), dtype=bool)
    for x, y in zip(a.T, b.T):
        less |= equal & (x < y)
        equal &= x == y
    return less


def _sort_rows(arrays: list) -> list:
    """Row by row, the rows of equally shaped 2-D arrays in ascending order:
    the i-th array returned holds each row's i-th smallest, by an odd-even
    transposition sort (the arrays are few: one per requested file)."""
    arrays = list(arrays)
    for phase in range(len(arrays)):
        for i in range(phase % 2, len(arrays) - 1, 2):
            a, b = arrays[i], arrays[i + 1]
            swap = _rows_less(b, a)[:, None]
            arrays[i], arrays[i + 1] = np.where(swap, b, a), np.where(swap, a, b)
    return arrays


def _structure_key(blocks) -> tuple:
    """The audit's structure statistic: per block the sorted file supports
    of its sums, and the blocks in sorted order."""
    supports = (tuple(sorted(tuple(f for f, _ in terms) for terms in block)) for block in blocks)
    return tuple(sorted(supports))


def _server_statistic(server_query, T: int):
    index_sets = {f: [] for f in range(T)}
    for block in server_query:
        per_file = {}
        for terms in block:
            for f, i in terms:
                per_file.setdefault(f, []).append(i)
        for f in range(T):
            index_sets[f].append(tuple(sorted(per_file.get(f, ()))))
    file_keys = {f: tuple(sorted(index_sets[f])) for f in range(T)}
    return _structure_key(server_query), file_keys


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
        T, nu = space.T, space.nu
        everything = SumBlock(
            np.repeat(np.arange(T), nu), np.tile(np.arange(nu), T), np.arange(T * nu)
        )
        queries = [(everything,)] + [(_NO_SUMS,)] * (n_servers - 1)
        return QueryPlan(server_queries=queries, state=np.asarray(request))

    def decode(self, space, plan, answers) -> np.ndarray:
        return answers[0][0].reshape(space.T, space.nu)[plan.state]


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
        P, nu = len(request), space.nu
        block = SumBlock(np.repeat(request, nu), np.tile(np.arange(nu), P), np.arange(P * nu))
        queries = [(block,)] + [(_NO_SUMS,)] * (n_servers - 1)
        return QueryPlan(server_queries=queries, state=tuple(request))

    def decode(self, space, plan, answers) -> np.ndarray:
        return answers[0][0].reshape(len(plan.state), space.nu)


# --- subpacketized side-information scheme -------------------------------------


def per_server_download(T: int, N: int) -> int:
    """Symbols each server ships per run: sum_t C(T,t) (N-1)**(t-1)."""
    return sum(comb(T, t) * (N - 1) ** (t - 1) for t in range(1, T + 1))


@dataclass(frozen=True)
class _RunLayout:
    """One run of the single-message scheme with desired file theta.

    ``sums[n]`` is server n's ``SumBlock`` of sums in the order they are
    sent, terms in file order, whose ``indices`` are slots: a slot becomes a
    symbol index through the run's permutation of its file.  With the run's
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
    """The layout of one run retrieving file theta of T from N servers.

    Round 1 asks every server for one fresh symbol of each file.  Round t
    pairs a fresh desired symbol with each undesired (t-1)-sum another server
    got in round t-1, and adds (N-1)**(t-1) fresh sums of each t undesired files.

    Each file's slots count up from 0 in the order they are drawn.
    """
    # the undesired files in the order 1..T-1 with 0 in theta's place: the
    # run for theta is the run for file 0 with files 0 and theta swapped,
    # slot for slot and in the tie order of the support sort
    others = [0 if k == theta else k for k in range(1, T)]
    used = [0] * T

    def fresh(f: int) -> tuple:
        used[f] += 1
        return f, used[f] - 1

    sums = [[] for _ in range(N)]
    reads = []  # (server, position, slot, side information (server, position) or None)
    side_prev = []
    for t in range(1, T + 1):
        side_next = [[] for _ in range(N)]
        for n in range(N):
            sides = [None] if t == 1 else [
                (n2, pos2) for n2 in range(N) if n2 != n for pos2 in side_prev[n2]
            ]
            for other in sides:
                term = fresh(theta)
                reads.append((n, len(sums[n]), term[1], other))
                known = () if other is None else sums[other[0]][other[1]]
                sums[n].append(tuple(sorted((term,) + known)))
            for files in itertools.combinations(others, t):
                for _rep in range((N - 1) ** (t - 1)):
                    side_next[n].append(len(sums[n]))
                    sums[n].append(tuple(sorted(fresh(k) for k in files)))
        side_prev = side_next
    assert used[theta] == N**T, "desired-symbol pool must be exactly exhausted"

    blocks, flat_at = [], {}  # flat_at[n, pos]: where sum pos of server n lands
    for n, own in enumerate(sums):
        # sorted by support, stable on build order: the same sequence of
        # supports for every theta, whatever the run's permutations
        order = sorted(range(len(own)), key=lambda p: (len(own[p]), [f for f, _ in own[p]]))
        flat_at.update({(n, pos): len(flat_at) + sent for sent, pos in enumerate(order)})
        in_order = [own[pos] for pos in order]
        terms = [t for s in in_order for t in s]
        starts = np.cumsum([0] + [len(s) for s in in_order[:-1]])
        blocks.append(SumBlock([f for f, _ in terms], [slot for _, slot in terms], starts))
    # a symbol read without side information subtracts the appended 0
    desired = [slot for _, _, slot, _ in reads]
    read = [flat_at[n, pos] for n, pos, _, _ in reads]
    side = [len(flat_at) if other is None else flat_at[other] for _, _, _, other in reads]
    arrays = [np.array(a, dtype=np.intp) for a in (desired, read, side)]
    for a in arrays:
        a.flags.writeable = False
    return _RunLayout(tuple(blocks), *arrays)


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
        # consumes the generator exactly like P*T sequential rng.permutation(nu) calls
        all_perms = rng.permuted(np.broadcast_to(np.arange(nu), (len(request), T, nu)), axis=-1)
        server_blocks = [[] for _ in range(n_servers)]
        runs = []
        for theta, perms in zip(request, all_perms):
            for blocks, sums in zip(server_blocks, _run_layout(T, n_servers, theta).sums):
                blocks.append(SumBlock(sums.files, perms[sums.files, sums.indices], sums.starts))
            runs.append((theta, perms[theta]))
        queries = [tuple(blocks) for blocks in server_blocks]
        return QueryPlan(server_queries=queries, state=runs)

    def decode(self, space, plan, answers) -> np.ndarray:
        q = space.q
        out = np.full((len(plan.state), space.nu), -1, dtype=np.int64)
        for r, (theta, perm_theta) in enumerate(plan.state):
            layout = _run_layout(space.T, len(answers), theta)
            flat = np.concatenate([server[r] for server in answers] + [[0]])
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
        the sequential ``rng.permutation(nu)`` calls.  ``permuted`` shuffles
        8-byte items on a path about twice as fast as narrower ones, with the
        same permutations and the same generator state, so a chunk is drawn
        in intp sub-blocks of ``_DRAW_BLOCK`` entries into one reused buffer
        and narrowed into the chunk's array of the smallest dtype that holds
        nu - 1.  A chunk holds whole samples, at least one, so its bytes are
        bounded by max(``_TALLY_BLOCK``, P*T*nu) entries of that dtype plus
        max(``_DRAW_BLOCK``, P*T*nu) intp entries.  Each (server, file)
        index set of a run is gathered through that file's slots in the run's
        cached layout.  An index channel's key packs the sample's P run
        sets: each set is a mask with index j at bit 8w-1-j of a w =
        ceil(nu/8) byte field (the bit order of ``np.packbits``), the P
        masks are sorted as integers, and their fields, concatenated and
        zero-padded, form a row of ceil(P*w/8) uint64 words, most
        significant first.  Rows therefore sort like the concatenated packed
        bytes of the sorted runs.  Each chunk's keys are counted on their
        own, and only the distinct ones are merged into the channel's sorted
        (keys, counts) arrays, so memory follows the chunk and the distinct
        keys, not ``samples``.  The structure keys do not depend on the
        permutations, so each structure channel is one tuple key counted
        ``samples`` times.

        A subclass that overrides ``query`` is tallied by the base loop,
        which calls its ``query``.  The name is looked up per call, so a
        wrapper set on this class itself still takes the batch.
        """
        if type(self).query is not RepeatedPirScheme.query:
            return super().tally_statistics(space, n_servers, request, rng, samples)
        self.check_supports(space, n_servers)
        T, nu, P = space.T, space.nu, len(request)
        layouts = [_run_layout(T, n_servers, theta) for theta in request]
        tally = {}
        for n in range(n_servers):
            structure_key = _structure_key(layout.sums[n] for layout in layouts)
            tally[("structure", n)] = _counter_arrays(Counter({structure_key: samples}))
        # slots[r][n][f]: the slots of file f in server n's sums of run r
        slots = [
            [[sums.indices[sums.files == f] for f in range(T)] for sums in layout.sums]
            for layout in layouts
        ]
        # row j: index j's bit in a run mask, bit 63 - j % 64 of word j // 64,
        # so a mask's big-endian bytes begin with its np.packbits bytes
        j = np.arange(nu)
        bit = np.zeros((nu, -(-nu // 64)), dtype=np.uint64)
        bit[j, j // 64] = np.uint64(1) << (63 - j % 64).astype(np.uint64)
        width = -(-nu // 8)
        key_bytes = 8 * -(-P * width // 8)
        for n in range(n_servers):
            for f in range(T):
                tally[("indexes", n, f)] = (
                    np.zeros((0, key_bytes // 8), dtype=np.uint64),
                    np.zeros(0, dtype=np.int64),
                )
        chunk = max(1, _TALLY_BLOCK // (P * T * nu))
        perms = np.empty((min(chunk, samples), P, T, nu), dtype=np.min_scalar_type(nu - 1))
        draw = np.empty((max(1, _DRAW_BLOCK // (P * T * nu)), P, T, nu), dtype=np.intp)
        identity = np.broadcast_to(np.arange(nu), draw.shape)
        for start in range(0, samples, chunk):
            S = min(chunk, samples - start)
            for lo in range(0, S, len(draw)):
                m = min(len(draw), S - lo)
                perms[lo : lo + m] = rng.permuted(identity[:m], axis=-1, out=draw[:m])
            for n in range(n_servers):
                for f in range(T):
                    # a run's indices are distinct, so summing their bits sets them
                    masks = []
                    for r in range(P):
                        chosen = perms[:S, r, f, slots[r][n][f]]
                        masks.append(sum(np.take(bit, column, axis=0) for column in chosen.T))
                    joined = np.zeros((S, key_bytes), dtype=np.uint8)
                    for place, mask in enumerate(_sort_rows(masks)):
                        packed = mask.astype(">u8").view(np.uint8)[:, :width]
                        joined[:, place * width : (place + 1) * width] = packed
                    keys = joined.view(">u8").astype(np.uint64)
                    # np.unique sorts one-word keys in place: on the audit's
                    # keys (T = 3, N = 2, P <= 2) it counts a chunk in under
                    # half the time of the argsort and gather of _count_keys
                    if keys.shape[1] == 1:
                        distinct, found = np.unique(keys[:, 0], return_counts=True)
                        distinct, found = distinct[:, None], found.astype(np.int64)
                    else:
                        distinct, found = _count_keys(keys, np.ones(S, dtype=np.int64))
                    seen, counts = tally[("indexes", n, f)]
                    tally[("indexes", n, f)] = _count_keys(
                        np.concatenate([seen, distinct]), np.concatenate([counts, found])
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


def _server_downloads(plan: QueryPlan) -> tuple:
    """Symbols each server ships for a plan: the sums in its blocks."""
    return tuple(sum(len(block) for block in sq) for sq in plan.server_queries)


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
    # one array validates, queries and gathers; Python-level set and list
    # conversions of a full Gram request (T = 20100) cost milliseconds
    rows = np.asarray(request)
    if (rows[1:] == rows[:-1]).any():
        raise ValueError("request must not repeat virtual files")
    if not request or request[0] < 0 or request[-1] >= space.T:
        raise ValueError(f"request out of range for T={space.T}")
    data = np.asarray(data, dtype=np.int64)
    if data.shape != (space.T, space.nu):
        raise ValueError(f"data must be shaped ({space.T}, {space.nu})")
    rng = _as_rng(seed)
    plan = scheme.query(space, n_servers, rows, rng)
    answers = [scheme.answer(space, sq, data) for sq in plan.server_queries]
    decoded = scheme.decode(space, plan, answers)
    expected = data[rows]
    if not np.array_equal(decoded, expected):
        raise DecodeMismatchError(
            f"{scheme.name} decoded wrong symbols for request {request}"
        )
    counts = _server_downloads(plan)
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


def virtual_data_from_databases(db: Database) -> tuple[VirtualFileSpace, np.ndarray]:
    """The (T, nu) virtual-file array of a database: column n is the
    inner-product table of instance n of a stacked (nu, K, L) database, and
    a single (K, L) database gives the one column of its table."""
    T = pair_count(db.K)
    data = compute_table(db).reshape(-1, T).T
    return VirtualFileSpace(T=T, q=db.q, nu=data.shape[1]), data


def retrieve_pairs(
    scheme: RetrievalScheme,
    pairs: PairSet,
    db: Database,
    n_servers: int,
    seed=0,
) -> RetrievalTranscript:
    """Retrieve the inner products of ``pairs`` across the instances of a
    (possibly stacked) database, one virtual symbol per instance."""
    space, data = virtual_data_from_databases(db)
    return run_retrieval(scheme, space, n_servers, pairs.ranks(db.K), data, seed)


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
    converse = float(inverse_rate_converse(bq))
    achievable = float(inverse_rate_achievable(bq))
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
) -> PrivacyAuditReport:
    """Compare per-server query distributions across every request set.

    ``exact`` mode requires a scheme with deterministic queries, draws each
    request set's queries with two generators (``RuntimeError`` if they
    differ), and reports the worst total-variation distance between the
    (point-mass) query distributions, which must be zero.  ``sampled`` mode
    tallies the canonical per-server statistic of ``samples`` queries per
    request set (``RetrievalScheme.tally_statistics``: per channel, the
    distinct statistics as a sorted key array and their int64 counts), and
    runs pairwise two-sample chi-square tests per canonical channel on those
    arrays; the audit fails when any p-value drops below AUDIT_ALPHA / n_tests
    (Bonferroni) or the per-server download counts differ across request
    sets.
    """
    if not 1 <= P <= space.T:
        raise ValueError(f"P must lie in [1, T={space.T}]")
    request_sets = list(itertools.combinations(range(space.T), P))

    if mode == "exact":
        if samples is not None:
            raise ValueError("samples applies to sampled mode only")
        return _audit_exact(scheme, space, n_servers, P, request_sets)
    if mode == "sampled":
        if samples is None or samples < MIN_AUDIT_SAMPLES:
            raise ValueError(f"sampled mode requires samples >= {MIN_AUDIT_SAMPLES}")
        return _audit_sampled(scheme, space, n_servers, P, request_sets, samples, seed)
    raise ValueError(f"unknown audit mode {mode!r}")


def _audit_exact(scheme, space, n_servers, P, request_sets):
    if not scheme.deterministic_query:
        raise ValueError(
            f"exact audit requires deterministic queries; {scheme.name} is randomized"
        )
    queries, counts = [], []
    for req in request_sets:
        plan = scheme.query(space, n_servers, req, np.random.default_rng(0))
        again = scheme.query(space, n_servers, req, np.random.default_rng(1))
        _check_same_draws(scheme, plan.server_queries, again.server_queries)
        queries.append(tuple(plan.server_queries))
        counts.append(_server_downloads(plan))
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
        alpha=AUDIT_ALPHA,
        threshold=None,
        samples=None,
        min_pvalue=None,
        worst_test=differing,
    )


def _audit_sampled(scheme, space, n_servers, P, request_sets, samples, seed):
    # per request set: one (keys, counts) tally per channel; channels are the
    # structure of each server's query plus each (server, file) index-usage
    # pattern
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
    threshold = AUDIT_ALPHA / max(n_tests, 1)
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
        alpha=AUDIT_ALPHA,
        threshold=threshold,
        samples=samples,
        min_pvalue=min_p,
        worst_test=None if worst is None else {
            k: worst[k] for k in ("channel", "set1", "set2", "pvalue")
        },
    )


def _expected_counts(scheme, space, n_servers, req):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[0]))
    return _server_downloads(scheme.query(space, n_servers, req, rng))


def _channel_label(ch) -> str:
    if ch[0] == "structure":
        return f"structure/server{ch[1]}"
    return f"indexes/server{ch[1]}/file{ch[2]}"


def _two_sample_chisquare(tally1: tuple, tally2: tuple, min_bucket: int = 10):
    """Two-sample chi-square with equal sample sizes between two channel
    tallies, each a sorted (keys, counts) pair; categories whose combined
    count falls below ``min_bucket`` are pooled."""
    (keys1, counts1), (keys2, counts2) = tally1, tally2
    sides = np.zeros((len(keys1) + len(keys2), 2), dtype=np.int64)
    sides[: len(keys1), 0] = counts1
    sides[len(keys1) :, 1] = counts2
    _, sides = _count_keys(np.concatenate([keys1, keys2]), sides)
    # by (-combined count, key): a total order, so the summation order
    # never depends on hashing
    a, b = sides[np.argsort(-sides.sum(axis=1), kind="stable")].T
    kept = a + b >= min_bucket
    rest_a, rest_b = a[~kept].sum(), b[~kept].sum()
    a, b = a[kept], b[kept]
    if rest_a + rest_b > 0:
        a, b = np.append(a, rest_a), np.append(b, rest_b)
    a = a.astype(float)
    b = b.astype(float)
    if len(a) <= 1:
        return 0.0, 0, 1.0
    with np.errstate(invalid="ignore"):
        terms = (a - b) ** 2 / (a + b)
    stat = float(np.nansum(terms))
    dof = len(a) - 1
    from scipy.special import chdtrc  # the kernel of scipy.stats.chi2.sf

    pvalue = float(chdtrc(dof, stat))
    return stat, dof, pvalue


__all__ = [
    "VirtualFileSpace",
    "PairSet",
    "SumBlock",
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
