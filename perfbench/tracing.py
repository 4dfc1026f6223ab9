"""Span tracing of pipret's modules, installed from outside the library.

``Tracer.install`` replaces each traced entry point with a wrapper under
every name a caller looks it up by: the defining module, each pipret module
that imported it by name (``protocol.compute_table``, ``cli.random_database``,
``gram_ml.PairOrdering``, ...), and the scheme classes for their methods.
Each call records a span (id, name, start, end, parent span, operation id)
in memory; counts (downloaded symbols, answered terms, SVM iterations, ...)
are taken from the same calls' arguments and results.  ``uninstall``
restores the originals.

A span's parent is the innermost traced call open in the same thread; a
span opened in a pool thread with nothing open in that thread belongs to the
operation's root span.  A layer's self time is its span duration minus the
part of that interval its child spans cover, which handles children that ran
concurrently in the CLI's thread pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

OBJECT_PATH_LIMIT = 2**62  # fields.compute_table switches to object dtype here


# --- count extraction ----------------------------------------------------------


def answer_terms(server_query) -> int:
    """Field symbols a server adds up to answer one query."""
    return sum(len(terms) for block in server_query for terms in block)


def compute_table_counts(db) -> dict:
    return {"fields.compute_table.object_calls": int(db.L * (db.q - 1) ** 2 >= OBJECT_PATH_LIMIT)}


def retrieval_counts(data, request, transcript) -> dict:
    """Downloaded symbols, plus an independent decode check: the decoded
    block must equal the requested rows of the replicated data."""
    import numpy as np

    want = np.asarray(data, dtype=np.int64)[sorted(request)]
    mismatch = not np.array_equal(np.asarray(transcript.decoded), want)
    return {
        "protocol.downloaded_symbols": int(transcript.downloaded),
        "protocol.decode_mismatches": int(mismatch),
    }


def audit_counts(report) -> dict:
    """Tests run, and tests with at least one degree of freedom."""
    return {
        "protocol.audit.tests": int(report.n_tests),
        "protocol.audit.informative_tests": sum(1 for t in report.tests if t["dof"] >= 1),
    }


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _answer_extract(args, kwargs, result):
    return {"protocol.answer.terms": answer_terms(_arg(args, kwargs, 2, "server_query"))}


def _compute_table_extract(args, kwargs, result):
    return compute_table_counts(_arg(args, kwargs, 0, "db"))


def _retrieval_extract(args, kwargs, result):
    return retrieval_counts(
        _arg(args, kwargs, 4, "data"), _arg(args, kwargs, 3, "request"), result
    )


def _audit_extract(args, kwargs, result):
    return audit_counts(result)


def _evolve_extract(args, kwargs, result):
    return {"spectral.evolve.steps": int(_arg(args, kwargs, 1, "L_max"))}


def _svm_extract(args, kwargs, result):
    return {"gram_ml.svm_dual_train.iterations": int(result.iterations)}


# --- metrics -------------------------------------------------------------------

# (metric name, unit, how it is computed): ("self", span name) sums self time,
# ("count", key) sums a count, ("max", key) keeps a maximum
PER_LAYER = [
    ("protocol.query_statistics.s", "s/cycle", ("self", "protocol.query_statistics")),
    ("protocol.query_statistics.calls", "count/cycle", ("count", "protocol.query_statistics.calls")),
    ("protocol.audit_privacy.self_s", "s/cycle", ("self", "protocol.audit_privacy")),
    ("protocol.audit.tests", "count/cycle", ("count", "protocol.audit.tests")),
    ("protocol.audit.informative_ratio", "ratio", ("ratio", "protocol.audit.informative_tests", "protocol.audit.tests")),
    ("protocol.query.s", "s/cycle", ("self", "protocol.query")),
    ("protocol.answer.s", "s/cycle", ("self", "protocol.answer")),
    ("protocol.answer.terms", "count/cycle", ("count", "protocol.answer.terms")),
    ("protocol.decode.s", "s/cycle", ("self", "protocol.decode")),
    ("protocol.run_retrieval.self_s", "s/cycle", ("self", "protocol.run_retrieval")),
    ("protocol.downloaded_symbols", "count/cycle", ("count", "protocol.downloaded_symbols")),
    ("protocol.rate_summary.s", "s/cycle", ("self", "protocol.rate_summary")),
    ("fields.random_database.s", "s/cycle", ("self", "fields.random_database")),
    ("fields.compute_table.s", "s/cycle", ("self", "fields.compute_table")),
    ("fields.compute_table.calls", "count/cycle", ("count", "fields.compute_table.calls")),
    ("fields.compute_table.object_calls", "count/cycle", ("count", "fields.compute_table.object_calls")),
    ("fields.PairOrdering.s", "s/cycle", ("self", "fields.PairOrdering")),
    ("fields.pair_rank.calls", "count/cycle", ("count", "fields.pair_rank.calls")),
    ("bounds.inverse_rate_achievable.s", "s/cycle", ("self", "bounds.inverse_rate_achievable")),
    ("bounds.inverse_rate_achievable.calls", "count/cycle", ("count", "bounds.inverse_rate_achievable.calls")),
    ("bounds.achievable_rate_fraction.calls", "count/cycle", ("count", "bounds.achievable_rate_fraction.calls")),
    ("bounds.solve_root_coefficients.s", "s/cycle", ("self", "bounds.solve_root_coefficients")),
    ("bounds.solve_root_coefficients.calls", "count/cycle", ("count", "bounds.solve_root_coefficients.calls")),
    ("bounds.capacity_grid.self_s", "s/cycle", ("self", "bounds.capacity_grid")),
    ("spectral.delta_distribution.s", "s/cycle", ("self", "spectral.delta_distribution")),
    ("spectral.spectrum_via_characters.s", "s/cycle", ("self", "spectral.spectrum_via_characters")),
    ("spectral.is_irreducible.s", "s/cycle", ("self", "spectral.is_irreducible")),
    ("spectral.transition_dense.s", "s/cycle", ("self", "spectral.transition_dense")),
    ("spectral.evolve.exact_s", "s/cycle", ("self", "spectral.evolve.exact")),
    ("spectral.evolve.float_s", "s/cycle", ("self", "spectral.evolve.float")),
    ("spectral.evolve.steps", "count/cycle", ("count", "spectral.evolve.steps")),
    ("gram_ml.encode_dataset.s", "s/cycle", ("self", "gram_ml.encode_dataset")),
    ("gram_ml.private_gram.self_s", "s/cycle", ("self", "gram_ml.private_gram")),
    ("gram_ml.validate_gram.s", "s/cycle", ("self", "gram_ml.validate_gram")),
    ("gram_ml.validate_gram.calls", "count/cycle", ("count", "gram_ml.validate_gram.calls")),
    ("gram_ml.svm_dual_train.s", "s/cycle", ("self", "gram_ml.svm_dual_train")),
    ("gram_ml.svm_dual_train.iterations", "count/cycle", ("count", "gram_ml.svm_dual_train.iterations")),
    ("gram_ml.regression_fit.s", "s/cycle", ("self", "gram_ml.regression_fit")),
    ("gram_ml.pca_gram.s", "s/cycle", ("self", "gram_ml.pca_gram")),
    ("cli.dispatch.self_s", "s/cycle", ("self", "cli.dispatch")),
    ("cli.render_report.s", "s/cycle", ("self", "cli.render_report")),
    ("cli.pool_workers", "count", ("max", "cli.pool_workers")),
]

# counts that must repeat exactly for a fixed seed and source tree
EXACT_COUNTS = (
    "protocol.downloaded_symbols",
    "protocol.answer.terms",
    "protocol.query_statistics.calls",
    "protocol.audit.tests",
    "protocol.audit.informative_tests",
    "bounds.achievable_rate_fraction.calls",
    "spectral.evolve.steps",
    "gram_ml.svm_dual_train.iterations",
)


def self_times(spans) -> dict:
    """Total self time per span name.

    ``spans`` holds (id, name, start, end, parent, op) tuples.  A span's self
    time is its duration minus the measure of the union of its children's
    intervals clipped to it, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = Counter()
    for sid, name, start, end, _parent, _op in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += max(0.0, (end - start) - covered)
    return dict(totals)


def per_layer_metrics(selfs: dict, counts: dict, gauges: dict, cycles: int) -> dict:
    """Every PER_LAYER metric, per cycle of the workload mix."""
    out = {}
    for name, unit, (kind, *src) in PER_LAYER:
        if kind == "self":
            value = selfs.get(src[0], 0.0) / cycles
        elif kind == "count":
            value = counts.get(src[0], 0) / cycles
        elif kind == "ratio":
            den = counts.get(src[1], 0)
            value = counts.get(src[0], 0) / den if den else 0.0
        else:
            value = gauges.get(src[0], 0)
        out[name] = {"value": value, "unit": unit}
    return out


# --- the tracer ----------------------------------------------------------------


class Tracer:
    """Wraps pipret's entry points; spans and counts stay in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.gauges = {}
        self.op_id = -1
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._patches = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extract=None, span: bool = True):
        tracer = self
        main = threading.main_thread()

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer._lock:
                tracer.counts[name + ".calls"] += 1
            if not span:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            is_root = not stack and threading.current_thread() is main
            parent = stack[-1] if stack else (None if is_root else tracer._root)
            sid = next(tracer._ids)
            if is_root:
                tracer._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op_id))
            if extract is not None:
                found = extract(args, kwargs, result)
                with tracer._lock:
                    tracer.counts.update(found)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, modules, defining, attr, name, extract=None, span=True):
        """Wrap ``defining.attr`` under every module-level alias of it."""
        original = getattr(defining, attr)
        wrapper = self._wrap(name, original, extract, span)
        for mod in modules:
            for alias, obj in list(vars(mod).items()):
                if obj is original:
                    self._patch(mod, alias, wrapper)

    def install(self) -> None:
        from pipret import bounds, cli, fields, gram_ml, protocol, spectral

        mods = (cli, fields, bounds, spectral, protocol, gram_ml)
        everywhere = [
            (cli, "dispatch", "cli.dispatch", None, True),
            (cli, "render_report", "cli.render_report", None, True),
            (fields, "random_database", "fields.random_database", None, True),
            (fields, "compute_table", "fields.compute_table", _compute_table_extract, True),
            (fields, "PairOrdering", "fields.PairOrdering", None, True),
            (fields, "pair_rank", "fields.pair_rank", None, False),
            (bounds, "inverse_rate_achievable", "bounds.inverse_rate_achievable", None, True),
            (bounds, "achievable_rate_fraction", "bounds.achievable_rate_fraction", None, False),
            (bounds, "solve_root_coefficients", "bounds.solve_root_coefficients", None, True),
            (bounds, "capacity_grid", "bounds.capacity_grid", None, True),
            (spectral, "delta_distribution", "spectral.delta_distribution", None, True),
            (spectral, "spectrum_via_characters", "spectral.spectrum_via_characters", None, True),
            (spectral, "is_irreducible", "spectral.is_irreducible", None, True),
            (spectral, "transition_dense", "spectral.transition_dense", None, True),
            (spectral, "_evolve_exact", "spectral.evolve.exact", _evolve_extract, True),
            (spectral, "_evolve_float", "spectral.evolve.float", _evolve_extract, True),
            (protocol, "run_retrieval", "protocol.run_retrieval", _retrieval_extract, True),
            (protocol, "audit_privacy", "protocol.audit_privacy", _audit_extract, True),
            (protocol, "rate_summary", "protocol.rate_summary", None, True),
            (gram_ml, "encode_dataset", "gram_ml.encode_dataset", None, True),
            (gram_ml, "private_gram", "gram_ml.private_gram", None, True),
            (gram_ml, "validate_gram", "gram_ml.validate_gram", None, True),
            (gram_ml, "svm_dual_train", "gram_ml.svm_dual_train", _svm_extract, True),
            (gram_ml, "regression_fit", "gram_ml.regression_fit", None, True),
            (gram_ml, "pca_gram", "gram_ml.pca_gram", None, True),
        ]
        for defining, attr, name, extract, span in everywhere:
            self._patch_everywhere(mods, defining, attr, name, extract, span)

        # scheme methods, on the class that defines each one
        methods = [(protocol.RetrievalScheme, "answer", "protocol.answer", _answer_extract)]
        methods.append((protocol.RetrievalScheme, "query_statistics", "protocol.query_statistics", None))
        methods.append((protocol.RepeatedPirScheme, "query_statistics", "protocol.query_statistics", None))
        for cls in (protocol.FullDownloadScheme, protocol.LeakyIndexScheme, protocol.RepeatedPirScheme):
            methods.append((cls, "query", "protocol.query", None))
            methods.append((cls, "decode", "protocol.decode", None))
        for cls, attr, name, extract in methods:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], extract))

        # pool size: _pool_map looks ThreadPoolExecutor up in cli
        executor = cli.ThreadPoolExecutor
        tracer = self

        def traced_executor(*args, **kwargs):
            workers = kwargs.get("max_workers", args[0] if args else None) or 0
            if tracer.active:
                with tracer._lock:
                    tracer.gauges["cli.pool_workers"] = max(tracer.gauges.get("cli.pool_workers", 0), workers)
            return executor(*args, **kwargs)

        self._patch(cli, "ThreadPoolExecutor", traced_executor)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Stop recording for the duration (the output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write(self, path) -> None:
        """Spans as parallel arrays in a NumPy .npz file."""
        import numpy as np

        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            span_id=np.array([s[0] for s in self.spans], dtype=np.int64),
            name=np.array([index[s[1]] for s in self.spans], dtype=np.int32),
            start=np.array([s[2] for s in self.spans]),
            end=np.array([s[3] for s in self.spans]),
            parent=np.array([-1 if s[4] is None else s[4] for s in self.spans], dtype=np.int64),
            op=np.array([s[5] for s in self.spans], dtype=np.int64),
        )
