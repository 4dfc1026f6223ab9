"""Tests of the benchmark's own helpers, and of its output checks on a seed
that was not used while the benchmark was built."""

import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import mix  # noqa: E402
import tracing  # noqa: E402
from pipret import cli, fields, gram_ml, protocol  # noqa: E402

HELD_OUT_SEED = 918273


# --- tail percentile ---------------------------------------------------------------


def test_tail_has_ten_operations_beyond_it():
    lat = list(range(100))[::-1]
    t = measure.tail(lat)
    assert (t["value"], t["beyond"], t["ops"]) == (89, 10, 100)
    assert t["percentile"] == pytest.approx(90.0)


def test_tail_at_eleven_operations_is_the_smallest():
    t = measure.tail([5.0] + [9.0] * 10)
    assert (t["value"], t["beyond"]) == (5.0, 10)


def test_tail_with_ten_or_fewer_operations_is_the_maximum():
    t = measure.tail([3.0, 1.0, 2.0])
    assert (t["value"], t["beyond"], t["percentile"]) == (3.0, 0, 100.0)


def test_tail_rejects_no_operations():
    with pytest.raises(ValueError):
        measure.tail([])


# --- self time -------------------------------------------------------------------


def test_self_time_subtracts_nested_and_overlapping_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 3.0, 0, 0),   # overlaps b: both ran in pool threads
        (2, "b", 2.0, 5.0, 0, 0),
        (3, "c", 1.5, 2.0, 1, 0),   # grandchild: only a loses it
        (4, "d", 9.0, 12.0, 0, 0),  # clipped to the root's end
        (5, "a", 20.0, 21.0, None, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["a"] == pytest.approx(1.5 + 1.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["c"] == pytest.approx(0.5)
    assert selfs["d"] == pytest.approx(3.0)


def test_per_layer_metrics_normalise_per_cycle_and_report_every_metric():
    out = tracing.per_layer_metrics(
        {"protocol.query": 4.0},
        {"protocol.answer.terms": 10, "protocol.audit.tests": 8, "protocol.audit.informative_tests": 6},
        {"cli.pool_workers": 2},
        cycles=2,
    )
    assert set(out) == {name for name, _, _ in tracing.PER_LAYER}
    assert out["protocol.query.s"]["value"] == 2.0
    assert out["protocol.answer.terms"]["value"] == 5.0
    assert out["protocol.audit.informative_ratio"]["value"] == 0.75
    assert out["cli.pool_workers"]["value"] == 2
    assert out["gram_ml.pca_gram.s"]["value"] == 0.0


# --- count extraction --------------------------------------------------------------


def test_answer_terms_counts_every_summed_symbol():
    space = protocol.VirtualFileSpace(T=3, q=5, nu=8)
    plan = protocol.RepeatedPirScheme().query(space, 2, (1,), np.random.default_rng(0))
    # round t sends C(3,t) t-sums per server: 3*1 + 3*2 + 1*3 terms
    assert [tracing.answer_terms(sq) for sq in plan.server_queries] == [12, 12]


def test_compute_table_counts_flag_the_object_path():
    small = fields.Database(5, np.ones((2, 3), dtype=np.int64))
    big = fields.Database(10**9 + 7, np.ones((2, 12), dtype=np.int64))
    assert tracing.compute_table_counts(small)["fields.compute_table.object_calls"] == 0
    assert tracing.compute_table_counts(big)["fields.compute_table.object_calls"] == 1


def test_retrieval_counts_and_independent_decode_check():
    space = protocol.VirtualFileSpace(T=3, q=5, nu=8)
    data = np.arange(24).reshape(3, 8) % 5
    tr = protocol.run_retrieval(protocol.RepeatedPirScheme(), space, 2, (0, 2), data, seed=1)
    counts = tracing.retrieval_counts(data, (2, 0), tr)
    assert counts["protocol.downloaded_symbols"] == mix.expected_download("repeated_pir", 3, 2, 2, 8)
    assert counts["protocol.decode_mismatches"] == 0
    bad = namedtuple("Bad", "decoded downloaded")(tr.decoded + 1, tr.downloaded)
    assert tracing.retrieval_counts(data, (0, 2), bad)["protocol.decode_mismatches"] == 1


def test_audit_counts_informative_tests():
    report = namedtuple("Report", "n_tests tests")(3, [{"dof": 0}, {"dof": 1}, {"dof": 4}])
    assert tracing.audit_counts(report) == {
        "protocol.audit.tests": 3,
        "protocol.audit.informative_tests": 2,
    }


def test_expected_download_matches_the_library():
    for T, N in ((3, 2), (4, 3), (6, 2)):
        per_server = protocol.per_server_download(T, N)
        assert mix.expected_download("repeated_pir", T, N, 2, N**T) == 2 * N * per_server
    assert mix.expected_download("full_download", 6, 2, 3, 16) == 96


def test_tracer_records_under_every_alias_and_restores_originals():
    originals = (protocol.compute_table, gram_ml.PairOrdering, protocol.RetrievalScheme.answer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert protocol.compute_table is fields.compute_table is not originals[0]
        config = cli.RunConfig(
            "simulate", dict(scheme="repeated_pir", K=2, q=5, N=2, P=1, seeds=3), None, "json", 7
        )
        cli.dispatch(config)
    finally:
        tracer.uninstall()
    assert (protocol.compute_table, gram_ml.PairOrdering, protocol.RetrievalScheme.answer) == originals
    names = {s[1] for s in tracer.spans}
    assert {"cli.dispatch", "protocol.query", "protocol.answer", "fields.compute_table"} <= names
    assert tracer.counts["protocol.run_retrieval.calls"] == 3
    assert tracer.counts["protocol.downloaded_symbols"] == 3 * mix.expected_download(
        "repeated_pir", 3, 2, 1, 8
    )
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[1] for s in roots] == ["cli.dispatch"]
    # spans opened in pool threads hang off the dispatch span
    assert all(s[4] is not None for s in tracer.spans if s[1] == "fields.random_database")


# --- output checks on a held-out seed -----------------------------------------------


@pytest.mark.parametrize("workload", mix.WORKLOADS)
def test_every_output_check_passes_on_a_held_out_seed(workload, tmp_path):
    built = mix.build(workload, HELD_OUT_SEED, tmp_path / workload)
    try:
        failures = []
        for op in built.cycle(0):
            config = cli.RunConfig(op.command, dict(op.params), None, op.fmt, op.master_seed)
            report, status = cli.dispatch(config)
            cli.render_report(report, config.fmt)
            reason = f"exit status {status}" if status else op.check(report)
            if reason:
                failures.append(f"{op.label}: {reason}")
        assert failures == []
    finally:
        built.close()


def test_checks_catch_wrong_outputs():
    Report = namedtuple("Report", "results")
    audit_pass = mix._audit_check(True)
    leaky = {"passed": True, "scheme": "leaky_index", "P": 1, "min_pvalue": 0.5}
    assert mix._audit_check(False)(Report(leaky)) is not None
    assert audit_pass(Report(dict(leaky, passed=False))) is not None
    spectrum = {"q": 2, "K": 2, "lambda2": 0.51, "irreducible": True}
    assert mix._spectrum_check(mix.DenseLambda2())(Report(spectrum)) is not None
    learn = {"task": "svm", "gram_bitmatch": True, "oracle_max_decision_delta": 1e-3}
    assert mix._learn_check(Report(learn)) is not None
