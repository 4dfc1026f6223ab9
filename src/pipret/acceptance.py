"""Executable verification suite.

Each criterion function re-derives its expected values from an independent
route (dense eigensolver, raw-data solvers, combinatorial counts, exact
enumeration) and checks the production path against them at a fixed
tolerance.  ``run_criteria`` executes all of them and returns records;
``reproduce_all`` additionally builds the consolidated verdict twice and
demands byte-identical serializations, then returns the report, an exit
status and the per-criterion runtimes.

``gram_task_report`` is criterion 9's Gram-versus-raw check for one
learning task and also the body of ``ml-demo``'s report, so the CLI reports
the check the criterion gates on.

The criterion functions reference their modules through attribute lookup
(``spectral.delta_distribution`` and so on), so a test can plant a fault by
monkeypatching a module attribute and watch the right criterion fail.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from . import bounds, fields, gram_ml, protocol, spectral

MASTER_SEED_DEFAULT = 20341

RUNTIME_LIMITS = {
    1: 1.0,
    2: 10.0,
    3: 5.0,
    4: 30.0,
    5: 5.0,
    6: 1.0,
    7: 120.0,
    8: 60.0,
    9: 60.0,
}


def _seed(master: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=[int(master), *[int(p) for p in path]])


def criterion_spectral_exactness(master_seed: int) -> dict:
    checks = []
    d22 = spectral.delta_distribution(2, 2)
    lam22 = spectral.spectrum_via_characters(d22).lambda2
    dense22 = spectral.spectrum_dense_oracle(spectral.transition_dense(2, 2)).lambda2
    checks.append(("lambda2(2,2) == 0.5", abs(lam22 - 0.5) < 1e-12))
    checks.append(("characters match dense at (2,2)", abs(lam22 - dense22) < 1e-8))

    d32 = spectral.delta_distribution(3, 2)
    lam32 = spectral.spectrum_via_characters(d32).lambda2
    dense32 = spectral.spectrum_dense_oracle(spectral.transition_dense(3, 2)).lambda2
    checks.append(("characters match dense at (3,2)", abs(lam32 - dense32) < 1e-8))
    checks.append(("lambda2(3,2) near 0.57735", abs(lam32 - 1 / math.sqrt(3)) < 1e-9))
    # the closed form that spectrum, converge and simulate report
    for (q, K), dense in (((2, 2), dense22), ((3, 2), dense32)):
        checks.append((
            f"closed-form lambda2 matches dense at ({q},{K})",
            abs(spectral.lambda2(q, K) - dense) < 1e-12,
        ))
    return {
        "checks": checks,
        "lambda2_22": lam22,
        "lambda2_32": lam32,
    }


def criterion_stationarity(master_seed: int) -> dict:
    configs = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]
    checks = []
    worst = 0.0
    for q, K in configs:
        M = spectral.transition_dense(q, K).matrix
        n = M.shape[0]
        row_err = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
        col_err = float(np.max(np.abs(M.sum(axis=0) - 1.0)))
        pi = np.full(n, 1.0 / n)
        fix_err = float(np.max(np.abs(M @ pi - pi)))
        worst = max(worst, row_err, col_err, fix_err)
        checks.append(
            (f"doubly stochastic + uniform fixed at (q={q},K={K})",
             max(row_err, col_err, fix_err) < 1e-12)
        )
    return {"checks": checks, "worst_error": worst}


def criterion_convergence(master_seed: int) -> dict:
    checks = []
    details = {}
    for q, K in [(2, 2), (3, 2)]:
        # the closed form that spectrum and converge report
        lam2 = spectral.lambda2(q, K)
        trace = spectral.class_trace(q, K, 30)
        # the per-state walk is the oracle for the lumped one
        d = spectral.delta_distribution(q, K)
        per_state = spectral.evolve(d, 30, store_distributions=False)
        same_rows = np.array_equal(trace.sup_dists, per_state.sup_dists) and np.array_equal(
            trace.l2_dists, per_state.l2_dists
        )
        ratios = trace.l2_dists[1:] / trace.l2_dists[:-1]
        contracts = bool(np.all(ratios <= lam2 + 1e-9))
        rate_ok = abs(trace.fitted_rate - lam2) <= 0.05 * lam2
        checks.append((f"class chain rows equal per-state rows at (q={q},K={K})", same_rows))
        checks.append((f"l2 contraction at (q={q},K={K})", contracts))
        checks.append((f"fitted rate within 5% at (q={q},K={K})", rate_ok))
        details[f"q{q}K{K}"] = {
            "lambda2": lam2,
            "max_ratio": float(ratios.max()),
            "fitted_rate": trace.fitted_rate,
        }
    return {"checks": checks, **details}


def criterion_irreducibility(master_seed: int) -> dict:
    checks = []
    closure_configs = [
        (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (5, 3),
        (7, 2), (11, 2), (13, 2),
    ]
    for q, K in closure_configs:
        rep = spectral.is_irreducible(q, K)
        checks.append((f"support generates group at (q={q},K={K})", rep.irreducible))

    power_configs = [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]
    for q, K in power_configs:
        # the dense matrix power is the oracle for the level-set walk
        op = spectral.transition_dense(q, K)
        dense = bool((np.linalg.matrix_power(op.matrix, 5 * op.delta.T) > 0).all())
        rep = spectral.is_irreducible(q, K)
        checks.append(
            (f"M^(5T) strictly positive at (q={q},K={K})", dense and rep.gamma_all_positive)
        )

    primes = [p for p in range(2, 100) if all(p % r for r in range(2, p))]
    squares_ok = True
    for q in primes:
        for a in range(q):
            s, t = spectral.sum_two_squares(q, a)
            if (s * s + t * t) % q != a:
                squares_ok = False
    checks.append(("two-square decompositions for all primes < 100", squares_ok))

    witness_ok = True
    for q in [2, 3, 5, 7, 11, 13]:
        for K in [1, 2, 3]:
            T = fields.pair_count(K)
            for e in range(T):
                for a in range(1, q):
                    cols = spectral.reachability_witness(q, K, e, a)
                    achieved = spectral.accumulate_increment(cols, q, K)
                    expected = np.zeros(T, dtype=np.int64)
                    expected[e] = a
                    if not np.array_equal(achieved, expected):
                        witness_ok = False
    checks.append(("reachability witnesses verify (q <= 13, K <= 3)", witness_ok))
    return {"checks": checks}


def criterion_entropy_bound(master_seed: int) -> dict:
    checks = []
    details = {}
    L_max, fit_window = 20, 10
    for q, K in [(2, 2), (3, 2)]:
        T = fields.pair_count(K)
        d = spectral.delta_distribution(q, K)
        lam2 = spectral.spectrum_via_characters(d).lambda2
        trace = spectral.evolve(d, L_max, store_distributions=True)
        subsets = [
            combo
            for P in range(1, T + 1)
            for combo in itertools.combinations(range(T), P)
        ]
        deficits = {
            combo: [
                spectral.entropy_deficit_bits(trace.distributions[L - 1], q, K, combo)
                for L in range(1, L_max + 1)
            ]
            for combo in subsets
        }
        # the constant is fitted on the first half of the trace; holding on
        # the full trace then certifies the decay rate, not just the window
        c_bits = max(
            spectral.envelope_constant(vals, lam2, fit_window=fit_window)
            for vals in deficits.values()
        )
        upper_ok = all(v >= 0.0 for vals in deficits.values() for v in vals)
        lower_ok = all(
            v <= c_bits * lam2 ** (L - 1) + 1e-12
            for vals in deficits.values()
            for L, v in enumerate(vals, start=1)
        )
        checks.append((f"entropy never exceeds P log q at (q={q},K={K})", upper_ok))
        checks.append((f"deficit under fitted c * lambda2^(L-1) at (q={q},K={K})", lower_ok))
        details[f"q{q}K{K}"] = {"lambda2": lam2, "fitted_c_bits": c_bits}

    d22 = spectral.delta_distribution(2, 2)
    h_cross = spectral.subset_entropy(d22.probs, 2, 2, [fields.PairIndex(1, 2)]).bits
    expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    checks.append(("cross-pair entropy h(1/4) at L=1", abs(h_cross - expected) < 1e-6))
    details["h_quarter_bits"] = h_cross
    return {"checks": checks, **details}


def criterion_capacity_formulas(master_seed: int) -> dict:
    checks = []
    geo_ok = all(
        bounds.inverse_rate_achievable(bounds.BoundQuery(K, 1, N))
        == bounds.single_message_inverse_rate(K, N)
        for N in range(2, 7)
        for K in range(2, 11)
    )
    checks.append(("P=1 achievable equals geometric sum", geo_ok))

    tight_ok = True
    for P in range(1, 6):
        for N in range(2, 7):
            bq = bounds.BoundQuery(2 * P, P, N)
            if bounds.inverse_rate_achievable(bq) != bounds.inverse_rate_converse(bq):
                tight_ok = False
    checks.append(("formulas agree at K_msg/P = 2", tight_ok))

    cor1 = bounds.corollary_limits(2, 2, 2)
    cor2 = bounds.corollary_limits(3, 2, 2)
    checks.append(("corollary limit (K=2,P=2,N=2) == 1.25", cor1 == 1.25))
    checks.append(("corollary limit (K=3,P=2,N=2) == 1.75", cor2 == 1.75))

    gamma_ok = all(
        bounds.achievable_rate_fraction(bounds.BoundQuery(K, P, N))
        == bounds._gamma_rate_fraction(K, P, N)
        for P in range(1, 9)
        for N in range(2, 9)
        for K in (2 * P, 2 * P + 3)
    )
    checks.append(("rate fraction equals the gamma recursion for P <= 8, N <= 8", gamma_ok))
    return {"checks": checks, "cor1": float(cor1), "cor2": float(cor2)}


def criterion_protocol(master_seed: int) -> dict:
    checks = []
    rp = protocol.RepeatedPirScheme()
    fd = protocol.FullDownloadScheme()
    leaky = protocol.LeakyIndexScheme()

    points = [
        (rp, protocol.VirtualFileSpace(T=3, q=5, nu=8), 2, (1,)),
        (rp, protocol.VirtualFileSpace(T=3, q=2, nu=8), 2, (0, 2)),
        (fd, protocol.VirtualFileSpace(T=3, q=5, nu=2), 2, (0, 2)),
        (fd, protocol.VirtualFileSpace(T=4, q=3, nu=1), 1, (1, 3)),
    ]
    correct = True
    for idx, (scheme, space, N, request) in enumerate(points):
        rng = np.random.default_rng(_seed(master_seed, 7, idx))
        data = rng.integers(0, space.q, size=(space.T, space.nu))
        for s in range(100):
            try:
                protocol.run_retrieval(
                    scheme, space, N, request, data, seed=_seed(master_seed, 7, idx, s)
                )
            except protocol.DecodeMismatchError:
                correct = False
    checks.append(("exact decode on 100 seeds per parameter point", correct))

    fd_audit = protocol.audit_privacy(
        fd, protocol.VirtualFileSpace(T=3, q=5, nu=2), 2, 2, mode="exact"
    )
    checks.append(("full_download exact audit TV = 0", fd_audit.passed and fd_audit.max_tv_distance == 0.0))

    space_pir = protocol.VirtualFileSpace(T=3, q=2, nu=8)
    sampled = {}
    for P in (1, 2):
        rep = protocol.audit_privacy(
            rp, space_pir, 2, P, mode="sampled", samples=100_000, seed=master_seed
        )
        sampled[P] = rep
        checks.append((f"repeated_pir sampled audit passes at P={P}", rep.passed))

    leak_audit = protocol.audit_privacy(
        leaky, protocol.VirtualFileSpace(T=3, q=5, nu=2), 2, 2, mode="exact"
    )
    checks.append(("planted-leak negative control fails", not leak_audit.passed))
    return {
        "checks": checks,
        "sampled_min_pvalues": {P: sampled[P].min_pvalue for P in sampled},
        "sampled_n_tests": {P: sampled[P].n_tests for P in sampled},
    }


def criterion_rate_brackets(master_seed: int) -> dict:
    checks = []
    never_beats = True
    details = {}

    def run_point(scheme, space, N, request, n_runs=5, tag=0):
        transcripts = []
        for s in range(n_runs):
            rng = np.random.default_rng(_seed(master_seed, 8, tag, s))
            data = rng.integers(0, space.q, size=(space.T, space.nu))
            transcripts.append(
                protocol.run_retrieval(
                    scheme, space, N, request, data, seed=_seed(master_seed, 8, tag, s, 1)
                )
            )
        return protocol.measure_rate(transcripts)

    fd = protocol.FullDownloadScheme()
    rp = protocol.RepeatedPirScheme()

    n1_ok = True
    tag = 0
    for T, P in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        tag += 1
        measured = run_point(fd, protocol.VirtualFileSpace(T=T, q=5, nu=2), 1, tuple(range(P)), tag=tag)
        converse = bounds.inverse_rate_converse(bounds.BoundQuery(T, P, 1))
        never_beats &= measured >= converse - 1e-9
        if abs(measured - T / P) >= 1e-9 or converse != Fraction(T, P):
            n1_ok = False
    checks.append(("full_download at N=1 attains T/P exactly", n1_ok))

    p1_ok = True
    for T, N in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        tag += 1
        space = protocol.VirtualFileSpace(T=T, q=5, nu=N**T)
        measured = run_point(rp, space, N, (T - 1,), tag=tag)
        geometric = bounds.single_message_inverse_rate(T, N)
        converse = bounds.inverse_rate_converse(bounds.BoundQuery(T, 1, N))
        never_beats &= measured >= converse - 1e-9
        if abs(measured - geometric) >= 1e-9:
            p1_ok = False
        details[f"repeated_pir_T{T}N{N}"] = measured
    checks.append(("repeated_pir at P=1 attains the geometric sum exactly", p1_ok))

    for T, P, N in [(3, 2, 2), (4, 2, 2), (3, 2, 3)]:
        tag += 1
        space = protocol.VirtualFileSpace(T=T, q=3, nu=N**T)
        measured = run_point(rp, space, N, tuple(range(P)), tag=tag)
        converse = bounds.inverse_rate_converse(bounds.BoundQuery(T, P, N))
        never_beats &= measured >= converse - 1e-9
        tag += 1
        measured_fd = run_point(fd, protocol.VirtualFileSpace(T=T, q=3, nu=2), N, tuple(range(P)), tag=tag)
        never_beats &= measured_fd >= converse - 1e-9
    checks.append(("no measured rate beats the converse", never_beats))
    return {"checks": checks, **details}


def gram_task_report(task: str, X, y, G, d: int | None = None, box: float | None = None) -> dict:
    """Fit ``task`` (svm, regression or pca) on the Gram matrix ``G`` of the
    rows of ``X`` and check it against the raw-data route.

    The raw routes are the SVM decision through w = (alpha y)^T X, least
    squares on [X | 1], and the projections onto the top ``d`` eigenvectors
    of X^T X (compared up to sign).  Returns the fields ``ml-demo`` reports
    for the task, whose ``oracle_max_*_delta`` is the largest gap between the
    two routes; criterion 9 gates on the same fields.
    """
    if task == "svm":
        sol = gram_ml.svm_dual_train(G, y, box=box)
        raw_dec = X @ ((sol.alpha * y) @ X) + sol.bias
        gram_dec = gram_ml.svm_decision(sol, y, G)
        return {
            "alpha": sol.alpha.tolist(),
            "bias": sol.bias,
            "objective": sol.objective,
            "iterations": sol.iterations,
            "kkt_residual": gram_ml.svm_kkt_residual(G, y, sol, box=box),
            "oracle_max_decision_delta": float(np.max(np.abs(raw_dec - gram_dec))),
            "train_accuracy": float(np.mean(np.sign(gram_dec) == y)),
        }
    if task == "regression":
        a = gram_ml.regression_fit(G, y, augment=True)
        preds = gram_ml.regression_predict(a, G)
        X_aug = np.hstack([X, np.ones((X.shape[0], 1))])
        raw_preds = X_aug @ np.linalg.lstsq(X_aug, y, rcond=None)[0]
        return {
            "coefficients": a.tolist(),
            "residual_norm": float(np.linalg.norm(gram_ml.augment_gram(G) @ a - y)),
            "oracle_max_prediction_delta": float(np.max(np.abs(preds - raw_preds))),
            "train_rmse": float(np.sqrt(np.mean((preds - y) ** 2))),
        }
    lam, U = gram_ml.pca_gram(G, d)
    proj = gram_ml.pca_project(lam, U, G)
    _, V_raw = np.linalg.eigh(X.T @ X)
    proj_raw = V_raw[:, ::-1][:, :d].T @ X.T
    return {
        "eigenvalues": lam.tolist(),
        "components": U.tolist(),
        "oracle_max_projection_delta": float(np.max(np.abs(np.abs(proj) - np.abs(proj_raw)))),
    }


def criterion_gram_ml(master_seed: int) -> dict:
    checks = []

    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1.0, -1.0])
    sol = gram_ml.svm_dual_train(gram_ml.gram_from_raw(X), y)
    analytic_ok = (
        np.max(np.abs(sol.alpha - 0.5)) < 1e-6 and abs(sol.bias) < 1e-6
    )
    checks.append(("analytic SVM optimum alpha=(1/2,1/2), b=0", analytic_ok))

    rng = np.random.default_rng(_seed(master_seed, 9, 0))
    X20 = np.vstack(
        [rng.normal(2.0, 0.6, size=(10, 2)), rng.normal(-2.0, 0.6, size=(10, 2))]
    )
    y20 = np.array([1.0] * 10 + [-1.0] * 10)
    svm = gram_task_report("svm", X20, y20, gram_ml.gram_from_raw(X20))
    Xr, yr = rng.normal(size=(8, 3)), rng.normal(size=8)
    reg = gram_task_report("regression", Xr, yr, gram_ml.gram_from_raw(Xr))
    Xp = rng.normal(size=(10, 3))
    pca = gram_task_report("pca", Xp, None, gram_ml.gram_from_raw(Xp), d=2)
    svm_delta = svm["oracle_max_decision_delta"]
    reg_delta = reg["oracle_max_prediction_delta"]
    pca_delta = pca["oracle_max_projection_delta"]
    checks += [
        ("SVM Gram-only matches raw within 1e-6", svm_delta < 1e-6 and svm["kkt_residual"] < 1e-6),
        ("regression Gram-only matches raw least squares within 1e-6", reg_delta < 1e-6),
        ("PCA projections match covariance route within 1e-6", pca_delta < 1e-6),
    ]

    codec = gram_ml.FixedPointCodec(scale=100.0, q=10**9 + 7, max_abs=4.0)
    Xc = rng.uniform(-3.0, 3.0, size=(4, 3))
    G_priv, _ = gram_ml.private_gram(Xc, codec, seed=_seed(master_seed, 9, 1))
    G_direct = gram_ml.direct_gram(Xc, codec)
    checks.append(("private pipeline Gram bit-identical", G_priv.tobytes() == G_direct.tobytes()))
    return {
        "checks": checks,
        "svm_delta": svm_delta,
        "regression_delta": reg_delta,
        "pca_delta": pca_delta,
    }


CRITERIA = [
    (1, "spectral exactness", criterion_spectral_exactness),
    (2, "stationarity", criterion_stationarity),
    (3, "convergence rate", criterion_convergence),
    (4, "irreducibility", criterion_irreducibility),
    (5, "entropy bound", criterion_entropy_bound),
    (6, "capacity formulas", criterion_capacity_formulas),
    (7, "protocol correctness and privacy", criterion_protocol),
    (8, "rate brackets", criterion_rate_brackets),
    (9, "gram-ml equivalence", criterion_gram_ml),
]


def run_criteria(master_seed: int = MASTER_SEED_DEFAULT) -> list[dict]:
    """Run criteria 1..9 and return one record per criterion.

    Records carry the deterministic verdict plus a wall-clock runtime that
    is *not* part of the serialized report.
    """
    records = []
    for cid, name, func in CRITERIA:
        start = time.perf_counter()
        detail = func(master_seed)
        elapsed = time.perf_counter() - start
        checks = detail.pop("checks")
        runtime_ok = elapsed < RUNTIME_LIMITS[cid]
        passed = all(ok for _, ok in checks) and runtime_ok
        records.append(
            {
                "id": cid,
                "name": name,
                "passed": bool(passed),
                "checks": [{"check": label, "ok": bool(ok)} for label, ok in checks],
                "details": _jsonable(detail),
                "runtime_limit_s": RUNTIME_LIMITS[cid],
                "runtime_ok": bool(runtime_ok),
                "_runtime_s": elapsed,
            }
        )
    return records


def _verdict(records: list[dict], master_seed: int, version: str) -> dict:
    """The report's version, seed and criteria, runtimes excluded."""
    return {
        "version": version,
        "master_seed": master_seed,
        "criteria": [
            {k: v for k, v in rec.items() if not k.startswith("_")} for rec in records
        ],
    }


def consolidated_json(records: list[dict], master_seed: int, version: str) -> str:
    """Deterministic serialization of the verdict (runtimes excluded)."""
    return json.dumps(_verdict(records, master_seed, version), sort_keys=True, indent=2) + "\n"


def reproduce_all(master_seed: int = MASTER_SEED_DEFAULT, version: str = "0.1.0"):
    """Run everything twice; the consolidated verdicts must match bytes.

    Returns (report_dict, exit_status, runtimes): exit status 0 when every
    criterion passed and the two serializations agree, 3 otherwise;
    ``runtimes`` maps criterion id to the first pass's wall-clock seconds,
    which the report leaves out.
    """
    first = run_criteria(master_seed)
    second = run_criteria(master_seed)
    text1 = consolidated_json(first, master_seed, version)
    text2 = consolidated_json(second, master_seed, version)
    deterministic = text1 == text2
    records = first + [
        {
            "id": 10,
            "name": "determinism",
            "passed": bool(deterministic),
            "checks": [{"check": "byte-identical consolidated reports", "ok": bool(deterministic)}],
            "details": {},
            "runtime_limit_s": None,
            "runtime_ok": True,
        }
    ]
    report = _verdict(records, master_seed, version)
    failed = [rec["id"] for rec in records if not rec["passed"]]
    report["failed_criteria"] = failed
    runtimes = {rec["id"]: rec["_runtime_s"] for rec in first}
    return report, (0 if not failed else 3), runtimes


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
