"""Workload mixes of the pipret benchmark and the checks on their outputs.

A workload is a fixed cycle of CLI commands generated from the workload
seed.  The timed loop repeats the cycle; every repetition does the same
amount of work, so throughput, latency percentiles and per-cycle counts are
comparable between runs and between commits.  The seed changes the data
(master seeds, synthetic datasets, command order), never the amount of work.

Each ``Op`` carries a check that runs after the operation is timed.  A check
returns None when the output is correct and a one-line reason otherwise.
Checks compare against values derived outside the code path being timed:
closed forms written here, or library oracles (dense eigensolver, P = 1
geometric sum) that the commands themselves do not call.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("audit", "simulate", "analysis", "learn")

# work unit counted by work_per_s, per workload
WORK_UNITS = {
    "audit": "query samples",
    "simulate": "retrievals",
    "analysis": "commands",
    "learn": "commands",
}

AUDIT_SAMPLES = 30_000
SIMULATE_SEEDS = 20
CONVERGE_LMAX = 40
ORACLE_TOL = 1e-9
LEARN_DELTA_TOL = 1e-6
# (samples m, features) of the synthetic learn datasets
LEARN_SHAPES = ((60, 8), (120, 10), (200, 12))
# largest |x| of a learn dataset: 200 * 12 * (100 * 3.5)**2 < (10**9 + 7) / 2
# keeps the default codec inside its wraparound guard
LEARN_MAX_ABS = 3.5
LEARN_DATA_SEED = 0


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload cycle."""

    label: str
    command: str
    params: dict
    master_seed: int
    fmt: str
    work: int
    check: Callable[[object], str | None] = field(compare=False, repr=False)


@dataclass
class Mix:
    """A workload's cycle generator; ``cycle(i)`` lists the ops of cycle i."""

    unit: str
    cycle: Callable[[int], list]
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def derive_seed(*path: int) -> int:
    """A 32-bit master seed derived from the workload seed and a path."""
    return int(np.random.SeedSequence([int(p) for p in path]).generate_state(1)[0])


def build(workload: str, seed: int, workdir: Path) -> Mix:
    """The mix for ``workload`` at ``seed``; ``workdir`` receives any input
    files (learn writes its CSV datasets there)."""
    factories = {
        "audit": _audit_mix,
        "simulate": _simulate_mix,
        "analysis": _analysis_mix,
        "learn": _learn_mix,
    }
    if workload not in factories:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return factories[workload](int(seed), Path(workdir))


def _shuffled(ops: list, seed: int, *path: int) -> list:
    order = np.random.default_rng(derive_seed(seed, *path)).permutation(len(ops))
    return [ops[i] for i in order]


# --- audit ---------------------------------------------------------------------


def _audit_mix(seed: int, workdir: Path) -> Mix:
    # criterion 7's sampled audits plus the sampled leaky control; one master
    # seed per run so every cycle repeats the same audits exactly
    master = derive_seed(seed, 1)
    configs = [
        ("audit repeated_pir P=1", dict(scheme="repeated_pir", T=3, q=2, N=2, P=1), True),
        ("audit repeated_pir P=2", dict(scheme="repeated_pir", T=3, q=2, N=2, P=2), True),
        ("audit leaky_index P=1", dict(scheme="leaky_index", T=3, q=5, N=2, P=1, nu=2), False),
    ]
    ops = []
    for label, params, must_pass in configs:
        params = dict(params, mode="sampled", samples=AUDIT_SAMPLES)
        request_sets = math.comb(params["T"], params["P"])
        ops.append(
            Op(label, "audit", params, master, "json",
               work=request_sets * AUDIT_SAMPLES, check=_audit_check(must_pass))
        )
    ops = _shuffled(ops, seed, 2)
    return Mix(WORK_UNITS["audit"], lambda i: ops)


def _audit_check(must_pass: bool):
    def check(report):
        res = report.results
        if res["passed"] is not must_pass:
            want = "pass" if must_pass else "fail"
            return f"{res['scheme']} P={res['P']} audit did not {want} (min p {res['min_pvalue']})"
        return None

    return check


# --- simulate ------------------------------------------------------------------


def expected_download(scheme: str, T: int, N: int, P: int, nu: int) -> int:
    """Symbols a retrieval downloads, from the scheme definitions:
    full_download ships all T*nu symbols from one server; repeated_pir runs
    P single-message retrievals, each taking sum_t C(T,t)(N-1)**(t-1)
    symbols from each of the N servers."""
    if scheme == "full_download":
        return T * nu
    per_server = sum(math.comb(T, t) * (N - 1) ** (t - 1) for t in range(1, T + 1))
    return P * N * per_server


def _simulate_mix(seed: int, workdir: Path) -> Mix:
    shapes = [
        ("repeated_pir K=2 q=7 N=3", dict(scheme="repeated_pir", K=2, q=7, N=3), 3, 27),
        ("repeated_pir K=3 q=5 N=2", dict(scheme="repeated_pir", K=3, q=5, N=2), 6, 64),
        ("repeated_pir T=4 q=5 N=3", dict(scheme="repeated_pir", T=4, q=5, N=3), 4, 81),
        ("full_download T=6 q=5 N=1", dict(scheme="full_download", T=6, q=5, N=1, nu=16), 6, 16),
        ("full_download T=6 q=5 N=2", dict(scheme="full_download", T=6, q=5, N=2, nu=16), 6, 16),
    ]
    base = []
    for label, params, T, nu in shapes:
        for P in (1, 2, 3):
            p = dict(params, P=P, seeds=SIMULATE_SEEDS)
            want = expected_download(p["scheme"], T, p["N"], P, nu)
            base.append((f"simulate {label} P={P}", p, _simulate_check(want)))
    order = _shuffled(base, seed, 2)

    def cycle(i: int) -> list:
        # fresh master seeds per cycle: new data, same amount of work
        return [
            Op(label, "simulate", params, derive_seed(seed, 3, i, k), "json",
               work=SIMULATE_SEEDS, check=check)
            for k, (label, params, check) in enumerate(order)
        ]

    return Mix(WORK_UNITS["simulate"], cycle)


def _simulate_check(want_download: int):
    def check(report):
        res = report.results
        rate = res["rate"]
        if rate["beats_converse"] is not False:
            return f"measured inverse rate {rate['measured_inverse_rate']} beats the converse"
        if len(res["runs"]) != SIMULATE_SEEDS:
            return f"{len(res['runs'])} runs reported, expected {SIMULATE_SEEDS}"
        for run in res["runs"]:
            if run["downloaded"] != want_download:
                return f"run {run['run']} downloaded {run['downloaded']}, expected {want_download}"
        bracket = res.get("theorem_bracket")
        if bracket is not None and not bracket["bracket_low"] <= bracket["bracket_high"] + 1e-9:
            return "theorem bracket is inverted"
        return None

    return check


# --- analysis ------------------------------------------------------------------

CAPACITY_GRID = dict(K="2..5", P="1..6", N="2..4")
# spectrum points: (2,2) and (3,2) have known lambda2; (2,2), (3,2), (7,2) and
# (2,3) run the dense M^(5T) positivity check (q^T <= 512); (3,3) is checked
# against the dense eigensolver only; (5,3) and (2,5) are beyond both
SPECTRUM_POINTS = ((2, 2), (3, 2), (7, 2), (2, 3), (3, 3), (5, 3), (2, 5))
# converge points: (3,2), (3,3) and (2,4) evolve exactly (q^T <= 4096);
# (5,3), (7,3) and (2,5) take the float path
CONVERGE_POINTS = ((3, 2), (3, 3), (2, 4), (5, 3), (7, 3), (2, 5))
KNOWN_LAMBDA2 = {(2, 2): 0.5, (3, 2): 1.0 / math.sqrt(3.0)}


def _analysis_mix(seed: int, workdir: Path) -> Mix:
    ops = [
        Op("capacity grid", "capacity", dict(CAPACITY_GRID), 0, "json", 1, _capacity_check),
        Op("capacity grid --verbose", "capacity", dict(CAPACITY_GRID, verbose=True), 0,
           "json", 1, _capacity_check),
    ]
    oracle = DenseLambda2()
    for q, K in SPECTRUM_POINTS:
        ops.append(Op(f"spectrum q={q} K={K}", "spectrum", dict(q=q, K=K), 0, "json", 1,
                      _spectrum_check(oracle)))
    for q, K in CONVERGE_POINTS:
        ops.append(Op(f"converge q={q} K={K}", "converge", dict(q=q, K=K, Lmax=CONVERGE_LMAX),
                      0, "csv", 1, _converge_check))
    ops = _shuffled(ops, seed, 2)
    return Mix(WORK_UNITS["analysis"], lambda i: ops)


def capacity_grid_size(K_list, P_list, N_list) -> int:
    return sum(
        len(N_list) for K in K_list for P in P_list if P <= K * (K + 1) // 2
    )


def _capacity_check(report):
    from pipret import bounds

    rows = report.results
    want = capacity_grid_size(range(2, 6), range(1, 7), range(2, 5))
    if len(rows) != want:
        return f"{len(rows)} capacity rows, expected {want}"
    for row in rows:
        conv, ach = row["inv_rate_converse"], row["inv_rate_achievable"]
        if not conv <= ach + 1e-9:
            return f"converse {conv} above achievable {ach} at {row}"
        if row["P"] == 1:
            oracle = bounds.single_message_inverse_rate(row["K_msg"], row["N"])
            if abs(conv - oracle) > ORACLE_TOL or abs(ach - oracle) > ORACLE_TOL:
                return f"P=1 row {row} differs from the geometric sum {oracle}"
    return None


class DenseLambda2:
    """lambda2 from the dense eigensolver, computed once per (q, K)."""

    def __init__(self):
        self._cache = {}

    def __call__(self, q: int, K: int) -> float | None:
        from pipret import spectral

        if q ** (K * (K + 1) // 2) > spectral.DENSE_LIMIT:
            return None
        if (q, K) not in self._cache:
            op = spectral.transition_dense(q, K)
            self._cache[(q, K)] = spectral.spectrum_dense_oracle(op).lambda2
        return self._cache[(q, K)]


def _spectrum_check(oracle: DenseLambda2):
    def check(report):
        res = report.results
        q, K, lam2 = res["q"], res["K"], res["lambda2"]
        if res["irreducible"] is not True:
            return f"spectrum q={q} K={K} reports a reducible chain"
        known = KNOWN_LAMBDA2.get((q, K))
        if known is not None and abs(lam2 - known) > ORACLE_TOL:
            return f"lambda2 {lam2} at q={q} K={K}, expected {known}"
        dense = oracle(q, K)
        if dense is not None and abs(lam2 - dense) > ORACLE_TOL:
            return f"lambda2 {lam2} at q={q} K={K} differs from the dense oracle {dense}"
        return None

    return check


def _converge_check(report):
    rows = report.results
    if len(rows) != CONVERGE_LMAX or [r["L"] for r in rows] != list(range(1, CONVERGE_LMAX + 1)):
        return f"converge returned {len(rows)} rows, expected L = 1..{CONVERGE_LMAX}"
    for r in rows:
        vals = (r["sup_dist"], r["l2_dist"], r["lambda2_power"])
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            return f"converge row L={r['L']} has a negative or non-finite value"
    return None


# --- learn ---------------------------------------------------------------------


def synthetic_dataset(rng: np.random.Generator, m: int, d: int):
    """Two separable classes with distinct principal variances.

    Returns (X, y, target): features bounded by LEARN_MAX_ABS, labels in
    {-1, +1} separated by a gap along a random direction, and a noisy linear
    regression target."""
    y = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    spread = 1.2 * 0.75 ** np.arange(d)  # distinct variances keep PCA well posed
    X = rng.normal(size=(m, d)) * spread
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    # move each point to projection y * (1 + |t|) along u: a gap of 2 between
    # the classes, few points near it, so the hard-margin dual stays easy
    t = X @ u
    X += (y * (1.0 + np.abs(t)) - t)[:, None] * u[None, :]
    X *= min(1.0, LEARN_MAX_ABS / float(np.max(np.abs(X))))
    X = np.round(X, 4)
    w = rng.normal(size=d)
    target = np.round(X @ w + 0.1 * rng.normal(size=m), 4)
    return X, y, target


def _write_csv(path: Path, X: np.ndarray, label: np.ndarray) -> None:
    d = X.shape[1]
    lines = [",".join([f"x{j}" for j in range(d)] + ["label"])]
    for row, lab in zip(X, label):
        lines.append(",".join(f"{v:.4f}" for v in row) + f",{lab:.4f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _learn_mix(seed: int, workdir: Path) -> Mix:
    workdir.mkdir(parents=True, exist_ok=True)
    # the SVM's pair updates follow a path that any change of the data, even
    # a permutation of the samples, changes: its iteration count swung from
    # 32 to 4125 between seeds.  The datasets are therefore fixed and the
    # seed only orders the commands, so every seed does the same work.
    rng = np.random.default_rng(derive_seed(LEARN_DATA_SEED, 4))
    ops = []
    for m, d in LEARN_SHAPES:
        X, y, target = synthetic_dataset(rng, m, d)
        cls_path = workdir / f"classes_m{m}.csv"
        reg_path = workdir / f"targets_m{m}.csv"
        _write_csv(cls_path, X, y)
        _write_csv(reg_path, X, target)
        for task, path in (("svm", cls_path), ("regression", reg_path), ("pca", cls_path)):
            params = dict(data=str(path), label="label", task=task, private=True)
            ops.append(Op(f"ml-demo {task} m={m}", "ml-demo", params, 0, "json", 1, _learn_check))
    ops = _shuffled(ops, seed, 2)
    return Mix(WORK_UNITS["learn"], lambda i: ops, workdir=workdir)


def _learn_check(report):
    res = report.results
    if res.get("gram_bitmatch") is not True:
        return f"{res['task']} Gram matrix does not match the direct Gram bit for bit"
    deltas = {k: v for k, v in res.items() if k.startswith("oracle_max_") and k.endswith("_delta")}
    if not deltas:
        return f"{res['task']} report carries no oracle delta"
    for key, val in deltas.items():
        if not val < LEARN_DELTA_TOL:
            return f"{res['task']} {key} = {val} is not below {LEARN_DELTA_TOL}"
    return None
