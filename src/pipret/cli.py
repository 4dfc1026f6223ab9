"""Command-line front end.

Subcommands map one-to-one onto the library surfaces::

    capacity   closed-form bound rows over a (K, P, N) grid
    spectrum   increment-law spectral summary for one (q, K)
    converge   distance-to-uniform trace as CSV rows
    simulate   retrieval runs with rate accounting against the bounds
    audit      privacy audit (exact TV or sampled chi-square)
    ml-demo    Gram-only SVM / regression / PCA on a CSV dataset
    reproduce  the full verification suite with a consolidated verdict

Every flag has a config-file equivalent: ``--config file.json`` loads
``{"command": ..., "params": {...}}`` and explicit flags override file
values.  Reports are deterministic for a fixed (config, version, master
seed); wall-clock time goes to stderr only.  Exit codes: 0 success,
2 validation error, 3 verification failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import math
import os
import sys
import tempfile
import time
# unused here; perfbench/tracing.py patches cli.ThreadPoolExecutor by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from . import __version__, acceptance, bounds, gram_ml, protocol, spectral
from .fields import Database, pair_count, pair_unrank

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCEPTANCE = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    """Resolved invocation: command, validated params, output routing."""

    command: str
    params: dict
    output: str | None
    fmt: str
    master_seed: int


@dataclass
class Report:
    """Result envelope; the wall clock is deliberately excluded from the
    serialized form so identical configs produce identical bytes."""

    command: str
    params: dict
    version: str
    master_seed: int
    results: object
    wall_clock_s: float = field(default=0.0, compare=False)

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "version": self.version,
            "master_seed": self.master_seed,
            "results": self.results,
        }


def parse_range(text) -> list[int]:
    """Accepts '3', '2..5', and '2,5,7' forms."""
    if isinstance(text, int):
        return [text]
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if "," in text:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    return [int(text)]


# --- subcommand handlers --------------------------------------------------------


def _require(params: dict, command: str, *keys: str) -> None:
    """Raise ValueError naming the first of ``keys`` that is unset."""
    for key in keys:
        if params.get(key) is None:
            raise ValueError(f"{command} needs --{key}")


def cmd_capacity(params: dict, master_seed: int):
    _require(params, "capacity", "K", "P", "N")
    rows = bounds.capacity_grid(
        parse_range(params["K"]),
        parse_range(params["P"]),
        parse_range(params["N"]),
        verbose=bool(params.get("verbose", False)),
    )
    return rows, EXIT_OK


def cmd_spectrum(params: dict, master_seed: int):
    _require(params, "spectrum", "q", "K")
    q, K = int(params["q"]), int(params["K"])
    rep = spectral.is_irreducible(q, K)
    return {
        "q": q,
        "K": K,
        "T": pair_count(K),
        "lambda2": spectral.lambda2(q, K),
        "irreducible": rep.irreducible,
        "gamma_all_positive": rep.gamma_all_positive,
    }, EXIT_OK


def cmd_converge(params: dict, master_seed: int):
    _require(params, "converge", "q", "K")
    q, K = int(params["q"]), int(params["K"])
    L_max = int(params.get("Lmax", 30))
    trace = spectral.class_trace(q, K, L_max)
    rows = [
        {
            "L": L,
            "sup_dist": float(trace.sup_dists[L - 1]),
            "l2_dist": float(trace.l2_dists[L - 1]),
            "lambda2_power": trace.lambda2 ** (L - 1),
            "exact": trace.exact,
            "sup_floor": float(trace.sup_floors[L - 1]),
        }
        for L in range(1, L_max + 1)
    ]
    return rows, EXIT_OK


def cmd_simulate(params: dict, master_seed: int):
    scheme = protocol.make_scheme(str(params.get("scheme", "full_download")))
    q = int(params.get("q", 5))
    N = int(params.get("N", 2))
    P = int(params.get("P", 1))
    seeds = int(params.get("seeds", 10))
    K = params.get("K")
    L = int(params.get("L", 8))

    if K is not None:
        T = pair_count(int(K))
    elif params.get("T") is not None:
        T = int(params["T"])
    else:
        raise ValueError("simulate needs --K or --T")
    nu = params.get("nu")
    if nu is None:
        nu = N**T if scheme.name == "repeated_pir" else 1
    nu = int(nu)
    space = protocol.VirtualFileSpace(T=T, q=q, nu=nu)
    scheme.check_supports(space, N)
    if not 1 <= P <= T:
        raise ValueError(f"P must lie in [1, T={T}]")

    def one_run(i):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[master_seed, i]))
        request = tuple(sorted(rng.choice(T, size=P, replace=False).tolist()))
        if K is not None:
            db = Database(q, rng.integers(0, q, size=(nu, int(K), L), dtype=np.int64))
            tr = protocol.retrieve_pairs(
                scheme,
                protocol.PairSet({pair_unrank(int(K), r) for r in request}),
                db,
                N,
                seed=np.random.SeedSequence(entropy=[master_seed, i, 1]),
            )
        else:
            data = rng.integers(0, q, size=(T, nu))
            tr = protocol.run_retrieval(
                scheme, space, N, request, data,
                seed=np.random.SeedSequence(entropy=[master_seed, i, 1]),
            )
        return tr

    # no pool: runs hold the GIL, so threads would only add switching between them
    transcripts = [one_run(i) for i in range(seeds)]
    summary = protocol.rate_summary(transcripts, N)
    results = {
        "rate": summary,
        "note": "inverse rate measured over nu independent instances per virtual file",
        "runs": [
            {
                "run": i,
                "request": list(tr.request),
                "downloaded": tr.downloaded,
                "per_server_counts": list(tr.per_server_counts),
            }
            for i, tr in enumerate(transcripts)
        ],
    }
    if K is not None:
        lam2 = spectral.lambda2(q, int(K))
        cb = bounds.theorem1_bounds(int(K), P, N, L=L, lambda2=lam2)
        results["theorem_bracket"] = {
            "lambda2": lam2,
            "L": L,
            "bracket_low": cb.bracket[0],
            "bracket_high": cb.bracket[1],
        }
    return results, EXIT_OK


def cmd_audit(params: dict, master_seed: int):
    scheme = protocol.make_scheme(str(params.get("scheme", "full_download")))
    mode = str(params.get("mode", "exact"))
    T = int(params.get("T", 3))
    q = int(params.get("q", 5))
    N = int(params.get("N", 2))
    P = int(params.get("P", 1))
    nu = params.get("nu")
    if nu is None:
        nu = N**T if scheme.name == "repeated_pir" else 1
    space = protocol.VirtualFileSpace(T=T, q=q, nu=int(nu))
    samples = params.get("samples")
    report = protocol.audit_privacy(
        scheme,
        space,
        N,
        P,
        mode=mode,
        samples=int(samples) if samples is not None else None,
        seed=master_seed,
    )
    payload = {
        "scheme": report.scheme,
        "mode": report.mode,
        "T": report.T,
        "P": report.P,
        "N": report.n_servers,
        "nu": report.nu,
        "passed": report.passed,
        "count_symmetric": report.count_symmetric,
        "max_tv_distance": report.max_tv_distance,
        "samples": report.samples,
        "alpha": report.alpha,
        "bonferroni_threshold": report.threshold,
        "min_pvalue": report.min_pvalue,
        "worst_test": report.worst_test,
        "n_tests": report.n_tests,
        "tests": report.tests,
    }
    return payload, EXIT_OK


def _read_csv_dataset(path: str, label: str | None):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv_module.reader(fh))
    if len(rows) < 2:
        raise ValueError("dataset needs a header row and at least one sample")
    header = [h.strip() for h in rows[0]]
    label_idx = None
    if label is not None:
        if label not in header:
            raise ValueError(f"label column {label!r} not in header {header}")
        label_idx = header.index(label)
    feats, labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not tok.strip() for tok in row):
            continue
        try:
            vals = [float(tok) for tok in row]
        except ValueError as exc:
            raise ValueError(f"non-numeric value on line {lineno}") from exc
        if len(vals) != len(header):
            raise ValueError(f"line {lineno} has {len(vals)} fields, expected {len(header)}")
        if label_idx is not None:
            labels.append(vals.pop(label_idx))
        feats.append(vals)
    X = np.asarray(feats, dtype=float)
    y = np.asarray(labels, dtype=float) if label_idx is not None else None
    names = [h for i, h in enumerate(header) if i != label_idx]
    return X, y, names


def cmd_ml_demo(params: dict, master_seed: int):
    task = str(params.get("task", "svm"))
    if task not in ("svm", "regression", "pca"):
        raise ValueError(f"unknown task {task!r}")
    label = params.get("label")
    if task in ("svm", "regression") and label is None:
        raise ValueError(f"task {task!r} needs --label")
    _require(params, "ml-demo", "data")
    X, y, names = _read_csv_dataset(str(params["data"]), label)
    private = bool(params.get("private", False))

    result = {
        "task": task,
        "samples": int(X.shape[0]),
        "features": names,
        "gram_mode": "private" if private else "direct",
    }
    if private:
        scale = float(params.get("scale", 100.0))
        q = int(params.get("q", 10**9 + 7))
        max_abs = float(params.get("max_abs") or max(1.0, float(np.max(np.abs(X)))))
        codec = gram_ml.FixedPointCodec(scale=scale, q=q, max_abs=max_abs)
        G, transcript = gram_ml.private_gram(X, codec, seed=master_seed)
        bitmatch = G.tobytes() == gram_ml.direct_gram(X, codec).tobytes()
        # oracles compare against the dataset the codec actually encoded
        X_eff = np.rint(scale * X) / scale
        result["codec"] = {"scale": scale, "q": q, "max_abs": max_abs}
        result["gram_bitmatch"] = bool(bitmatch)
        result["downloaded_symbols"] = transcript.downloaded
    else:
        G = gram_ml.gram_from_raw(X)
        X_eff = X

    if task == "svm":
        box = params.get("box")
        sol = gram_ml.svm_dual_train(G, y, box=float(box) if box is not None else None)
        w = (sol.alpha * y) @ X_eff
        raw_dec = X_eff @ w + sol.bias
        gram_dec = gram_ml.svm_decision(sol, y, G)
        result.update(
            {
                "alpha": sol.alpha.tolist(),
                "bias": sol.bias,
                "objective": sol.objective,
                "iterations": sol.iterations,
                "kkt_residual": gram_ml.svm_kkt_residual(G, y, sol, box=box),
                "oracle_max_decision_delta": float(np.max(np.abs(raw_dec - gram_dec))),
                "train_accuracy": float(np.mean(np.sign(gram_dec) == y)),
            }
        )
    elif task == "regression":
        a = gram_ml.regression_fit(G, y, augment=True)
        preds = gram_ml.regression_predict(a, G)
        X_aug = np.hstack([X_eff, np.ones((X_eff.shape[0], 1))])
        w_raw, *_ = np.linalg.lstsq(X_aug, y, rcond=None)
        raw_preds = X_aug @ w_raw
        result.update(
            {
                "coefficients": a.tolist(),
                "residual_norm": float(np.linalg.norm(gram_ml.augment_gram(G) @ a - y)),
                "oracle_max_prediction_delta": float(np.max(np.abs(preds - raw_preds))),
                "train_rmse": float(np.sqrt(np.mean((preds - y) ** 2))),
            }
        )
    else:
        d = int(params.get("d", min(2, X.shape[0])))
        lam, U = gram_ml.pca_gram(G, d)
        proj = gram_ml.pca_project(lam, U, G)
        w_raw, V_raw = np.linalg.eigh(X_eff.T @ X_eff)
        dirs = V_raw[:, ::-1][:, :d]
        proj_raw = dirs.T @ X_eff.T
        delta = float(np.max(np.abs(np.abs(proj) - np.abs(proj_raw))))
        result.update(
            {
                "eigenvalues": lam.tolist(),
                "components": U.tolist(),
                "oracle_max_projection_delta": delta,
            }
        )
    return result, EXIT_OK


def cmd_reproduce(params: dict, master_seed: int):
    report, status, runtimes = acceptance.reproduce_all(master_seed, version=__version__)
    for rec in report["criteria"]:
        verdict = "PASS" if rec["passed"] else "FAIL"
        timing = ""
        if rec["id"] in runtimes:
            timing = f" ({runtimes[rec['id']]:.2f}s of {rec['runtime_limit_s']:g}s limit)"
        print(f"[{verdict}] criterion {rec['id']}: {rec['name']}{timing}", file=sys.stderr)
    return report, status


HANDLERS = {
    "capacity": cmd_capacity,
    "spectrum": cmd_spectrum,
    "converge": cmd_converge,
    "simulate": cmd_simulate,
    "audit": cmd_audit,
    "ml-demo": cmd_ml_demo,
    "reproduce": cmd_reproduce,
}

DEFAULT_FORMATS = {"converge": "csv"}


def dispatch(config: RunConfig) -> tuple[Report, int]:
    """Route a resolved config to its handler and wrap the result."""
    handler = HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    start = time.perf_counter()
    results, status = handler(config.params, config.master_seed)
    elapsed = time.perf_counter() - start
    report = Report(
        command=config.command,
        params=_jsonable_params(config.params),
        version=__version__,
        master_seed=config.master_seed,
        results=results,
        wall_clock_s=elapsed,
    )
    return report, status


def _jsonable_params(params: dict) -> dict:
    return {k: v for k, v in sorted(params.items()) if v is not None}


def render_report(report: Report, fmt: str) -> str:
    if fmt == "csv":
        rows = report.results
        if not isinstance(rows, list) or not rows or not isinstance(rows[0], dict):
            raise ValueError("csv format needs tabular results; use json")
        buf = io.StringIO()
        writer = csv_module.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n"


def write_output(text: str, path: str | None) -> None:
    """Atomic write (temp file + rename); stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pipret-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipret",
        description="Private inner-product retrieval: bounds, spectra, simulation, audits, Gram-only ML.",
    )
    parser.add_argument("--version", action="version", version=f"pipret {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file {command, params}")
        p.add_argument("--output", help="write the report to this path (atomic)")
        p.add_argument("--format", choices=["json", "csv"], dest="fmt")
        p.add_argument("--master-seed", type=int, dest="master_seed")

    p = sub.add_parser("capacity", help="bound rows over a (K, P, N) grid")
    common(p)
    p.add_argument("--K", help="file-count grid, e.g. 2..4 or 2,5")
    p.add_argument("--P", help="requested-count grid")
    p.add_argument("--N", help="server-count grid")
    p.add_argument("--verbose", action="store_const", const=True, default=None,
                   help="also emit the raw rate fraction, checked exactly")

    p = sub.add_parser("spectrum", help="lambda2 and irreducibility for one (q, K)")
    common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--K", type=int)

    p = sub.add_parser("converge", help="distance-to-uniform trace (CSV by default)")
    common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--Lmax", type=int)

    p = sub.add_parser("simulate", help="retrieval runs with rate accounting")
    common(p)
    p.add_argument("--scheme", choices=sorted(protocol.SCHEMES))
    p.add_argument("--q", type=int)
    p.add_argument("--K", type=int, help="derive T = K(K+1)/2 from databases")
    p.add_argument("--T", type=int, help="virtual file count (decoupled mode)")
    p.add_argument("--N", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--nu", type=int)
    p.add_argument("--L", type=int, help="file length for database-derived runs")
    p.add_argument("--seeds", type=int, help="number of independent runs")

    p = sub.add_parser("audit", help="privacy audit across all request sets")
    common(p)
    p.add_argument("--scheme", choices=sorted(protocol.SCHEMES))
    p.add_argument("--mode", choices=["exact", "sampled"])
    p.add_argument("--samples", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--nu", type=int)

    p = sub.add_parser("ml-demo", help="Gram-only ML on a CSV dataset")
    common(p)
    p.add_argument("--data", help="CSV path with a header row")
    p.add_argument("--label", help="label column name")
    p.add_argument("--task", choices=["svm", "regression", "pca"])
    p.add_argument("--private", action="store_const", const=True, default=None,
                   help="produce the Gram matrix through the retrieval simulator")
    p.add_argument("--scale", type=float, help="fixed-point scale")
    p.add_argument("--q", type=int, help="codec modulus (prime)")
    p.add_argument("--max-abs", type=float, dest="max_abs")
    p.add_argument("--d", type=int, help="PCA target dimension")
    p.add_argument("--box", type=float, help="SVM box bound (soft margin)")

    p = sub.add_parser("reproduce", help="run the verification suite")
    common(p)

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file params, and explicit flags (flags win)."""
    meta = {"command", "config", "output", "fmt", "master_seed"}
    params = {}
    output = args.output
    fmt = args.fmt
    master_seed = args.master_seed
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            filed = json.load(fh)
        if not isinstance(filed, dict):
            raise ValueError("config file must hold a JSON object")
        file_command = filed.get("command")
        if file_command is not None and file_command != args.command:
            raise ValueError(
                f"config file is for {file_command!r}, invoked {args.command!r}"
            )
        file_params = filed.get("params", {})
        if not isinstance(file_params, dict):
            raise ValueError("config params must be a JSON object")
        output = output if output is not None else filed.get("output")
        fmt = fmt if fmt is not None else filed.get("format")
        if not isinstance(output, (str, type(None))):
            raise ValueError("config output must be a path string")
        if fmt not in (None, "json", "csv"):
            raise ValueError(f"config format must be json or csv, not {fmt!r}")
        if master_seed is None:
            master_seed = filed.get("master_seed")
            if master_seed is not None and (
                not isinstance(master_seed, int) or isinstance(master_seed, bool)
            ):
                raise ValueError(f"config master_seed must be an integer, not {master_seed!r}")
        # a null value leaves its param unset, as an omitted flag does
        params.update((key, val) for key, val in file_params.items() if val is not None)
    for key, val in vars(args).items():
        if key in meta or val is None:
            continue
        params[key] = val
    if fmt is None:
        fmt = DEFAULT_FORMATS.get(args.command, "json")
    if master_seed is None:
        master_seed = acceptance.MASTER_SEED_DEFAULT
    return RunConfig(
        command=args.command,
        params=params,
        output=output,
        fmt=fmt,
        master_seed=int(master_seed),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = resolve_config(args)
        report, status = dispatch(config)
        text = render_report(report, config.fmt)
        write_output(text, config.output)
        print(
            f"{config.command} completed in {report.wall_clock_s:.2f}s",
            file=sys.stderr,
        )
        return status
    except (ValueError, protocol.UnsupportedParameters, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
