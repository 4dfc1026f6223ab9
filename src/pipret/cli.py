"""Command-line front end.

Subcommands map one-to-one onto the library surfaces::

    capacity   closed-form bound rows over a (K, P, N) grid
    spectrum   increment-law spectral summary for one (q, K)
    converge   distance-to-uniform trace as CSV rows
    simulate   retrieval runs with rate accounting against the bounds
    audit      privacy audit (exact TV or sampled chi-square)
    ml-demo    Gram-only SVM / regression / PCA on a CSV dataset
    reproduce  the full verification suite with a consolidated verdict

Each command's parameters are declared once, in ``PARAMS``: the table
builds the parser, and ``resolve_params`` checks every value against it,
however it arrived, and fills in the defaults.  Every flag has a
config-file equivalent: ``--config file.json`` loads
``{"command": ..., "params": {...}}`` and explicit flags override file
values.  A config value must have its flag's JSON type, ``null`` leaves it
unset, and an undeclared name is rejected.  Reports are deterministic for a
fixed (config, version, master seed); wall-clock time goes to stderr only.
Exit codes: 0 success, 2 validation error, 3 verification failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import os
import sys
import tempfile
import time
# unused here; perfbench/tracing.py patches cli.ThreadPoolExecutor by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from . import __version__, acceptance, bounds, gram_ml, protocol, spectral
from .fields import Database, pair_count

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCEPTANCE = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    """Resolved invocation: command, params as given (``dispatch`` checks
    them), output routing."""

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


# --- parameters -------------------------------------------------------------------

REQUIRED = object()  # default of a parameter the command cannot run without

# command -> (help, {name: (kind, default, help)}); a kind is int, float, str,
# bool (a flag), parse_range, or a tuple of choices.  Name order is --help order.
PARAMS = {
    "capacity": ("bound rows over a (K, P, N) grid", {
        "K": (parse_range, REQUIRED, "file-count grid, e.g. 2..4 or 2,5"),
        "P": (parse_range, REQUIRED, "requested-count grid"),
        "N": (parse_range, REQUIRED, "server-count grid"),
        "verbose": (bool, False, "also emit the raw rate fraction, checked exactly"),
    }),
    "spectrum": ("lambda2 and irreducibility for one (q, K)", {
        "q": (int, REQUIRED, None),
        "K": (int, REQUIRED, None),
    }),
    "converge": ("distance-to-uniform trace (CSV by default)", {
        "q": (int, REQUIRED, None),
        "K": (int, REQUIRED, None),
        "Lmax": (int, 30, None),
    }),
    "simulate": ("retrieval runs with rate accounting", {
        "scheme": (tuple(sorted(protocol.SCHEMES)), "full_download", None),
        "q": (int, 5, None),
        "K": (int, None, "derive T = K(K+1)/2 from databases"),
        "T": (int, None, "virtual file count (decoupled mode)"),
        "N": (int, 2, None),
        "P": (int, 1, None),
        "nu": (int, None, None),
        "L": (int, 8, "file length for database-derived runs"),
        "seeds": (int, 10, "number of independent runs"),
    }),
    "audit": ("privacy audit across all request sets", {
        "scheme": (tuple(sorted(protocol.SCHEMES)), "full_download", None),
        "mode": (("exact", "sampled"), "exact", None),
        "samples": (int, None, None),
        "T": (int, 3, None),
        "q": (int, 5, None),
        "N": (int, 2, None),
        "P": (int, 1, None),
        "nu": (int, None, None),
    }),
    "ml-demo": ("Gram-only ML on a CSV dataset", {
        "data": (str, REQUIRED, "CSV path with a header row"),
        "label": (str, None, "label column name"),
        "task": (("svm", "regression", "pca"), "svm", None),
        "private": (bool, False, "produce the Gram matrix through the retrieval simulator"),
        "scale": (float, 100.0, "fixed-point scale"),
        "q": (int, 10**9 + 7, "codec modulus (prime)"),
        "max_abs": (float, None, None),
        "d": (int, None, "PCA target dimension"),
        "box": (float, None, "SVM box bound (soft margin)"),
    }),
    "reproduce": ("run the verification suite", {}),
}


# kind -> (the JSON types a value may have, what an error asks for); a type
# matches exactly, so a bool is not an int
_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    parse_range: ((int, str, list), "an integer, a list of integers or a range like 2..5"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve_params(command: str, params: dict) -> dict:
    """``params`` checked against ``PARAMS[command]``, converted by each
    kind, with defaults in place of unset (None) values.  Raises ValueError
    on an undeclared name, a missing required value or a wrong type."""
    declared = PARAMS[command][1]
    for name in params:
        if name not in declared:
            raise ValueError(f"{command} has no parameter {name!r}")
    resolved = {}
    for name, (kind, default, _) in declared.items():
        value = params.get(name)
        if value is None:
            if default is REQUIRED:
                raise ValueError(f"{command} needs {_flag(name)}")
            resolved[name] = default
            continue
        choices = isinstance(kind, tuple)
        types, wanted = ((str,), "one of " + ", ".join(kind)) if choices else _KINDS[kind]
        if (type(value) not in types or choices and value not in kind
                or type(value) is list and any(type(v) is not int for v in value)):
            raise ValueError(f"{command} {_flag(name)} must be {wanted}, not {value!r}")
        try:
            resolved[name] = value if choices else kind(value)
        except ValueError as exc:  # a range string parse_range cannot read
            raise ValueError(f"{command} {_flag(name)}: {exc}") from None
    return resolved


# --- subcommand handlers --------------------------------------------------------


def cmd_capacity(params: dict, master_seed: int):
    grid = params["K"], params["P"], params["N"]
    return bounds.capacity_grid(*grid, verbose=params["verbose"]), EXIT_OK


def cmd_spectrum(params: dict, master_seed: int):
    q, K = params["q"], params["K"]
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
    q, K, L_max = params["q"], params["K"], params["Lmax"]
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


def _scheme_and_space(params: dict, T: int):
    """The scheme and virtual file space of a simulate or audit run; nu
    defaults to the N**T symbols repeated_pir needs, else to 1."""
    scheme = protocol.make_scheme(params["scheme"])
    nu = params["nu"]
    if nu is None:
        nu = params["N"] ** T if scheme.name == "repeated_pir" else 1
    return scheme, protocol.VirtualFileSpace(T=T, q=params["q"], nu=nu)


def cmd_simulate(params: dict, master_seed: int):
    q, K, N, P, L = params["q"], params["K"], params["N"], params["P"], params["L"]
    if K is not None and params["T"] is not None:
        raise ValueError("simulate takes --K or --T, not both")
    if K is not None:
        T = pair_count(K)
    elif params["T"] is not None:
        T = params["T"]
    else:
        raise ValueError("simulate needs --K or --T")
    if params["seeds"] < 1:
        raise ValueError("simulate --seeds must be at least 1")
    scheme, space = _scheme_and_space(params, T)
    scheme.check_supports(space, N)
    if not 1 <= P <= T:
        raise ValueError(f"P must lie in [1, T={T}]")

    def one_run(i):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[master_seed, i]))
        request = tuple(sorted(rng.choice(T, size=P, replace=False).tolist()))
        if K is not None:
            db = Database(q, rng.integers(0, q, size=(space.nu, K, L), dtype=np.int64))
            _, data = protocol.virtual_data_from_databases(db)
        else:
            data = rng.integers(0, q, size=(T, space.nu))
        return protocol.run_retrieval(
            scheme, space, N, request, data,
            seed=np.random.SeedSequence(entropy=[master_seed, i, 1]),
        )

    # no pool: runs hold the GIL, so threads would only add switching between them
    transcripts = [one_run(i) for i in range(params["seeds"])]
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
        lam2 = spectral.lambda2(q, K)
        cb = bounds.theorem1_bounds(K, P, N, L=L, lambda2=lam2)
        results["theorem_bracket"] = {
            "lambda2": lam2,
            "L": L,
            "bracket_low": cb.bracket[0],
            "bracket_high": cb.bracket[1],
        }
    return results, EXIT_OK


def cmd_audit(params: dict, master_seed: int):
    scheme, space = _scheme_and_space(params, params["T"])
    report = protocol.audit_privacy(
        scheme, space, params["N"], params["P"],
        mode=params["mode"], samples=params["samples"], seed=master_seed,
    )
    # a shallow copy: asdict's deep copy of the tests costs 0.3 ms an audit
    payload = dict(vars(report))
    payload["N"] = payload.pop("n_servers")
    payload["bonferroni_threshold"] = payload.pop("threshold")
    return payload, EXIT_OK


def _read_csv_dataset(path: str, label: str | None):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv_module.reader(fh))
    # blank rows are skipped; the others keep their line numbers
    samples = [(n, row) for n, row in enumerate(rows[1:], start=2) if any(t.strip() for t in row)]
    if not samples:
        raise ValueError("dataset needs a header row and at least one sample")
    header = [h.strip() for h in rows[0]]
    label_idx = None
    if label is not None:
        if label not in header:
            raise ValueError(f"label column {label!r} not in header {header}")
        label_idx = header.index(label)
    feats, labels = [], []
    for lineno, row in samples:
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
    """Learn ``task`` from the Gram matrix of a CSV dataset, built privately
    (``--private``, checked bit for bit against the direct Gram) or from the
    samples.  The model and its raw-data check, the ``oracle_max_*_delta``
    that criterion 9 gates on, are ``acceptance.gram_task_report``'s."""
    task, label, private = params["task"], params["label"], params["private"]
    if task in ("svm", "regression") and label is None:
        raise ValueError(f"task {task!r} needs --label")
    X, y, names = _read_csv_dataset(params["data"], label)

    result = {
        "task": task,
        "samples": int(X.shape[0]),
        "features": names,
        "gram_mode": "private" if private else "direct",
    }
    if private:
        scale, q, max_abs = params["scale"], params["q"], params["max_abs"]
        if max_abs is None:
            max_abs = max(1.0, float(np.max(np.abs(X))))
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

    d = params["d"] if params["d"] is not None else min(2, X.shape[0])
    result.update(acceptance.gram_task_report(task, X_eff, y, G, d=d, box=params["box"]))
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
    params = resolve_params(config.command, config.params)
    start = time.perf_counter()
    results, status = handler(params, config.master_seed)
    elapsed = time.perf_counter() - start
    report = Report(
        command=config.command,
        params={k: v for k, v in sorted(config.params.items()) if v is not None},
        version=__version__,
        master_seed=config.master_seed,
        results=results,
        wall_clock_s=elapsed,
    )
    return report, status


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

    for command, (help_text, declared) in PARAMS.items():
        p = sub.add_parser(command, help=help_text)
        common(p)
        for name, (kind, _, help_text) in declared.items():
            if kind is bool:
                how = dict(action="store_const", const=True, default=None)
            elif isinstance(kind, tuple):
                how = dict(choices=kind)
            else:  # a parse_range value stays the text given, as the report echoes it
                how = dict(type=kind if kind in (int, float) else None)
            p.add_argument(_flag(name), dest=name, help=help_text, **how)

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file params and explicit flags (flags win); dispatch
    checks the merged params and fills in the defaults."""
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
            if master_seed is not None and type(master_seed) is not int:
                raise ValueError(f"config master_seed must be an integer, not {master_seed!r}")
        # a null value leaves its param unset, as an omitted flag does
        params.update((key, val) for key, val in file_params.items() if val is not None)
    for name in PARAMS[args.command][1]:
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
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
