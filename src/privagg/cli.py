"""Command-line interface.

Subcommands:
    aggregate  votes JSONL, read in chunks -> noisy labels + privacy ledger
    account    ledger JSONL -> (epsilon, delta) guarantee JSON
    simulate   synthetic ensemble sweeps (CSV) and budget reports (JSON)
    verify     oracle soundness suite -> verification report JSON
    report     human-readable tables from sweep CSV / guarantee JSON

Exit codes: 0 success, 1 input error, 2 bound violation (verify only).
All randomness derives from --seed; rerunning a command with the same
inputs and seed reproduces its outputs byte for byte, and 'aggregate'
replaces no ledger or labels file of other bytes, which another run wrote.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import re
import sys
from contextlib import closing
from itertools import islice

from .accountant import LambdaGrid, PrivacyLedger, _check_delta, compose
from .accountant import moments_guarantee, strong_composition_eps
from .formats import (
    FileFormatError,
    FORMAT_VERSION,
    dump_json,
    guarantee_to_obj,
    provenance,
    read_ledger,
    read_votes,
    write_json,
    write_labels,
    write_ledger,
    write_sweep_csv,
)
from .mechanism import MechanismParams, noisy_labels
from .simulation import EnsembleConfig, ErrorModel, budget_report, sweep_gamma
from .verification import run_verification

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_BOUND_VIOLATION = 2

# Vote records per chunk of aggregate_votes.  Of 256, 4096 and one chunk for the
# whole file, 256 held the least memory at the same speed.
CHUNK = 256

# verify's --cases, --trials and --mc-cases defaults are run_verification's own.
_VERIFY_DEFAULTS = {name: parameter.default for name, parameter
                    in inspect.signature(run_verification).parameters.items()}


def aggregate_votes(records, params: MechanismParams,
                    grid: LambdaGrid) -> tuple[list[int], PrivacyLedger]:
    """Label every ``(query_id, histogram)`` record with the noisy argmax and book its moments.

    Records are pulled ``CHUNK`` at a time.  Each chunk is labelled, then booked
    into the one ledger, then dropped, so no histogram outlives its chunk.
    ``labels[i]`` is the label of ``ledger.query_ids[i]``, drawn from the
    stream (params.seed, mechanism-noise, i) whatever the chunk.  The CLI
    'aggregate' subcommand is exactly this plus file IO.
    """
    ledger = PrivacyLedger(gamma=params.gamma, lambda_grid=grid, seed=params.seed)
    labels: list[int] = []
    records = iter(records)
    while chunk := list(islice(records, CHUNK)):
        query_ids, hists = zip(*chunk)
        labels += noisy_labels(hists, params, start=len(labels))
        ledger.book(hists, query_ids)
    return labels, ledger


def account_obj(ledger: PrivacyLedger, delta: float,
                totals: dict[int, float] | None = None) -> dict:
    """Guarantee JSON object for a ledger: moments (from ``totals`` if given) plus the baseline."""
    num_queries = len(ledger)
    moments = moments_guarantee(ledger, delta, totals)
    strong = strong_composition_eps(ledger.gamma, num_queries, delta)
    obj = provenance(ledger.gamma, ledger.lambda_grid, ledger.seed)
    obj["noise_scale"] = 1.0 / ledger.gamma
    obj["moments"] = guarantee_to_obj(moments, ledger.lambda_grid, num_queries)
    obj["strong_composition"] = guarantee_to_obj(strong, ledger.lambda_grid, num_queries)
    return obj


def budget_report_obj(ledger: PrivacyLedger, accuracy: float, delta: float,
                      config: EnsembleConfig) -> dict:
    """Budget JSON object: the ledger's guarantee plus the run's own keys."""
    totals = compose(ledger)
    obj = account_obj(ledger, delta, totals)
    obj.update({
        "delta": delta,
        "num_queries": len(ledger),
        "aggregate_accuracy": None if math.isnan(accuracy) else accuracy,
        "ensemble": {
            "n": config.n,
            "m": config.m,
            "teacher_accuracy": config.teacher_accuracy,
            "error_model": config.error_model.value,
        },
        "alpha_totals": {str(k): v for k, v in sorted(totals.items())},
    })
    return obj


def _emit_json(obj: dict, output, note: str) -> None:
    """Write ``obj`` to ``output`` and ``note`` to stderr, or ``obj`` to stdout."""
    if output:
        write_json(output, obj)
        print(note, file=sys.stderr)
    else:
        sys.stdout.write(dump_json(obj))


def _same_file(a, b) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)  # also sees hard links
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(inputs, outputs) -> None:
    """Refuse an output that names an input or an earlier output: (flag, path) pairs."""
    for i, (flag, path) in enumerate(outputs):
        for other, earlier in [*inputs, *outputs[:i]]:
            if _same_file(path, earlier):
                raise ValueError(f"{flag} and {other} name the same file: {earlier}")


def _cmd_aggregate(args) -> int:
    # Check every argument before reading the votes, so a bad one is named
    # even when the file is missing.
    grid = LambdaGrid.up_to(args.lambda_max)
    params = MechanismParams(gamma=args.gamma, seed=args.seed)
    _check_outputs([("votes", args.votes)],
                   [("--ledger-out", args.ledger_out), ("--labels-out", args.labels_out)])
    # Closing the records closes the votes file, also when a record raises.
    with closing(read_votes(args.votes)) as records:
        labels, ledger = aggregate_votes(records, params, grid)
    if not labels:
        print(f"warning: {args.votes} contains no vote records; "
              "writing header-only outputs", file=sys.stderr)
    # Book the spend before releasing any label: a failed ledger write
    # must leave no labels behind.  Neither replaces another run's file.
    write_ledger(args.ledger_out, ledger)
    write_labels(args.labels_out, ledger, labels)
    print(f"aggregated {len(labels)} queries at gamma={args.gamma} "
          f"(noise scale 1/gamma = {1.0 / args.gamma:g}) -> "
          f"{args.labels_out}, {args.ledger_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_account(args) -> int:
    _check_delta("--delta", args.delta)
    _check_outputs([("ledger", args.ledger)], [("--output", args.output)] * bool(args.output))
    ledger = read_ledger(args.ledger)
    _emit_json(account_obj(ledger, args.delta), args.output,
               f"guarantee for {len(ledger)} queries -> {args.output}")
    return EXIT_OK


def _make_config(args) -> EnsembleConfig:
    return EnsembleConfig(
        n=args.n, m=args.m, teacher_accuracy=args.teacher_accuracy,
        error_model=ErrorModel(args.error_model), queries=args.queries,
        seed=args.seed)


def _parse_gammas(text: str) -> list[float]:
    """The comma-separated ``--gammas`` items as floats; a bad item is named."""
    grid = []
    for i, item in enumerate(text.split(","), 1):
        try:
            grid.append(float(item))
        except ValueError:
            raise ValueError(f"--gammas item {i} is not a number: {item!r}") from None
    return grid


def _cmd_simulate(args) -> int:
    config = _make_config(args)
    if args.mode == "sweep":
        if not args.gammas:
            raise ValueError("--gammas is required for --mode sweep")
        grid = _parse_gammas(args.gammas)
        result = sweep_gamma(config, grid)
        header = {
            "format_version": FORMAT_VERSION, "seed": config.seed,
            "gamma_grid": grid, "n": config.n, "m": config.m,
            "teacher_accuracy": config.teacher_accuracy,
            "queries": config.queries,
        }
        write_sweep_csv(args.output, result, header)
        print(f"swept {len(grid)} gamma values over {config.queries} queries "
              f"-> {args.output}", file=sys.stderr)
    else:
        if args.gamma is None:
            raise ValueError("--gamma is required for --mode budget")
        _check_delta("--delta", args.delta)
        ledger, accuracy = budget_report(config, args.gamma,
                                         grid=LambdaGrid.up_to(args.lambda_max))
        write_json(args.output, budget_report_obj(ledger, accuracy, args.delta, config))
        print(f"budget report for {config.queries} queries at gamma={args.gamma} "
              f"-> {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    grid = LambdaGrid.up_to(args.lambda_max)
    report = run_verification(num_cases=args.cases, trials=args.trials,
                              mc_cases=args.mc_cases, seed=args.seed, grid=grid)
    if not any(s.checks for s in report.stats.values()):
        raise ValueError("verify made no checks: --cases is 0 and the Monte Carlo "
                         "cross-check is off (--trials or --mc-cases is 0)")
    obj = {"format_version": FORMAT_VERSION, "seed": args.seed,
           "lambda_grid": list(grid.values)}
    obj.update(report.to_dict())
    _emit_json(obj, args.output, f"verification report -> {args.output}")
    if report.failures:
        print(f"verification FAILED: {report.failures} bound violations "
              f"(max violation {report.max_violation:.3e})", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _number(obj: dict, key: str, prefix: str = "") -> float:
    if key not in obj:
        raise ValueError(f"'{prefix}{key}' is missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{prefix}{key}' holds {type(value).__name__}, not a number")
    return value


def _format_guarantee_rows(obj: dict) -> list[tuple[str, str, str, str]]:
    rows = []
    for key in ("moments", "strong_composition"):
        if key in obj:
            g = obj[key]
            if not isinstance(g, dict):
                raise ValueError(f"'{key}' holds {type(g).__name__}, not an object")
            lam = g.get("argmin_lambda")
            rows.append((str(g.get("method")), f"{_number(g, 'epsilon', key + '.'):.4f}",
                         f"{_number(g, 'delta', key + '.'):g}",
                         "-" if lam is None else str(lam)))
    return rows


def _cmd_report(args) -> int:
    path = str(args.file)
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8") as fh:
            body = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
        print(f"sweep table from {path}:")
        for ln in body:
            print("  " + "".join(c.ljust(22) for c in ln.split(",")))
        return EXIT_OK
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer past int's digit limit; the text before it
        # is valid JSON, so its strings and numbers match whole up to that integer
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?', text)
        bad = next(m for m in tokens if m[1] and not (m[2] or m[3])
                   and len(m[1]) > sys.get_int_max_str_digits())
        raise FileFormatError(f"{path}:{text.count(chr(10), 0, bad.start()) + 1}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    try:
        rows = _format_guarantee_rows(obj)
        gamma = _number(obj, "gamma") if "gamma" in obj else None
        accuracy = obj.get("aggregate_accuracy")
        if accuracy is not None:
            accuracy = _number(obj, "aggregate_accuracy")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} holds neither guarantees nor a sweep table")
    print(f"privacy guarantees from {path}:")
    if gamma is not None:
        scale = f"{1.0 / gamma:g}" if gamma else "inf"
        print(f"  gamma = {gamma:g}  (noise scale 1/gamma = {scale})")
    if obj.get("num_queries") is not None:
        print(f"  queries = {obj['num_queries']}")
    elif "moments" in obj:
        print(f"  queries = {obj['moments'].get('num_queries')}")
    if accuracy is not None:
        print(f"  aggregate accuracy = {accuracy:.4f}")
    print("  {:<20}{:>10}{:>10}  {}".format("method", "epsilon", "delta", "lambda*"))
    for method, eps, delta, lam in rows:
        print(f"  {method:<20}{eps:>10}{delta:>10}  {lam}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privagg",
        description="Noisy-max vote aggregation with moments-based privacy accounting.")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)  # shared by aggregate, simulate, verify
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--lambda-max", type=int, default=LambdaGrid.default().values[-1])

    p = sub.add_parser("aggregate", parents=[seeded],
                       help="label queries and write a privacy ledger")
    p.add_argument("votes", help="votes JSONL file")
    p.add_argument("--gamma", type=float, required=True,
                   help="inverse noise scale (Laplace scale is 1/gamma)")
    p.add_argument("--labels-out", required=True, dest="labels_out")
    p.add_argument("--ledger-out", required=True, dest="ledger_out")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("account", help="convert a ledger into an (epsilon, delta) guarantee")
    p.add_argument("ledger", help="ledger JSONL file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--output", help="also write the guarantee JSON here")
    p.set_defaults(func=_cmd_account)

    ensemble = EnsembleConfig()
    p = sub.add_parser("simulate", parents=[seeded],
                       help="synthetic-ensemble sweeps and budget reports")
    p.add_argument("--mode", choices=("sweep", "budget"), default="budget")
    p.add_argument("--n", type=int, default=ensemble.n, help="number of teachers")
    p.add_argument("--m", type=int, default=ensemble.m, help="number of classes")
    p.add_argument("--teacher-accuracy", type=float, default=ensemble.teacher_accuracy)
    p.add_argument("--error-model", choices=[e.value for e in ErrorModel],
                   default=ensemble.error_model.value)
    p.add_argument("--queries", type=int, default=ensemble.queries)
    p.add_argument("--gamma", type=float, help="single gamma (budget mode)")
    p.add_argument("--gammas", help="comma-separated ascending gammas (sweep mode)")
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[seeded], help="run the oracle soundness suite")
    p.add_argument("--cases", type=int, default=_VERIFY_DEFAULTS["num_cases"],
                   help="random histograms for the bound-soundness sweep")
    p.add_argument("--trials", type=int, default=_VERIFY_DEFAULTS["trials"],
                   help="Monte Carlo trials per cross-check case (0 skips MC)")
    p.add_argument("--mc-cases", type=int, default=_VERIFY_DEFAULTS["mc_cases"],
                   dest="mc_cases")
    p.add_argument("--output", help="also write the report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="pretty-print a sweep CSV or guarantee JSON")
    p.add_argument("file")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # a size too large to allocate, such as --n 10**16
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
