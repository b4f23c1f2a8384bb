"""File formats: votes and ledgers as JSON Lines, guarantees as JSON,
sweeps as CSV.

Votes come one record per line, either pre-tallied or as raw labels:

    {"query_id": "q1", "counts": [220, 30, 0]}
    {"query_id": "q2", "labels": [0, 0, 1], "num_classes": 3}

Label records are tallied on ingest; mixed forms are fine but every record
must agree on the class count.  Ledgers and label files start with a header
object carrying {format_version, gamma, lambda_grid, seed} so outputs are
self-describing.  Parse errors always name the offending line, and a
query_id may appear only once per votes or ledger file.  Every writer
replaces its target atomically: a failed write leaves the old file intact.
"""
from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .accountant import (
    Guarantee,
    LambdaGrid,
    MomentSource,
    PrivacyLedger,
    QueryMoment,
)
from .mechanism import VoteHistogram, tally_votes
from .simulation import SweepResult

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Malformed input file; the message names the file and line."""


@dataclass(frozen=True, slots=True)
class VoteRecord:
    query_id: str
    histogram: VoteHistogram


def _fail(path, line_no: int, message: str) -> FileFormatError:
    return FileFormatError(f"{path}:{line_no}: {message}")


def _parse_vote_record(path, line_no: int, obj) -> VoteRecord:
    if not isinstance(obj, dict):
        raise _fail(path, line_no, f"expected an object, got {type(obj).__name__}")
    query_id = obj.get("query_id")
    if not isinstance(query_id, str) or not query_id:
        raise _fail(path, line_no, "missing or empty 'query_id'")
    has_counts = "counts" in obj
    has_labels = "labels" in obj
    if has_counts == has_labels:
        raise _fail(path, line_no, "record needs exactly one of 'counts' or 'labels'")
    try:
        if has_counts:
            hist = VoteHistogram(tuple(obj["counts"]))
        else:
            m = obj.get("num_classes")
            if not isinstance(m, int):
                raise ValueError("label records need an integer 'num_classes'")
            hist = tally_votes(obj["labels"], m)
    except (ValueError, TypeError) as exc:
        raise _fail(path, line_no, str(exc)) from exc
    return VoteRecord(query_id=query_id, histogram=hist)


def _check_unique(path, line_no: int, query_id: str, seen: dict[str, int]) -> None:
    first = seen.setdefault(query_id, line_no)
    if first != line_no:
        raise _fail(path, line_no, f"duplicate query_id {query_id!r} (first on line {first})")


def read_votes(path) -> list[VoteRecord]:
    """Parse a votes JSONL file; empty files yield an empty list."""
    records: list[VoteRecord] = []
    seen: dict[str, int] = {}
    num_classes = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _fail(path, line_no, f"invalid JSON: {exc.msg}") from exc
            record = _parse_vote_record(path, line_no, obj)
            _check_unique(path, line_no, record.query_id, seen)
            if num_classes is None:
                num_classes = record.histogram.num_classes
            elif record.histogram.num_classes != num_classes:
                raise _fail(path, line_no,
                            f"record has {record.histogram.num_classes} classes, "
                            f"earlier records have {num_classes}")
            records.append(record)
    return records


def provenance(gamma: float, lambda_grid: LambdaGrid, seed: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "gamma": gamma,
        "lambda_grid": list(lambda_grid.values),
        "seed": seed,
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _replacing(path):
    """Write to a temp file beside ``path``; move it over ``path`` only on success."""
    tmp = Path(f"{path}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful replace


def write_labels(path, header: dict, labels: list[tuple[str, int]]) -> None:
    with _replacing(path) as fh:
        fh.write(_dump(header) + "\n")
        for query_id, label in labels:
            fh.write(_dump({"query_id": query_id, "label": label}) + "\n")


def _moment_to_obj(moment: QueryMoment) -> dict:
    return {
        "query_id": moment.query_id,
        "gamma": moment.gamma,
        "q_bound": moment.q_bound,
        "moments": [
            {"lambda": order, "alpha": alpha, "source": source.value}
            for order, alpha, source in zip(moment.orders, moment.alphas, moment.sources)
        ],
    }


def write_ledger(path, ledger: PrivacyLedger) -> None:
    header = provenance(ledger.gamma, ledger.lambda_grid, ledger.seed)
    with _replacing(path) as fh:
        fh.write(_dump(header) + "\n")
        for moment in ledger:
            fh.write(_dump(_moment_to_obj(moment)) + "\n")


def _parse_ledger_entry(path, line_no: int, obj) -> QueryMoment:
    try:
        moments = obj["moments"]
        return QueryMoment(query_id=obj["query_id"], gamma=obj["gamma"],
                           q_bound=obj["q_bound"],
                           orders=tuple(e["lambda"] for e in moments),
                           alphas=tuple(e["alpha"] for e in moments),
                           sources=tuple(MomentSource(e["source"]) for e in moments))
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, line_no, f"malformed ledger entry: {exc}") from exc


def read_ledger(path) -> PrivacyLedger:
    """Parse a ledger JSONL file (header line, then one entry per query)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, line.strip()) for i, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty ledger (missing header line)")
    line_no, header_line = lines[0]
    try:
        header = json.loads(header_line)
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {header.get('format_version')!r}")
        ledger = PrivacyLedger(
            gamma=float(header["gamma"]),
            lambda_grid=LambdaGrid(tuple(header["lambda_grid"])),
            seed=int(header["seed"]),
        )
    except json.JSONDecodeError as exc:
        raise _fail(path, line_no, f"invalid JSON header: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, line_no, f"malformed ledger header: {exc}") from exc
    seen: dict[str, int] = {}
    for line_no, line in lines[1:]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(path, line_no, f"invalid JSON: {exc.msg}") from exc
        moment = _parse_ledger_entry(path, line_no, obj)
        _check_unique(path, line_no, moment.query_id, seen)
        try:
            ledger.append(moment)
        except ValueError as exc:
            raise _fail(path, line_no, str(exc)) from exc
    return ledger


def guarantee_to_obj(guarantee: Guarantee, lambda_grid: LambdaGrid,
                     num_queries: int) -> dict:
    return {
        "epsilon": guarantee.epsilon,
        "delta": guarantee.delta,
        "argmin_lambda": guarantee.argmin_lambda,
        "method": guarantee.method.value,
        "lambda_grid": list(lambda_grid.values),
        "num_queries": num_queries,
    }


def dump_json(obj) -> str:
    """Deterministic pretty JSON used for every JSON artifact."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with _replacing(path) as fh:
        fh.write(dump_json(obj))


def write_sweep_csv(path, result: SweepResult, header: dict) -> None:
    """Sweep table as CSV with a provenance comment line on top."""
    with _replacing(path) as fh:
        fh.write("# provenance " + _dump(header) + "\n")
        fh.write("gamma,accuracy,mean_gap,mean_normalized_gap\n")
        for point in result.points:
            fh.write(f"{point.gamma!r},{point.accuracy!r},"
                     f"{result.mean_gap!r},{result.mean_normalized_gap!r}\n")
