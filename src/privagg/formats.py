"""File formats: votes and ledgers as JSON Lines, guarantees as JSON,
sweeps as CSV.

Votes come one record per line, either pre-tallied or as raw labels:

    {"query_id": "q1", "counts": [220, 30, 0]}
    {"query_id": "q2", "labels": [0, 0, 1], "num_classes": 3}

Label records are tallied on ingest; mixed forms are fine but every record
must agree on the class count.  Ledgers start with a header object carrying
{format_version, gamma, lambda_grid, seed} so outputs are self-describing,
and a label file repeats its ledger's header and query ids.  Parse errors
always name the offending line, a query_id may appear only once per votes
or ledger file, and a ledger holding a JSON boolean where a number belongs
is rejected.

Every line of a ledger or label file is exactly the bytes of
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` for its object.
Each moment of a ledger entry carries a ``source``: "DataDependent" where
its alpha lies below the data-independent bound 2 gamma^2 l (l+1), and
"DataIndependent" otherwise.  Writers derive it from the alpha, and readers
reject a stored source that disagrees.  The ledger reader takes those
canonical entry lines apart with one pattern per ledger and hands every
other line to ``json``, with the same checks and messages either way.
Every writer replaces its target atomically: a failed write leaves the old
file intact.
"""
from __future__ import annotations

import functools
import json
import os
import re
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .accountant import Guarantee, LambdaGrid, PrivacyLedger, data_independent_moment
from .mechanism import VoteHistogram, tally_votes
from .simulation import SweepResult

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Malformed input file; the message names the file and line."""


def _fail(path, line_no: int, message: str) -> FileFormatError:
    return FileFormatError(f"{path}:{line_no}: {message}")


def _parse_vote_record(path, line_no: int, obj) -> tuple[str, VoteHistogram]:
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
    return query_id, hist


def _check_unique(path, line_no: int, query_id: str, seen: dict[str, int]) -> None:
    first = seen.setdefault(query_id, line_no)
    if first != line_no:
        raise _fail(path, line_no, f"duplicate query_id {query_id!r} (first on line {first})")


def _content_lines(fh):
    """(line number, stripped line) of every line that is not blank."""
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if line:
            yield line_no, line


def read_votes(path) -> tuple[list[str], list[VoteHistogram]]:
    """Parse a votes JSONL file into aligned query id and histogram lists."""
    hists: list[VoteHistogram] = []
    seen: dict[str, int] = {}  # query id -> first line, in file order
    num_classes = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in _content_lines(fh):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _fail(path, line_no, f"invalid JSON: {exc.msg}") from exc
            query_id, hist = _parse_vote_record(path, line_no, obj)
            _check_unique(path, line_no, query_id, seen)
            if num_classes is None:
                num_classes = hist.num_classes
            elif hist.num_classes != num_classes:
                raise _fail(path, line_no, f"record has {hist.num_classes} classes, "
                                           f"earlier records have {num_classes}")
            hists.append(hist)
    return list(seen), hists


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
    tmp = Path(f"{path}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful replace


def _encode_label(query_id: str, label: int) -> str:
    """One label line: the bytes of ``_dump({"query_id": ..., "label": ...})``."""
    if type(label) is not int:
        raise ValueError(f"label of query {query_id!r} is not an int: {label!r}")
    return f'{{"label":{label!r},"query_id":{encode_basestring_ascii(query_id)}}}'


def write_labels(path, ledger: PrivacyLedger, labels: list[int]) -> None:
    """The ledger's header, then one label per entry; a count mismatch raises ValueError."""
    with _replacing(path) as fh:
        fh.write(_dump(provenance(ledger.gamma, ledger.lambda_grid, ledger.seed)) + "\n")
        for query_id, label in zip(ledger.query_ids, labels, strict=True):
            fh.write(_encode_label(query_id, label) + "\n")


def _independent_bounds(ledger: PrivacyLedger) -> tuple[float, ...]:
    """The data-independent alpha at each grid order, as ``book`` computes it."""
    return tuple(data_independent_moment(ledger.gamma, order)
                 for order in ledger.lambda_grid.values)


def _sources(alphas, bounds) -> list[str]:
    """The ``source`` of each alpha of an entry, given ``_independent_bounds``."""
    return ["DataDependent" if alpha < bound else "DataIndependent"
            for alpha, bound in zip(alphas, bounds)]


@functools.lru_cache(maxsize=16, typed=True)
def _entry_template(gamma: float, orders: tuple[int, ...]) -> str:
    """``%`` template of a ledger line with gamma and the orders filled in.

    Its slots are each order's alpha (``%r``) and source (``%s``), then the
    q bound (``%r``) and the ASCII-escaped JSON string of the query id (``%s``).
    """
    moments = ",".join([f'{{"alpha":%r,"lambda":{order!r},"source":"%s"}}'
                        for order in orders])
    return f'{{"gamma":{gamma!r},"moments":[{moments}],"q_bound":%r,"query_id":%s}}'


def _encode_entry(ledger: PrivacyLedger, bounds, query_id, q_bound, alphas) -> str:
    """One ledger line: the bytes of ``_dump`` of the entry's object.

    ``json`` writes every finite float as ``float.__repr__`` does, and a
    ledger holds only ``str`` ids, ``int`` orders and finite floats.
    """
    slots = []
    for alpha, source in zip(alphas, _sources(alphas, bounds)):
        slots += alpha, source
    return (_entry_template(ledger.gamma, ledger.lambda_grid.values)
            % (*slots, q_bound, encode_basestring_ascii(query_id)))


def write_ledger(path, ledger: PrivacyLedger) -> None:
    header = provenance(ledger.gamma, ledger.lambda_grid, ledger.seed)
    bounds = _independent_bounds(ledger)
    with _replacing(path) as fh:
        fh.write(_dump(header) + "\n")
        for entry in zip(ledger.query_ids, ledger.q_bounds, ledger.alphas):
            fh.write(_encode_entry(ledger, bounds, *entry) + "\n")


# A JSON number in float form (with a fraction or an exponent), ASCII digits
# only: float() of its text is the float json.loads gives for it.
_FLOAT_TEXT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"


@functools.lru_cache(maxsize=16, typed=True)
def _entry_pattern(gamma: float, orders: tuple[int, ...]) -> re.Pattern:
    """``_entry_template`` as a pattern: the lines ``_encode_entry`` writes.

    It also matches other float-form numbers and any source word.  Its id is
    a JSON string without escapes or control characters, so the captured
    text is the id itself.  Groups: alpha and source per order, q bound, id.
    """
    return re.compile(re.escape(_entry_template(gamma, orders))
                      .replace('"%s"', '"([A-Za-z]+)"')
                      .replace("%s", r'"([^"\\\x00-\x1f]*)"')
                      .replace("%r", _FLOAT_TEXT))


def _parse_ledger_entry(path, line_no: int, obj, ledger: PrivacyLedger, bounds) -> str:
    """Append the entry ``obj`` to ``ledger`` and return its query id."""
    try:
        moments = obj["moments"]
        query_id, gamma, q_bound = obj["query_id"], obj["gamma"], obj["q_bound"]
        orders = tuple(map(itemgetter("lambda"), moments))
        alphas = tuple(map(itemgetter("alpha"), moments))
        sources = list(map(itemgetter("source"), moments))
        if bool in {type(gamma), *map(type, orders)}:
            # Python compares true as 1 and false as 0: they would pass the checks below.
            name = "gamma" if type(gamma) is bool else "lambda"
            raise ValueError(f"{name!r} holds a boolean, not a number")
        if gamma != ledger.gamma:
            raise ValueError(f"ledger gamma is {ledger.gamma!r}, entry has gamma {gamma!r}")
        if orders != ledger.lambda_grid.values:
            raise ValueError(f"ledger grid is {ledger.lambda_grid.values}, entry has {orders}")
        _append_entry(ledger, bounds, query_id, q_bound, alphas, orders, sources)
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, line_no, f"malformed ledger entry: {exc}") from exc
    return query_id


def _append_entry(ledger: PrivacyLedger, bounds, query_id, q_bound, alphas, orders,
                  sources) -> None:
    """``ledger.append`` an entry; ValueError where a stored source disagrees."""
    ledger.append(query_id, q_bound, alphas)
    for order, source, derived in zip(orders, sources, _sources(ledger.alphas[-1], bounds)):
        if source != derived:
            raise ValueError(f"source {source!r} at lambda {order} disagrees with its "
                             f"alpha, which gives {derived!r}")


def _check_type(name: str, value, types: tuple[type, ...], what: str) -> None:
    """Raise ValueError naming ``name`` unless ``type(value)`` is in ``types``.

    The exact type is required: ``float()``, ``int()`` and ``tuple()`` would
    coerce strings, and Python compares a JSON boolean as 1 or 0.
    """
    if type(value) not in types:
        held = "a boolean" if type(value) is bool else f"a {type(value).__name__}"
        raise ValueError(f"{name!r} holds {held}, not {what}")


def _parse_ledger_header(path, line_no: int, line: str) -> PrivacyLedger:
    try:
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError(f"expected an object, got {type(header).__name__}")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        _check_type("format_version", version, (int,), "an integer")
        gamma, grid, seed = header["gamma"], header["lambda_grid"], header["seed"]
        _check_type("gamma", gamma, (int, float), "a number")
        _check_type("lambda_grid", grid, (list,), "a list")
        for order in grid:
            _check_type("lambda_grid", order, (int,), "an integer")
        _check_type("seed", seed, (int,), "an integer")
        ledger = PrivacyLedger(gamma=gamma, lambda_grid=LambdaGrid(tuple(grid)), seed=seed)
    except json.JSONDecodeError as exc:
        raise _fail(path, line_no, f"invalid JSON header: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, line_no, f"malformed ledger header: {exc}") from exc
    return ledger


def read_ledger(path) -> PrivacyLedger:
    """Parse a ledger JSONL file (header line, then one entry per query)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh)
        line_no, line = next(lines, (0, ""))
        if not line:
            raise FileFormatError(f"{path}: empty ledger (missing header line)")
        ledger = _parse_ledger_header(path, line_no, line)
        bounds = _independent_bounds(ledger)
        orders = ledger.lambda_grid.values
        pattern = _entry_pattern(ledger.gamma, orders)
        seen: dict[str, int] = {}
        for line_no, line in lines:
            match = pattern.fullmatch(line)
            if match is None:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise _fail(path, line_no, f"invalid JSON: {exc.msg}") from exc
                query_id = _parse_ledger_entry(path, line_no, obj, ledger, bounds)
            else:
                # Gamma and the orders are the header's; the checks are those
                # of _parse_ledger_entry from here on.
                *slots, q_bound, query_id = match.groups()
                try:
                    _append_entry(ledger, bounds, query_id, float(q_bound),
                                  tuple(map(float, slots[::2])), orders, slots[1::2])
                except ValueError as exc:
                    raise _fail(path, line_no, f"malformed ledger entry: {exc}") from exc
            _check_unique(path, line_no, query_id, seen)
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
    """Deterministic pretty JSON used for every JSON artifact.

    Raises ValueError on an infinite or NaN float, which JSON cannot hold.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
