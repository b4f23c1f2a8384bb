"""File formats: votes and ledgers as JSON Lines, guarantees as JSON,
sweeps as CSV.

Votes come one record per line, either pre-tallied or as raw labels:

    {"query_id": "q1", "counts": [220, 30, 0]}
    {"query_id": "q2", "labels": [0, 0, 1], "num_classes": 3}

Label records are tallied on ingest; mixed forms are fine but every record
must agree on the class count.  ``read_votes`` yields each record as it parses
its line, so its reader holds no more records than it keeps.  Ledgers start
with a header object carrying
{format_version, gamma, lambda_grid, seed} so outputs are self-describing,
and a label file repeats its ledger's header and query ids.  Parse errors
always name the offending line, a query_id may appear only once per votes
or ledger file, and a ledger holding a JSON boolean where a number belongs
is rejected.  A header's gamma, orders and seed take the rules of
``PrivacyLedger`` and ``LambdaGrid``, as ``aggregate``'s arguments do.

Every line of a ledger or label file is exactly the bytes of
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` for its object.
Each moment of a ledger entry carries a ``source``: "DataDependent" where
its alpha lies below the data-independent bound 2 gamma^2 l (l+1), and
"DataIndependent" otherwise.  Both are derived from the entry's q bound
(``PrivacyLedger.row``).  An entry line is a head, the text up to
``"q_bound":`` (gamma, then each order with its alpha and source), and a
tail, ``<q bound>,"query_id":<id>}``.  The head is a function of the row,
filled into one template per ledger (``_template``), so writers print it.
The reader formats only the bound row head: it parses the tail alone of a
line that starts with that head, and parses every alpha, source and tail of
a line that ``_entry_pattern``, the template as a pattern, matches; either
line passes when its values are the row its q bound gives.  Any other line
goes through ``json``, and a stored alpha or source that differs from the
row is rejected, naming the order.
Every writer replaces its target atomically: a failed write leaves the old
file intact.  The ledger and label writers replace only a file of the same
bytes: one of other bytes records another run's spend or labels, and is kept.
"""
from __future__ import annotations

import filecmp
import json
import os
import re
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from operator import itemgetter, lt
from pathlib import Path
from typing import Iterator

from .accountant import Guarantee, LambdaGrid, PrivacyLedger, _independent_row
from .mechanism import VoteHistogram, _integer, tally_votes
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
            if (m := _integer(obj.get("num_classes"))) is None:
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


def read_votes(path) -> Iterator[tuple[str, VoteHistogram]]:
    """Yield the ``(query_id, histogram)`` record of each line of a votes JSONL file.

    The file opens at the first pull, and closing the generator closes it.  A line
    is parsed when its record is pulled, so its error comes after the records before it.
    """
    seen: dict[str, int] = {}  # query id -> first line, in file order
    num_classes = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in _content_lines(fh):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _fail(path, line_no, f"invalid JSON: {exc.msg}") from exc
            except ValueError as exc:  # an integer past int's digit limit
                raise _fail(path, line_no, str(exc)) from exc
            query_id, hist = _parse_vote_record(path, line_no, obj)
            _check_unique(path, line_no, query_id, seen)
            if num_classes is None:
                num_classes = hist.num_classes
            elif hist.num_classes != num_classes:
                raise _fail(path, line_no, f"record has {hist.num_classes} classes, "
                                           f"earlier records have {num_classes}")
            yield query_id, hist


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
def _replacing(path, only_same: bool = False):
    """Write to a temp file beside ``path``; move it over ``path`` only on success.
    With ``only_same``, an existing ``path`` of other bytes is kept: ValueError names it."""
    tmp = Path(f"{path}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        if only_same and os.path.exists(path) and not filecmp.cmp(tmp, path, shallow=False):
            raise ValueError(f"{path} holds another run's output; refusing to replace it")
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
    with _replacing(path, only_same=True) as fh:
        fh.write(_dump(provenance(ledger.gamma, ledger.lambda_grid, ledger.seed)) + "\n")
        for query_id, label in zip(ledger.query_ids, labels, strict=True):
            fh.write(_encode_label(query_id, label) + "\n")


_SOURCES = ("DataIndependent", "DataDependent")  # an alpha's source, indexed by alpha < bound


def _slots(alphas, bounds) -> list:
    """Each order's alpha and ``source``: "DataDependent" where the alpha is below its bound."""
    slots = []
    for alpha, bound in zip(alphas, bounds):
        slots.append(alpha)  # two appends build no tuple: every v1 head comes through here
        slots.append("DataDependent" if alpha < bound else "DataIndependent")
    return slots


def _template(ledger: PrivacyLedger) -> str:
    """The ``%`` head template: an entry line's text up to ``"q_bound":``, with a ``%r``
    for each order's alpha and a ``%s`` for its source."""
    moments = ",".join([f'{{"alpha":%r,"lambda":{order!r},"source":"%s"}}'
                        for order in ledger.lambda_grid.values])
    return f'{{"gamma":{ledger.gamma!r},"moments":[{moments}],"q_bound":'


def _heads(ledger: PrivacyLedger):
    """The data-independent row, and ``head(alphas)``: an entry line's text up to ``"q_bound":``,
    the bound row head (formatted once) or else the head template filled."""
    bounds, template = _independent_row(ledger.gamma, ledger.lambda_grid.values), _template(ledger)
    bound_head = template % tuple(_slots(bounds, bounds))

    def head(alphas) -> str:
        return bound_head if alphas == bounds else template % tuple(_slots(alphas, bounds))
    return bounds, head


def _entry_lines(ledger: PrivacyLedger):
    """Each entry's line, newline included: the bytes of ``_dump`` of its object.

    ``json`` writes every finite float as ``float.__repr__`` does, and a
    ledger holds only ``str`` ids, ``int`` orders and finite floats (no -0.0).
    """
    (_, head), row, quote = _heads(ledger), ledger.row, encode_basestring_ascii
    for query_id, q_bound in zip(ledger.query_ids, ledger.q_bounds):
        yield f'{head(row(q_bound))}{q_bound!r},"query_id":{quote(query_id)}}}\n'


def write_ledger(path, ledger: PrivacyLedger) -> None:
    with _replacing(path, only_same=True) as fh:
        fh.write(_dump(provenance(ledger.gamma, ledger.lambda_grid, ledger.seed)) + "\n")
        fh.writelines(_entry_lines(ledger))


# A JSON number in float form (a fraction or an exponent, ASCII digits): its
# float() is json.loads' value for it.
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
# An entry's tail: its q bound in float form, then its id as a JSON string
# without escapes or control characters, so that the captured text is the id itself.
_TAIL = re.compile(f"({_FLOAT})" r',"query_id":"([^"\\\x00-\x1f]*)"\}')


def _entry_pattern(ledger: PrivacyLedger) -> re.Pattern:
    """A whole entry line: the head template with a float-form group for each alpha and
    a word group for each source, then ``_TAIL``'s pattern."""
    head = re.escape(_template(ledger)).replace("%r", f"({_FLOAT})")
    return re.compile(head.replace("%s", f"({'|'.join(_SOURCES)})") + _TAIL.pattern)


def _json_entry(obj, ledger: PrivacyLedger) -> tuple:
    """(query id, q bound, ``_slots``) of the entry ``obj`` that ``json`` read."""
    moments = obj["moments"]
    query_id, gamma, q_bound = obj["query_id"], obj["gamma"], obj["q_bound"]
    orders = tuple(map(itemgetter("lambda"), moments))
    slots = [moment[key] for moment in moments for key in ("alpha", "source")]
    for name, values in (("gamma", [gamma]), ("lambda", orders), ("alpha", slots[::2])):
        # Python compares true as 1 and false as 0: they would pass the checks below.
        if bool in map(type, values):
            raise ValueError(f"{name!r} holds a boolean, not a number")
    if gamma != ledger.gamma:
        raise ValueError(f"ledger gamma is {ledger.gamma!r}, entry has gamma {gamma!r}")
    if orders != ledger.lambda_grid.values:
        raise ValueError(f"ledger grid is {ledger.lambda_grid.values}, entry has {orders}")
    return query_id, q_bound, slots


def _parse_ledger_header(path, line_no: int, line: str) -> PrivacyLedger:
    try:
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError(f"expected an object, got {type(header).__name__}")
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:  # a JSON true equals 1
            raise ValueError(f"unsupported format_version {version!r}")
        if type(grid := header["lambda_grid"]) is not list:  # tuple() would split a string
            raise ValueError(f"lambda_grid must be a list, got {grid!r}")
        ledger = PrivacyLedger(gamma=header["gamma"], lambda_grid=LambdaGrid(tuple(grid)),
                               seed=header["seed"])
    except json.JSONDecodeError as exc:
        raise _fail(path, line_no, f"invalid JSON header: {exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, line_no, f"malformed ledger header: {exc}") from exc
    return ledger


def read_ledger(path) -> PrivacyLedger:
    """Parse a ledger JSONL file (header line, then one entry per query).

    A line that starts with the bound row head and ends in a tail whose q bound
    gives the bound row has only its tail parsed.  A line that ``_entry_pattern``
    matches passes when the float of each alpha is its q bound's row and each source
    is the one that row gives.  Any other goes through ``json`` and the row check.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh)
        line_no, line = next(lines, (0, ""))
        if not line:
            raise FileFormatError(f"{path}: empty ledger (missing header line)")
        ledger = _parse_ledger_header(path, line_no, line)
        (bounds, head), orders = _heads(ledger), ledger.lambda_grid.values
        bound_head, slot_count = head(bounds), 2 * len(orders)
        match_tail, match_entry = _TAIL.fullmatch, _entry_pattern(ledger).fullmatch
        append, row, q_bounds = ledger.append, ledger.row, ledger.q_bounds
        sources: dict[bytes, tuple] = {}  # the source words of each mask met in this file
        seen: dict[str, int] = {}
        for line_no, line in lines:
            try:
                try:
                    if line.startswith(bound_head):  # the bound row: one string compare
                        match = match_tail(line, len(bound_head))
                        checked = match and row(q_bound := float(match[1])) == bounds
                    elif match := match_entry(line):
                        texts = match.groups()
                        alphas = row(q_bound := float(texts[-2]))
                        mask = bytes(map(lt, alphas, bounds))  # 1 where DataDependent
                        if (words := sources.get(mask)) is None:
                            words = sources[mask] = tuple(map(_SOURCES.__getitem__, mask))
                        # Lists: tuple(map(...)) here (over-allocated, then shrunk in place)
                        # raised the peak RSS of a 10^4-entry read by 0.8 MB.
                        checked = ([*map(float, texts[0:slot_count:2])] == [*alphas]
                                   and texts[1:slot_count:2] == words)
                    else:
                        checked = False
                except ValueError:  # no row where q_threshold overflows; json names other faults
                    checked = False
                if checked:
                    append(query_id := match[match.lastindex], q_bound)  # the last group
                else:
                    query_id, q_bound, slots = _json_entry(json.loads(line), ledger)
                    append(query_id, q_bound)
                    if slots != (given := _slots(row(q_bounds[-1]), bounds)):
                        k = [a == b for a, b in zip(slots, given)].index(False)
                        raise ValueError(f"{('alpha', 'source')[k % 2]} {slots[k]!r} at lambda "
                                         f"{orders[k // 2]} differs from {given[k]!r}, which "
                                         "its q_bound gives")
            except json.JSONDecodeError as exc:
                raise _fail(path, line_no, f"invalid JSON: {exc.msg}") from exc
            except (KeyError, TypeError, ValueError) as exc:
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
