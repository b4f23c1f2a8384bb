import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privagg import (
    LambdaGrid, MechanismParams, PrivacyLedger, data_independent_moment, q_threshold,
)
from privagg.cli import account_obj, aggregate_votes, main
from privagg import formats
from privagg.formats import (
    FileFormatError,
    dump_json,
    read_ledger,
    read_votes,
    write_labels,
    write_ledger,
)

DATA = Path(__file__).parent / "data"
GRID = LambdaGrid.default()


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def aggregate_head(k=None, gamma=0.05, seed=0):
    """``aggregate_votes`` on the first ``k`` records of votes_100.jsonl."""
    query_ids, hists = read_votes(DATA / "votes_100.jsonl")
    return aggregate_votes(query_ids[:k], hists[:k], MechanismParams(gamma=gamma, seed=seed),
                           GRID)


class TestReadVotes:
    def test_counts_and_labels_forms_mix(self, tmp_path):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            '{"query_id": "b", "labels": [0, 1, 1], "num_classes": 2}',
            "",
        ]))
        query_ids, hists = read_votes(path)
        assert [(q, h.counts) for q, h in zip(query_ids, hists, strict=True)] == [
            ("a", (3, 1)), ("b", (1, 2))]

    def test_empty_file(self, tmp_path):
        assert read_votes(write(tmp_path / "votes.jsonl", "")) == ([], [])

    def test_invalid_json_names_line(self, tmp_path):
        path = write(tmp_path / "votes.jsonl",
                     '{"query_id": "a", "counts": [3, 1]}\n{oops\n')
        with pytest.raises(FileFormatError, match=r"votes\.jsonl:2"):
            read_votes(path)

    def test_label_out_of_range_names_line(self, tmp_path):
        path = write(tmp_path / "votes.jsonl",
                     '{"query_id": "a", "labels": [0, 5], "num_classes": 3}\n')
        with pytest.raises(FileFormatError, match=r":1.*out of range"):
            read_votes(path)

    def test_mixed_class_count_rejected(self, tmp_path):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            '{"query_id": "b", "counts": [3, 1, 0]}',
        ]))
        with pytest.raises(FileFormatError, match=":2.*classes"):
            read_votes(path)

    @pytest.mark.parametrize("line", [
        '{"counts": [3, 1]}',
        '{"query_id": "a"}',
        '{"query_id": "a", "counts": [3, 1], "labels": [0]}',
        '{"query_id": "a", "labels": [0, 1]}',
        '[1, 2]',
        '{"query_id": "a", "counts": [true, false]}',
        '{"query_id": "a", "labels": [true, true], "num_classes": 2}',
    ])
    def test_malformed_records(self, tmp_path, line):
        with pytest.raises(FileFormatError, match=":1"):
            read_votes(write(tmp_path / "votes.jsonl", line + "\n"))

    def test_duplicate_query_id_names_second_line(self, tmp_path):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            '{"query_id": "b", "counts": [3, 1]}',
            '{"query_id": "a", "counts": [1, 3]}',
        ]))
        with pytest.raises(FileFormatError, match=r":3: duplicate query_id 'a'.*line 1"):
            read_votes(path)

    def test_class_count_beyond_a_list_names_line(self, tmp_path, capsys):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            f'{{"query_id": "b", "labels": [0], "num_classes": {2**70}}}',
        ]))
        with pytest.raises(FileFormatError, match=":2: .*more than a list can hold"):
            read_votes(path)
        assert main(["aggregate", str(path), "--gamma", "0.05",
                     "--labels-out", str(tmp_path / "l.jsonl"),
                     "--ledger-out", str(tmp_path / "g.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["votes.jsonl"]


class TestLedgerRoundTrip:
    def test_write_then_read(self, tmp_path):
        _, ledger = aggregate_head(10)
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, ledger)
        loaded = read_ledger(path)
        assert loaded.gamma == ledger.gamma
        assert loaded.lambda_grid == ledger.lambda_grid
        assert loaded == ledger

    def test_corrupted_entry_names_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _, ledger = aggregate_head(2)
        write_ledger(path, ledger)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"q_bound"', '"qqq"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=":3"):
            read_ledger(path)

    def test_missing_header(self, tmp_path):
        with pytest.raises(FileFormatError, match="header"):
            read_ledger(write(tmp_path / "ledger.jsonl", ""))

    def test_duplicate_query_id_names_second_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _, ledger = aggregate_head(2)
        write_ledger(path, ledger)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(FileFormatError, match=r":4: duplicate query_id"):
            read_ledger(path)

    def test_non_string_query_id_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _, ledger = aggregate_head(1)
        write_ledger(path, ledger)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "query_id": ["a"]})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=":2.*query_id"):
            read_ledger(path)


class TestColumnarLedger:
    """A v1 ledger is read into columns and written back from them alone."""

    def test_fixture_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, read_ledger(DATA / "expected_ledger.jsonl"))
        assert path.read_bytes() == (DATA / "expected_ledger.jsonl").read_bytes()

    @pytest.mark.parametrize("line_index, order, source", [
        (1, 1, "DataIndependent"),
        (4, 8, "DataDependent"),
        (2, 4, "Unknown"),
    ])
    def test_source_disagreeing_with_alpha_rejected(self, tmp_path, line_index, order,
                                                    source):
        def swap(obj):
            moment = obj["moments"][order - 1]
            assert moment["lambda"] == order and moment["source"] != source
            moment["source"] = source

        path = edit_ledger_line(tmp_path / "ledger.jsonl", line_index, swap)
        with pytest.raises(FileFormatError,
                           match=rf":{line_index + 1}: malformed ledger entry: source "
                                 rf"'{source}' at lambda {order} disagrees with its alpha"):
            read_ledger(path)

    def test_missing_source_rejected(self, tmp_path):
        path = edit_ledger_line(tmp_path / "ledger.jsonl", 2,
                                lambda obj: obj["moments"][5].pop("source"))
        with pytest.raises(FileFormatError, match=":3: malformed ledger entry: 'source'"):
            read_ledger(path)

    def test_account_exits_one_on_a_swapped_source(self, tmp_path, capsys):
        path = edit_ledger_line(tmp_path / "ledger.jsonl", 1,
                                lambda obj: obj["moments"][0].update(source="DataIndependent"))
        assert main(["account", str(path), "--delta", "1e-5"]) == 1
        assert ":2: malformed ledger entry: source" in capsys.readouterr().err


def edit_ledger_line(path: Path, line_index: int, edit) -> Path:
    """Rewrite one line of the ledger fixture into ``path`` through ``edit(obj)``."""
    lines = (DATA / "expected_ledger.jsonl").read_text().splitlines()
    obj = json.loads(lines[line_index])
    edit(obj)
    lines[line_index] = json.dumps(obj)
    return write(path, "\n".join(lines) + "\n")


class TestLedgerBooleans:
    """JSON true/false would pass as 1/0 through every numeric check."""

    @pytest.mark.parametrize("line_index, edit, field", [
        pytest.param(1, lambda obj: obj["moments"][0].update({"lambda": True, "alpha": False}),
                     "lambda", id="entry-lambda-and-alpha"),
        pytest.param(1, lambda obj: obj["moments"][0].update({"alpha": False}), "alpha",
                     id="entry-alpha-false"),
        pytest.param(1, lambda obj: obj["moments"][1].update({"alpha": True}), "alpha",
                     id="entry-alpha-true"),
        pytest.param(1, lambda obj: obj.update({"q_bound": True}), "q_bound",
                     id="entry-q-bound-true"),
        pytest.param(1, lambda obj: obj.update({"q_bound": False}), "q_bound",
                     id="entry-q-bound-false"),
        pytest.param(0, lambda obj: obj.update({"seed": False}), "seed", id="header-seed"),
        pytest.param(0, lambda obj: obj.update({"lambda_grid": [True, 2, 3, 4, 5, 6, 7, 8]}),
                     "lambda_grid", id="header-lambda-grid"),
        pytest.param(0, lambda obj: obj.update({"format_version": True}), "format_version",
                     id="header-format-version"),
    ])
    def test_rejected_with_line_number(self, tmp_path, line_index, edit, field):
        path = edit_ledger_line(tmp_path / "ledger.jsonl", line_index, edit)
        with pytest.raises(FileFormatError,
                           match=rf":{line_index + 1}: .*'{field}' holds a boolean"):
            read_ledger(path)

    @pytest.mark.parametrize("line_index", [0, 1])
    def test_gamma_true_rejected_where_gamma_is_one(self, tmp_path, line_index):
        _, ledger = aggregate_head(2, gamma=1.0)
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, ledger)
        assert len(read_ledger(path)) == 2
        lines = path.read_text().splitlines()
        lines[line_index] = lines[line_index].replace('"gamma":1.0', '"gamma":true')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError,
                           match=rf":{line_index + 1}: .*'gamma' holds a boolean"):
            read_ledger(path)

    def test_account_exits_one(self, tmp_path, capsys):
        path = edit_ledger_line(
            tmp_path / "ledger.jsonl", 1,
            lambda obj: obj["moments"][0].update({"lambda": True, "alpha": False}))
        assert main(["account", str(path), "--delta", "1e-5"]) == 1
        assert ":2: malformed ledger entry: 'lambda' holds a boolean" in capsys.readouterr().err


class TestLedgerHeaderTypes:
    """float(), int() and tuple() would coerce a header of strings."""

    @pytest.mark.parametrize("header, message", [
        pytest.param("[1]", "expected an object, got list", id="list"),
        pytest.param('"ledger"', "expected an object, got str", id="string"),
        pytest.param('{"format_version":1,"gamma":"0.05","lambda_grid":"12345678","seed":"0"}',
                     "'gamma' holds a str, not a number", id="all-strings"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":"12345678","seed":0}',
                     "'lambda_grid' holds a str, not a list", id="grid-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,"8"],'
                     '"seed":0}', "'lambda_grid' holds a str, not an integer",
                     id="grid-order-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8.0],'
                     '"seed":0}', "'lambda_grid' holds a float, not an integer",
                     id="grid-order-float"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":"0"}', "'seed' holds a str, not an integer", id="seed-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":0.0}', "'seed' holds a float, not an integer", id="seed-float"),
        pytest.param('{"format_version":1.0,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":0}', "'format_version' holds a float, not an integer",
                     id="version-float"),
    ])
    def test_rejected_on_line_one(self, tmp_path, capsys, header, message):
        lines = (DATA / "expected_ledger.jsonl").read_text().splitlines()
        path = write(tmp_path / "ledger.jsonl", "\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(FileFormatError, match=f":1: malformed ledger header: {message}"):
            read_ledger(path)
        assert main(["account", str(path), "--delta", "1e-5"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_gamma_with_infinite_noise_scale_is_refused(self, tmp_path, capsys):
        # aggregate refuses this gamma; a ledger once accepted it and account
        # wrote "noise_scale": Infinity.
        path = write(tmp_path / "ledger.jsonl",
                     '{"format_version":1,"gamma":5e-324,"lambda_grid":[1,2],"seed":0}\n')
        out = tmp_path / "guarantee.json"
        assert main(["account", str(path), "--delta", "1e-5", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: malformed ledger header: Laplace scale 1/gamma is not "
            "finite for gamma=5e-324\n")
        assert not out.exists()

    def test_fixture_header_still_accepted(self, tmp_path):
        out = tmp_path / "guarantee.json"
        assert main(["account", str(DATA / "expected_ledger.jsonl"), "--delta", "1e-5",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == (DATA / "expected_guarantee.json").read_bytes()


# Ids that need no escape, such as q plus digits, are the lines
# read_ledger's pattern matches; the others take its json.loads path.
query_ids = (st.integers(0, 10**6).map("q{:05d}".format)
             | st.text(alphabet=st.characters(codec="utf-8"), max_size=12)
             | st.sampled_from(['"', "\\", 'a"b\\c', "\n\t\x00\x1f\x7f", "é✓😀",
                                "\u2028", "q0000001"]))
special_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0])
finite_floats = st.floats(min_value=0.0, allow_infinity=False)
alphas = (finite_floats | special_floats | st.integers(0, 3)
          | finite_floats.map(np.float64) | st.integers(0, 3).map(np.int64))


def entry_obj(ledger: PrivacyLedger, index: int) -> dict:
    """Entry ``index`` of ``ledger`` as the object a v1 line holds."""
    moments = []
    for order, alpha in zip(ledger.lambda_grid.values, ledger.alphas[index]):
        bound = data_independent_moment(ledger.gamma, order)
        moments.append({"lambda": order, "alpha": alpha,
                        "source": "DataDependent" if alpha < bound else "DataIndependent"})
    return {"query_id": ledger.query_ids[index], "gamma": ledger.gamma,
            "q_bound": ledger.q_bounds[index], "moments": moments}


def encoded_entries(ledger: PrivacyLedger) -> list[str]:
    bounds = formats._independent_bounds(ledger)
    return [formats._encode_entry(ledger, bounds, *entry)
            for entry in zip(ledger.query_ids, ledger.q_bounds, ledger.alphas)]


@st.composite
def ledgers(draw):
    grid = LambdaGrid(tuple(sorted(draw(st.sets(st.integers(1, 2**40), min_size=1,
                                                  max_size=9)))))
    gamma = draw(st.floats(min_value=1e-3, max_value=3.0)
                 | st.floats(min_value=1e-3, max_value=3.0).map(np.float64)
                 | st.integers(1, 3) | st.sampled_from([1e-300, 1e100, 0.1 + 0.2]))
    ledger = PrivacyLedger(gamma=gamma, lambda_grid=grid, seed=draw(st.integers(0, 2**64)))
    for query_id in draw(st.lists(query_ids, max_size=4, unique=True)):
        ledger.append(query_id, draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1, -0.0])),
                      draw(st.lists(alphas, min_size=len(grid.values),
                                    max_size=len(grid.values))))
    return ledger


class TestEncoders:
    """The template writers emit exactly the bytes of ``json.dumps``."""

    @given(ledger=ledgers())
    def test_entry_matches_json_dumps(self, ledger):
        assert encoded_entries(ledger) == [formats._dump(entry_obj(ledger, i))
                                           for i in range(len(ledger))]

    @pytest.mark.parametrize("alpha", [-0.0, 5e-324, 1e300, 0.1 + 0.2, math.inf])
    @pytest.mark.parametrize("q_bound", [0.0, 1.0])
    def test_entry_edge_values(self, alpha, q_bound):
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid((1, 2)))
        if alpha == math.inf:
            # json writes Infinity where repr writes inf; no ledger holds it.
            with pytest.raises(ValueError, match="finite"):
                ledger.append('q"\\\n\x01é', q_bound, (alpha, 0.25))
            return
        ledger.append('q"\\\n\x01é', q_bound, (alpha, 0.25))
        assert encoded_entries(ledger) == [formats._dump(entry_obj(ledger, 0))]

    @given(query_id=query_ids, label=st.integers())
    def test_label_matches_json_dumps(self, query_id, label):
        assert formats._encode_label(query_id, label) == formats._dump(
            {"query_id": query_id, "label": label})

    @pytest.mark.parametrize("label", [True, 1.0, None, np.int64(1)])
    def test_label_that_is_not_an_int_is_refused(self, label):
        with pytest.raises(ValueError, match="not an int"):
            formats._encode_label("q", label)

    @settings(max_examples=50, deadline=None)
    @given(ledger=ledgers())
    def test_ledger_round_trip(self, tmp_path_factory, ledger):
        path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
        write_ledger(path, ledger)
        loaded = read_ledger(path)
        assert loaded == ledger
        written = path.read_bytes()
        write_ledger(path, loaded)
        assert path.read_bytes() == written


def canonical_lines(ledger: PrivacyLedger) -> list[str]:
    header = formats._dump(formats.provenance(ledger.gamma, ledger.lambda_grid, ledger.seed))
    return [header, *encoded_entries(ledger)]


def read_outcome(path: Path) -> str:
    """The ledger ``read_ledger`` gives, bit for bit, or its error message."""
    try:
        ledger = read_ledger(path)
    except FileFormatError as exc:
        return str(exc)
    return repr((ledger.gamma, ledger.lambda_grid, ledger.seed, ledger.query_ids,
                 ledger.q_bounds, ledger.alphas))


RAW = "@raw@"  # stands for a literal spliced into the dumped line


def set_alpha(text):
    return lambda obj, k: obj["moments"][k].update(alpha=RAW) or text


def set_q_bound(text):
    return lambda obj, k: obj.update(q_bound=RAW) or text


def set_query_id(query_id):
    return lambda obj, k: obj.update(query_id=query_id)


def swap_source(obj, k):
    moment = obj["moments"][k]
    moment["source"] = {"DataDependent": "DataIndependent"}.get(moment["source"],
                                                                "DataDependent")


# One-field edits of a canonical ledger line.  Each returns the literal that
# replaces RAW, if it set one.
LINE_EDITS = {
    "negative-alpha": set_alpha("-0.5"),
    "alpha-1e999": set_alpha("1e999"),
    "integer-alpha": set_alpha("3"),
    "huge-integer-alpha": set_alpha("1" + "0" * 400),
    "minus-zero-alpha": set_alpha("-0.0"),
    "exponent-alpha": set_alpha("25E-1"),
    "q-bound-above-one": set_q_bound("1.5"),
    "integer-q-bound": set_q_bound("0"),
    "swapped-source": swap_source,
    "unknown-source": lambda obj, k: obj["moments"][k].update(source="Unknown"),
    "backslash-id": set_query_id("a\\b"),
    "e-acute-id": set_query_id("\u00e9"),
    "control-character-id": set_query_id("a\x01b"),
    "float-lambda": lambda obj, k: obj["moments"][k].update({"lambda": float(
        obj["moments"][k]["lambda"])}),
}


class TestLedgerReadPaths:
    """Canonical lines skip json.loads; the pattern path and the JSON path agree."""

    @staticmethod
    def json_only(path: Path) -> str:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_entry_pattern", lambda *args: re.compile("(?!)"))
            return read_outcome(path)

    @settings(max_examples=300, deadline=None)
    @given(ledger=ledgers().filter(len), plain_ids=st.booleans(), data=st.data(),
           edit=st.sampled_from([*LINE_EDITS, "repeated-line", "raw-control-character-id",
                                 "spaces", "none"]))
    def test_paths_agree_on_one_field_edits(self, tmp_path_factory, ledger, plain_ids, data,
                                            edit):
        if plain_ids:  # ids that need no escape, so that their lines match the pattern
            plain = PrivacyLedger(gamma=ledger.gamma, lambda_grid=ledger.lambda_grid,
                                  seed=ledger.seed)
            for i, entry in enumerate(zip(ledger.q_bounds, ledger.alphas)):
                plain.append(f"q{i}", *entry)
            ledger = plain
        lines = canonical_lines(ledger)
        index = data.draw(st.integers(1, len(ledger)), label="line")
        k = data.draw(st.integers(0, len(ledger.lambda_grid.values) - 1), label="order")
        obj = json.loads(lines[index])
        if edit == "repeated-line":  # a duplicate id
            lines.append(lines[index])
        elif edit == "raw-control-character-id":
            lines[index] = lines[index].replace('"query_id":"', '"query_id":"\x01', 1)
        elif edit == "spaces":
            lines[index] = json.dumps(obj, sort_keys=True)
        elif edit != "none":
            raw = LINE_EDITS[edit](obj, k)
            lines[index] = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                      ensure_ascii=False)
            if raw is not None:
                lines[index] = lines[index].replace(f'"{RAW}"', raw)
        path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
        write(path, "\n".join(lines) + "\n")
        assert read_outcome(path) == self.json_only(path)

    @pytest.mark.parametrize("gamma, lambda_max", [(0.05, 8), (0.3, 12)])
    def test_canonical_lines_parse_without_json(self, tmp_path, monkeypatch, gamma,
                                                lambda_max):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", str(gamma),
                     "--lambda-max", str(lambda_max), "--labels-out",
                     str(tmp_path / "labels.jsonl"), "--ledger-out", str(ledger)]) == 0
        loads, texts = json.loads, []
        monkeypatch.setattr(formats.json, "loads",
                            lambda text, **kw: texts.append(text) or loads(text, **kw))
        for path in (DATA / "expected_ledger.jsonl", ledger):
            texts.clear()
            assert len(read_ledger(path)) == 100
            assert texts == [path.read_text().splitlines()[0]]  # the header alone


class TestImportCost:
    @staticmethod
    def run_python(code: str) -> str:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    def test_cli_imports_no_heavy_modules(self):
        # scipy, numpy.polynomial, hypothesis and mpmath would each add to
        # every CLI command's start-up time and resident memory; the oracle
        # must not load one on its first quadrature either.  numpy itself
        # loads only once a function draws noise, samples votes or runs
        # quadrature.
        code = ("import sys, privagg.cli\n"
                "heavy = lambda: sorted(m for m in ('scipy', 'numpy', 'numpy.polynomial', "
                "'hypothesis', 'mpmath', 'secrets') if m in sys.modules)\n"
                "print(heavy())\n"
                "privagg.outcome_distribution(privagg.VoteHistogram((3, 1)), 0.5)\n"
                "print(heavy())")
        assert self.run_python(code) == "[]\n['numpy']\n"

    def test_derive_rng_loads_only_numpy_random(self):
        # The seeding tail defines its numpy seed-sequence class on first use,
        # so the CLI imports without numpy; one stream then loads nothing that
        # a bare ``import numpy.random`` does not.
        loaded = ("import sys, privagg.cli\n"
                  "from privagg.seeding import derive_rng\n"
                  "assert 'numpy' not in sys.modules\n"
                  "before = set(sys.modules)\n"
                  "derive_rng(3, 0, 7)\n"
                  "print(sorted(set(sys.modules) - before))")
        bare = ("import sys\n"
                "before = set(sys.modules)\n"
                "import numpy.random\n"
                "print(sorted(set(sys.modules) - before))")
        by_derive_rng = set(ast.literal_eval(self.run_python(loaded)))
        assert "numpy.random" in by_derive_rng
        assert by_derive_rng <= set(ast.literal_eval(self.run_python(bare)))

    def test_account_and_report_run_without_numpy(self, tmp_path):
        out = tmp_path / "guarantee.json"
        code = ("import sys, privagg.cli\n"
                f"argv = ['account', {str(DATA / 'expected_ledger.jsonl')!r}, "
                f"'--delta', '1e-5', '--output', {str(out)!r}]\n"
                "assert privagg.cli.main(argv) == 0\n"
                f"assert privagg.cli.main(['report', {str(out)!r}]) == 0\n"
                "print('numpy' in sys.modules)")
        assert self.run_python(code).splitlines()[-1] == "False"
        assert out.read_bytes() == (DATA / "expected_guarantee.json").read_bytes()


class TestAtomicWrite:
    def test_failed_ledger_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        _, ledger = aggregate_head(3)
        write_ledger(path, ledger)
        old = path.read_bytes()
        encode = formats._encode_entry
        calls = []

        def fail_on_second_entry(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("disk gone")
            return encode(*args)

        monkeypatch.setattr(formats, "_encode_entry", fail_on_second_entry)
        with pytest.raises(RuntimeError, match="disk gone"):
            write_ledger(path, ledger)
        assert len(calls) == 2  # header and first entry were already written
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.jsonl"]

    def test_failed_labels_write_keeps_old_file(self, tmp_path):
        path = write(tmp_path / "labels.jsonl", "old labels\n")
        _, ledger = aggregate_head(2)
        with pytest.raises(ValueError):
            write_labels(path, ledger, [0, object()])
        assert path.read_text() == "old labels\n"
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3]], ids=["fewer", "more"])
    def test_label_count_unlike_the_ledger_keeps_old_file(self, tmp_path, labels):
        path = write(tmp_path / "labels.jsonl", "old labels\n")
        _, ledger = aggregate_head(3)
        with pytest.raises(ValueError, match="zip"):
            write_labels(path, ledger, labels)
        assert path.read_text() == "old labels\n"
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]


class TestAggregate:
    def test_unanimous_queries_get_their_class(self, tmp_path):
        lines = [json.dumps({"query_id": f"u{j}", "counts": [0] * j + [250] + [0] * (9 - j)})
                 for j in range(3)]
        path = write(tmp_path / "votes.jsonl", "\n".join(lines) + "\n")
        query_ids, hists = read_votes(path)
        labels, ledger = aggregate_votes(query_ids, hists, MechanismParams(gamma=0.05), GRID)
        assert labels == [0, 1, 2]
        assert len(ledger) == 3
        for q_bound, alphas in zip(ledger.q_bounds, ledger.alphas):
            assert q_bound < q_threshold(0.05)
            assert all(alpha < data_independent_moment(0.05, order)
                       for order, alpha in zip(GRID.values, alphas))

    def test_deterministic_in_seed(self):
        a_labels, a_ledger = aggregate_head(seed=7)
        b_labels, b_ledger = aggregate_head(seed=7)
        assert a_labels == b_labels
        assert a_ledger == b_ledger
        c_labels, _ = aggregate_head(seed=8)
        assert c_labels != a_labels


class TestCliAggregateAccount:
    def run(self, *argv):
        return main([str(a) for a in argv])

    def test_end_to_end(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        assert self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                        "--seed", "0", "--labels-out", labels,
                        "--ledger-out", ledger) == 0
        assert len(labels.read_text().splitlines()) == 101  # header + 100
        out = tmp_path / "guarantee.json"
        assert self.run("account", ledger, "--delta", "1e-5", "--output", out) == 0
        obj = json.loads(out.read_text())
        assert obj["moments"]["epsilon"] < obj["strong_composition"]["epsilon"]
        assert obj["format_version"] == 1
        assert obj["seed"] == 0 and obj["gamma"] == 0.05

    def test_matches_frozen_baseline(self, tmp_path):
        labels = tmp_path / "labels.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        out = tmp_path / "guarantee.json"
        self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                 "--seed", "0", "--labels-out", labels, "--ledger-out", ledger)
        self.run("account", ledger, "--delta", "1e-5", "--output", out)
        assert labels.read_bytes() == (DATA / "expected_labels.jsonl").read_bytes()
        assert ledger.read_bytes() == (DATA / "expected_ledger.jsonl").read_bytes()
        assert out.read_bytes() == (DATA / "expected_guarantee.json").read_bytes()

    def test_cli_equals_in_process_pipeline(self, tmp_path):
        labels = tmp_path / "labels.jsonl"
        ledger_path = tmp_path / "ledger.jsonl"
        out = tmp_path / "guarantee.json"
        self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                 "--seed", "0", "--labels-out", labels, "--ledger-out", ledger_path)
        self.run("account", ledger_path, "--delta", "1e-5", "--output", out)
        _, ledger = aggregate_head()
        assert dump_json(account_obj(ledger, 1e-5)).encode() == out.read_bytes()

    def test_labels_file_carries_its_ledger_header_and_ids(self, tmp_path):
        labels, ledger = tmp_path / "labels.jsonl", tmp_path / "ledger.jsonl"
        assert self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                        "--labels-out", labels, "--ledger-out", ledger) == 0
        label_lines = labels.read_bytes().splitlines()
        ledger_lines = ledger.read_bytes().splitlines()
        assert label_lines[0] == ledger_lines[0]
        ids = [json.loads(line)["query_id"] for line in ledger_lines[1:]]
        assert [json.loads(line)["query_id"] for line in label_lines[1:]] == ids
        assert ids == read_votes(DATA / "votes_100.jsonl")[0]

    @pytest.mark.parametrize("spelling", ["same-path", "relative-and-absolute",
                                          "hard-link"])
    def test_one_file_for_both_outputs_exits_one(self, tmp_path, capsys, monkeypatch,
                                                 spelling):
        monkeypatch.chdir(tmp_path)
        ledger, labels = tmp_path / "out.jsonl", "out.jsonl"
        if spelling == "same-path":
            labels = str(ledger)
        elif spelling == "hard-link":
            write(ledger, "old ledger\n")
            labels = tmp_path / "labels.jsonl"
            os.link(ledger, labels)
        assert self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                        "--labels-out", labels, "--ledger-out", ledger) == 1
        assert capsys.readouterr().err == (
            f"error: --labels-out and --ledger-out name the same file: {ledger}\n")
        if spelling == "hard-link":
            assert ledger.read_text() == "old ledger\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.jsonl", "out.jsonl"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_empty_votes_warns_and_succeeds(self, tmp_path, capsys):
        votes = write(tmp_path / "votes.jsonl", "")
        assert self.run("aggregate", votes, "--gamma", "0.05",
                        "--labels-out", tmp_path / "l.jsonl",
                        "--ledger-out", tmp_path / "g.jsonl") == 0
        assert "no vote records" in capsys.readouterr().err
        assert len((tmp_path / "l.jsonl").read_text().splitlines()) == 1

    def test_bad_record_exits_one(self, tmp_path, capsys):
        votes = write(tmp_path / "votes.jsonl",
                      '{"query_id": "a", "labels": [9], "num_classes": 3}\n')
        assert self.run("aggregate", votes, "--gamma", "0.05",
                        "--labels-out", tmp_path / "l.jsonl",
                        "--ledger-out", tmp_path / "g.jsonl") == 1
        assert ":1" in capsys.readouterr().err

    def test_failed_ledger_write_releases_no_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        assert self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                        "--labels-out", labels,
                        "--ledger-out", tmp_path / "missing" / "ledger.jsonl") == 1
        assert "error" in capsys.readouterr().err
        assert not labels.exists()

    def test_duplicate_query_id_exits_one(self, tmp_path, capsys):
        votes = write(tmp_path / "votes.jsonl",
                      '{"query_id": "a", "counts": [3, 1]}\n'
                      '{"query_id": "a", "counts": [1, 3]}\n')
        assert self.run("aggregate", votes, "--gamma", "0.05",
                        "--labels-out", tmp_path / "l.jsonl",
                        "--ledger-out", tmp_path / "g.jsonl") == 1
        assert ":2: duplicate query_id" in capsys.readouterr().err
        assert not (tmp_path / "l.jsonl").exists()

    def test_delta_zero_exits_one(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self.run("aggregate", DATA / "votes_100.jsonl", "--gamma", "0.05",
                 "--labels-out", tmp_path / "l.jsonl", "--ledger-out", ledger)
        assert self.run("account", ledger, "--delta", "0") == 1

    def test_bad_delta_is_named_before_the_ledger_is_read(self, tmp_path, capsys):
        assert self.run("account", tmp_path / "missing.jsonl", "--delta", "0") == 1
        assert capsys.readouterr().err == (
            "error: --delta must lie strictly inside (0, 1), got 0.0\n")

    def test_bad_lambda_max_is_named_before_the_votes_are_read(self, tmp_path, capsys):
        assert self.run("aggregate", tmp_path / "missing.jsonl", "--gamma", "0.05",
                        "--lambda-max", "0", "--labels-out", tmp_path / "l.jsonl",
                        "--ledger-out", tmp_path / "g.jsonl") == 1
        assert capsys.readouterr().err == "error: lambda_max must be >= 1, got 0\n"

    def test_bad_gamma_is_named_before_the_votes_are_read(self, tmp_path, capsys):
        assert self.run("aggregate", tmp_path / "missing.jsonl", "--gamma", "-1",
                        "--labels-out", tmp_path / "l.jsonl",
                        "--ledger-out", tmp_path / "g.jsonl") == 1
        assert capsys.readouterr().err == (
            "error: gamma must be a positive finite real, got -1.0\n")

    def test_count_beyond_float_precision_exits_one(self, tmp_path, capsys):
        # Above 2^53 distinct counts share a float; 10^400 overflows float
        # conversion altogether.
        votes = write(tmp_path / "votes.jsonl",
                      '{"query_id": "a", "counts": [3, 1]}\n'
                      f'{{"query_id": "q1", "counts": [{10**400}, 0]}}\n')
        labels, ledger = tmp_path / "labels.jsonl", tmp_path / "ledger.jsonl"
        assert self.run("aggregate", votes, "--gamma", "0.05",
                        "--labels-out", labels, "--ledger-out", ledger) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {votes}:2: histogram holds more than 2**53 votes, "
                       "beyond what a float count can tell apart\n")
        assert not labels.exists() and not ledger.exists()


class TestJsonArtifactsAreFinite:
    def test_infinite_epsilon_is_an_error_not_json(self, tmp_path, capsys):
        # Strong composition at gamma 1e200 overflows 4*T*gamma^2; account
        # once wrote "epsilon": Infinity, which is not JSON.
        ledger = PrivacyLedger(gamma=1e200, lambda_grid=LambdaGrid((1, 2)))
        ledger.append("q0", 0.0, (0.0, 0.0))
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, ledger)
        out = tmp_path / "guarantee.json"
        for output in (["--output", str(out)], []):
            assert main(["account", str(path), "--delta", "1e-5", *output]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "StrongComposition" in captured.err
            assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_dump_json_refuses_non_finite_floats(self, value):
        with pytest.raises(ValueError):
            dump_json({"epsilon": value})


class TestCliOverflow:
    """A q bound beyond the float range is an input error, not a traceback."""

    @pytest.mark.parametrize("counts, gamma, message", [
        ([5, 3], "200", "q threshold overflows at gamma=200.0"),
        ([0, 16], "45", "q bound overflows at gamma=45.0 and deficit 16"),
    ])
    def test_aggregate_exits_one_without_output(self, tmp_path, capsys, counts, gamma,
                                                message):
        votes = write(tmp_path / "votes.jsonl",
                      json.dumps({"query_id": "a", "counts": counts}) + "\n")
        labels, ledger = tmp_path / "labels.jsonl", tmp_path / "ledger.jsonl"
        assert main(["aggregate", str(votes), "--gamma", gamma, "--labels-out", str(labels),
                     "--ledger-out", str(ledger)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert not labels.exists() and not ledger.exists()

    @pytest.mark.parametrize("field", ["alpha", "q_bound"])
    def test_account_exits_one_on_an_integer_beyond_floats(self, tmp_path, capsys, field):
        def edit(obj):
            (obj["moments"][0] if field == "alpha" else obj)[field] = 10**400

        path = edit_ledger_line(tmp_path / "ledger.jsonl", 1, edit)
        assert main(["account", str(path), "--delta", "1e-5"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: malformed ledger entry: '{field}' must be finite and "
            "non-negative, got inf\n")


class TestCliSimulate:
    def test_budget_json(self, tmp_path):
        out = tmp_path / "budget.json"
        assert main(["simulate", "--mode", "budget", "--queries", "20",
                     "--gamma", "0.05", "--delta", "1e-5", "--seed", "1",
                     "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["moments"]["epsilon"] <= obj["strong_composition"]["epsilon"]
        assert obj["ensemble"]["n"] == 250
        assert len(obj["alpha_totals"]) == 8
        assert out.read_bytes() == (DATA / "expected_budget.json").read_bytes()

    def test_budget_json_composes_the_ledger_once(self, tmp_path, monkeypatch):
        from privagg import accountant, cli
        compose, calls = accountant.compose, []

        def counting_compose(ledger):
            calls.append(len(ledger))
            return compose(ledger)

        monkeypatch.setattr(accountant, "compose", counting_compose)
        monkeypatch.setattr(cli, "compose", counting_compose)
        out = tmp_path / "budget.json"
        assert main(["simulate", "--mode", "budget", "--queries", "20",
                     "--gamma", "0.05", "--delta", "1e-5", "--seed", "1",
                     "--output", str(out)]) == 0
        assert calls == [20]
        assert out.read_bytes() == (DATA / "expected_budget.json").read_bytes()

    def test_bad_delta_is_named_before_any_query_is_labelled(self, tmp_path, capsys,
                                                            monkeypatch):
        from privagg import cli
        calls = []
        monkeypatch.setattr(cli, "budget_report", lambda *args, **kw: calls.append(args))
        out = tmp_path / "budget.json"
        assert main(["simulate", "--mode", "budget", "--queries", "20000",
                     "--gamma", "0.05", "--delta", "2", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --delta must lie strictly inside (0, 1), got 2.0\n")
        assert calls == [] and not out.exists()

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--mode", "sweep", "--queries", "50",
                     "--n", "50", "--gammas", "0.01,0.1,1.0", "--seed", "2",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# provenance ")
        assert lines[1] == "gamma,accuracy,mean_gap,mean_normalized_gap"
        assert len(lines) == 5
        assert out.read_bytes() == (DATA / "expected_sweep.csv").read_bytes()

    def test_sweep_without_gammas_exits_one(self, tmp_path):
        assert main(["simulate", "--mode", "sweep",
                     "--output", str(tmp_path / "s.csv")]) == 1

    def test_bad_gammas_item_is_named(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--mode", "sweep", "--gammas", "0.1,,0.2",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: --gammas item 2 is not a number: ''\n"
        assert not out.exists()

    def test_size_beyond_memory_exits_one_without_output(self, tmp_path, capsys):
        # numpy refuses the 10^16-element allocation at once; nothing is touched.
        out = tmp_path / "s.csv"
        assert main(["simulate", "--mode", "sweep", "--queries", "3", "--gammas", "0.1",
                     "--m", "3", "--n", str(10**16), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()


class TestCliVerify:
    def test_report_bytes_are_frozen(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--cases", "40", "--trials", "2000", "--mc-cases", "4",
                     "--seed", "11", "--output", str(out)]) == 0
        assert out.read_bytes() == (DATA / "expected_verify.json").read_bytes()

    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--cases", "15", "--trials", "2000",
                     "--mc-cases", "3", "--seed", "0", "--output", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["failures"] == 0
        assert obj["cases"] == 15
        assert obj["mc_cases"] == 3
        assert set(obj["checks"]) == {"miss_probability", "moment_bound",
                                      "pure_dp", "mc_agreement"}

    def test_zero_trials_is_quadrature_only(self, capsys):
        assert main(["verify", "--cases", "5", "--trials", "0", "--seed", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["mc_cases"] == 0
        assert "mc_agreement" not in obj["checks"]

    def test_seed_variation(self):
        for seed in range(4):
            assert main(["verify", "--cases", "5", "--trials", "0",
                         "--seed", str(seed)]) == 0

    @pytest.mark.parametrize("argv, name", [
        (["--trials", "-1", "--mc-cases", "3"], "trials"),
        (["--mc-cases", "-3"], "mc_cases"),
    ])
    def test_negative_monte_carlo_settings_exit_one(self, capsys, argv, name):
        # Negative values once skipped the cross-check silently, like 0.
        assert main(["verify", "--cases", "1", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be >= 0"), err

    @pytest.mark.parametrize("argv", [
        ["--trials", "0"],
        ["--mc-cases", "0"],
    ])
    def test_run_that_checks_nothing_exits_one(self, tmp_path, capsys, argv):
        # A zero-check report once exited 0 and read as a pass.
        out = tmp_path / "report.json"
        assert main(["verify", "--cases", "0", *argv, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: verify made no checks")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_mc_crosscheck_survives_unanimous_histogram(self, capsys):
        # MC case 7 of this seed is a unanimous 3-class histogram at gamma
        # 0.92, whose quadrature win probability rounds to just above 1.
        assert main(["verify", "--cases", "1", "--mc-cases", "11", "--trials", "1000",
                     "--seed", "21003"]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 0

    def test_bound_violation_exits_two(self, monkeypatch, capsys):
        import privagg.cli as cli
        from privagg.verification import CheckStats, VerificationReport

        def broken(**kwargs):
            report = VerificationReport(cases=1, mc_cases=0)
            report.stats["miss_probability"] = CheckStats(
                checks=1, failures=1, max_violation=0.25)
            return report

        monkeypatch.setattr(cli, "run_verification", broken)
        assert main(["verify", "--cases", "1", "--trials", "0"]) == 2
        assert "FAILED" in capsys.readouterr().err


class TestCliReport:
    def test_guarantee_table(self, capsys):
        assert main(["report", str(DATA / "expected_guarantee.json")]) == 0
        out = capsys.readouterr().out
        assert "Moments" in out and "StrongComposition" in out
        assert "noise scale" in out

    def test_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["simulate", "--mode", "sweep", "--queries", "20", "--n", "20",
              "--gammas", "0.1,1.0", "--seed", "3", "--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "gamma" in capsys.readouterr().out

    def test_unrecognized_json_exits_one(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"foo": 1}')
        assert main(["report", str(path)]) == 1

    @pytest.mark.parametrize("text, message", [
        ("5", "holds a JSON int, not an object"),
        ('{"moments": 1}', "'moments' holds int, not an object"),
        ('{"moments": {"epsilon": 1}}', "'moments.delta' is missing"),
        ("not json", "x.json:1: invalid JSON"),
    ], ids=["int", "moments-int", "no-delta", "not-json"])
    def test_malformed_guarantee_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "x.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
