import ast
import hashlib
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
    EnsembleConfig, Guarantee, GuaranteeMethod, LambdaGrid, MechanismParams, PrivacyLedger,
    VoteHistogram, data_dependent_moment, data_independent_moment, eps_for_delta,
    mc_outcome_frequencies, q_threshold, run_verification, strong_composition_eps,
    synth_query_votes, tally_votes,
)
from privagg.cli import CHUNK, account_obj, aggregate_votes, main
from privagg import cli, formats, mechanism, noisy_labels
from privagg.oracle import enumerate_neighbors, exact_moment
from privagg.verification import mc_crosscheck, soundness_sweep
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
    records = list(read_votes(DATA / "votes_100.jsonl"))
    return aggregate_votes(records[:k], MechanismParams(gamma=gamma, seed=seed), GRID)


class TestReadVotes:
    def test_counts_and_labels_forms_mix(self, tmp_path):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            '{"query_id": "b", "labels": [0, 1, 1], "num_classes": 2}',
            "",
        ]))
        assert [(q, h.counts) for q, h in read_votes(path)] == [("a", (3, 1)), ("b", (1, 2))]

    def test_empty_file(self, tmp_path):
        assert list(read_votes(write(tmp_path / "votes.jsonl", ""))) == []

    def test_invalid_json_names_line(self, tmp_path):
        path = write(tmp_path / "votes.jsonl",
                     '{"query_id": "a", "counts": [3, 1]}\n{oops\n')
        with pytest.raises(FileFormatError, match=r"votes\.jsonl:2"):
            list(read_votes(path))

    def test_label_out_of_range_names_line(self, tmp_path):
        path = write(tmp_path / "votes.jsonl",
                     '{"query_id": "a", "labels": [0, 5], "num_classes": 3}\n')
        with pytest.raises(FileFormatError, match=r":1.*out of range"):
            list(read_votes(path))

    def test_mixed_class_count_rejected(self, tmp_path):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            '{"query_id": "b", "counts": [3, 1, 0]}',
        ]))
        with pytest.raises(FileFormatError, match=":2.*classes"):
            list(read_votes(path))

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
            list(read_votes(write(tmp_path / "votes.jsonl", line + "\n")))

    def test_duplicate_query_id_names_second_line(self, tmp_path):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            '{"query_id": "b", "counts": [3, 1]}',
            '{"query_id": "a", "counts": [1, 3]}',
        ]))
        with pytest.raises(FileFormatError, match=r":3: duplicate query_id 'a'.*line 1"):
            list(read_votes(path))

    def test_class_count_beyond_a_list_names_line(self, tmp_path, capsys):
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            f'{{"query_id": "b", "labels": [0], "num_classes": {2**70}}}',
        ]))
        with pytest.raises(FileFormatError, match=":2: .*more than a list can hold"):
            list(read_votes(path))
        assert main(["aggregate", str(path), "--gamma", "0.05",
                     "--labels-out", str(tmp_path / "l.jsonl"),
                     "--ledger-out", str(tmp_path / "g.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["votes.jsonl"]

    def test_integer_past_the_digit_limit_names_line(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for it, not a JSONDecodeError.
        path = write(tmp_path / "votes.jsonl", "\n".join([
            '{"query_id": "a", "counts": [3, 1]}',
            f'{{"query_id": "b", "counts": [{"9" * 5000}, 1]}}',
        ]))
        assert main(["aggregate", str(path), "--gamma", "0.05",
                     "--labels-out", str(tmp_path / "l.jsonl"),
                     "--ledger-out", str(tmp_path / "g.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: Exceeds the limit") and err.count("\n") == 1
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


def zero_dependent_alphas(obj):
    for moment in obj["moments"]:
        if moment["source"] == "DataDependent":
            moment["alpha"] = 0.0


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
                                 rf"'{source}' at lambda {order} differs from '"):
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

    @pytest.mark.parametrize("edit, lines, message", [
        # account once exited 0 here, with epsilon 3.1941 for 3.2469.
        (zero_dependent_alphas, range(1, 101),
         ":2: malformed ledger entry: alpha 0.0 at lambda 1 differs from "
         "0.00019072002433289932, which its q_bound gives"),
        (lambda obj: obj["moments"][2].update(alpha=math.nextafter(obj["moments"][2]["alpha"],
                                                                   1.0)), [1],
         ":2: malformed ledger entry: alpha 0.0006032035410081957 at lambda 3 differs from "
         "0.0006032035410081956, which its q_bound gives"),
        (lambda obj: obj["moments"][7].update(source="DataIndependent"), [3],
         ":4: malformed ledger entry: source 'DataIndependent' at lambda 8 differs from "
         "'DataDependent', which its q_bound gives"),
    ], ids=["zeroed-alphas", "one-ulp", "independent-source"])
    def test_account_refuses_moments_its_q_bound_does_not_give(self, tmp_path, capsys, edit,
                                                               lines, message):
        text = (DATA / "expected_ledger.jsonl").read_text().splitlines()
        for index in lines:
            obj = json.loads(text[index])
            edit(obj)
            text[index] = formats._dump(obj)
        path = write(tmp_path / "ledger.jsonl", "\n".join(text) + "\n")
        out = tmp_path / "guarantee.json"
        assert main(["account", str(path), "--delta", "1e-5", "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}{message}\n")
        assert not out.exists()

    def test_true_alpha_is_refused_where_the_row_holds_one(self, tmp_path):
        # At gamma 0.5 the data-independent bound at order 1 is 2 * 0.25 * 2 = 1.0.
        ledger = PrivacyLedger(gamma=0.5, lambda_grid=GRID)
        ledger.append("q", 0.75)
        assert ledger.row(0.75)[0] == 1.0  # and Python compares true as 1.0
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, ledger)
        text = path.read_text()
        write(path, text.replace('{"alpha":1.0,', '{"alpha":true,', 1))
        with pytest.raises(FileFormatError, match=":2: malformed ledger entry: 'alpha' holds "
                                                  "a boolean, not a number"):
            read_ledger(path)


def edit_ledger_line(path: Path, line_index: int, edit) -> Path:
    """Rewrite one line of the ledger fixture into ``path`` through ``edit(obj)``."""
    lines = (DATA / "expected_ledger.jsonl").read_text().splitlines()
    obj = json.loads(lines[line_index])
    edit(obj)
    lines[line_index] = json.dumps(obj)
    return write(path, "\n".join(lines) + "\n")


class TestLedgerBooleans:
    """JSON true/false would pass as 1/0 through every numeric check."""

    # An entry names the field; a header field takes the rule of the constructor
    # that aggregate's arguments go through, with its message.
    @pytest.mark.parametrize("line_index, edit, message", [
        pytest.param(1, lambda obj: obj["moments"][0].update({"lambda": True, "alpha": False}),
                     "'lambda' holds a boolean", id="entry-lambda-and-alpha"),
        pytest.param(1, lambda obj: obj["moments"][0].update({"alpha": False}),
                     "'alpha' holds a boolean", id="entry-alpha-false"),
        pytest.param(1, lambda obj: obj["moments"][1].update({"alpha": True}),
                     "'alpha' holds a boolean", id="entry-alpha-true"),
        pytest.param(1, lambda obj: obj.update({"q_bound": True}), "'q_bound' holds a boolean",
                     id="entry-q-bound-true"),
        pytest.param(1, lambda obj: obj.update({"q_bound": False}), "'q_bound' holds a boolean",
                     id="entry-q-bound-false"),
        pytest.param(0, lambda obj: obj.update({"seed": False}),
                     "seed must be an integer in [0, 2**64), got False", id="header-seed"),
        pytest.param(0, lambda obj: obj.update({"lambda_grid": [True, 2, 3, 4, 5, 6, 7, 8]}),
                     "lambda grid values must be integers, got True", id="header-lambda-grid"),
        pytest.param(0, lambda obj: obj.update({"format_version": True}),
                     "unsupported format_version True", id="header-format-version"),
    ])
    def test_rejected_with_line_number(self, tmp_path, line_index, edit, message):
        path = edit_ledger_line(tmp_path / "ledger.jsonl", line_index, edit)
        with pytest.raises(FileFormatError, match=rf":{line_index + 1}: .*{re.escape(message)}"):
            read_ledger(path)

    @pytest.mark.parametrize("line_index, message", [
        (0, "gamma must be a positive finite real, got True"), (1, "'gamma' holds a boolean")],
        ids=["0", "1"])
    def test_gamma_true_rejected_where_gamma_is_one(self, tmp_path, line_index, message):
        _, ledger = aggregate_head(2, gamma=1.0)
        path = tmp_path / "ledger.jsonl"
        write_ledger(path, ledger)
        assert len(read_ledger(path)) == 2
        lines = path.read_text().splitlines()
        lines[line_index] = lines[line_index].replace('"gamma":1.0', '"gamma":true')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=rf":{line_index + 1}: .*{re.escape(message)}"):
            read_ledger(path)

    def test_account_exits_one(self, tmp_path, capsys):
        path = edit_ledger_line(
            tmp_path / "ledger.jsonl", 1,
            lambda obj: obj["moments"][0].update({"lambda": True, "alpha": False}))
        assert main(["account", str(path), "--delta", "1e-5"]) == 1
        assert ":2: malformed ledger entry: 'lambda' holds a boolean" in capsys.readouterr().err


class TestLedgerHeaderTypes:
    """float(), int() and tuple() would coerce a header of strings.  Gamma, the
    orders and the seed take the rules of PrivacyLedger and LambdaGrid."""

    @pytest.mark.parametrize("header, message", [
        pytest.param("[1]", "expected an object, got list", id="list"),
        pytest.param('"ledger"', "expected an object, got str", id="string"),
        pytest.param('{"format_version":1,"gamma":"0.05","lambda_grid":"12345678","seed":"0"}',
                     "lambda_grid must be a list, got '12345678'", id="all-strings"),
        pytest.param('{"format_version":1,"gamma":"0.05","lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":0}', "gamma must be a positive finite real, got '0.05'",
                     id="gamma-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":"12345678","seed":0}',
                     "lambda_grid must be a list, got '12345678'", id="grid-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,"8"],'
                     '"seed":0}', "lambda grid values must be integers, got '8'",
                     id="grid-order-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8.0],'
                     '"seed":0}', "lambda grid values must be integers, got 8.0",
                     id="grid-order-float"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":"0"}', "seed must be an integer in [0, 2**64), got '0'",
                     id="seed-string"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":0.0}', "seed must be an integer in [0, 2**64), got 0.0",
                     id="seed-float"),
        pytest.param('{"format_version":1.0,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":0}', "unsupported format_version 1.0", id="version-float"),
        pytest.param('{"format_version":1,"gamma":0.05,"lambda_grid":[1,2,3,4,5,6,7,8],'
                     '"seed":-1}', "seed must be an integer in [0, 2**64), got -1",
                     id="seed-negative"),
        # An OverflowError traceback before: the bound 2 gamma^2 l (l+1) has no float.
        pytest.param(f'{{"format_version":1,"gamma":0.05,"lambda_grid":[1,{10**400}],'
                     '"seed":0}', f"order {10**400} is beyond the float range",
                     id="grid-order-past-floats"),
    ])
    def test_rejected_on_line_one(self, tmp_path, capsys, header, message):
        lines = (DATA / "expected_ledger.jsonl").read_text().splitlines()
        path = write(tmp_path / "ledger.jsonl", "\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(FileFormatError,
                           match=":1: malformed ledger header: " + re.escape(message)):
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


def entry_obj(ledger: PrivacyLedger, index: int) -> dict:
    """Entry ``index`` of ``ledger`` as the object a v1 line holds."""
    moments = []
    q_bound = ledger.q_bounds[index]
    for order, alpha in zip(ledger.lambda_grid.values, ledger.row(q_bound)):
        bound = data_independent_moment(ledger.gamma, order)
        moments.append({"lambda": order, "alpha": alpha,
                        "source": "DataDependent" if alpha < bound else "DataIndependent"})
    return {"query_id": ledger.query_ids[index], "gamma": ledger.gamma,
            "q_bound": q_bound, "moments": moments}


def encoded_entries(ledger: PrivacyLedger) -> list[str]:
    return [line.removesuffix("\n") for line in formats._entry_lines(ledger)]


def q_bounds(gamma: float):
    """q bounds in and at the ends of [0, 1], at, beside and below q_threshold(gamma),
    and where 1 - e^(2 gamma) q is below the accountant's denominator guard."""
    t = q_threshold(gamma)
    return (st.floats(0.0, 1.0) | st.floats(0.0, 1.0).map(lambda f: f * t)
            | st.sampled_from([0, 1, -0.0, 0.0, 1.0, 5e-324, math.nextafter(t, 0.0), t,
                               t * (1 - 1e-14)]))


@st.composite
def ledgers(draw):
    grid = LambdaGrid(tuple(sorted(draw(st.sets(st.integers(1, 2**40), min_size=1,
                                                  max_size=9)))))
    # The denominator guard trips from gamma about 13.8; at gamma 1e-300 every bound is 0.
    gamma = draw(st.floats(min_value=1e-3, max_value=3.0)
                 | st.floats(min_value=1e-3, max_value=3.0).map(np.float64)
                 | st.integers(1, 3) | st.sampled_from([1e-300, 0.1 + 0.2, 20.0]))
    ledger = PrivacyLedger(gamma=gamma, lambda_grid=grid, seed=draw(st.integers(0, 2**64 - 1)))
    for query_id in draw(st.lists(query_ids, max_size=4, unique=True)):
        ledger.append(query_id, draw(q_bounds(ledger.gamma)))
    return ledger


class TestEncoders:
    """The template writers emit exactly the bytes of ``json.dumps``."""

    @given(ledger=ledgers())
    def test_entry_matches_json_dumps(self, ledger):
        assert encoded_entries(ledger) == [formats._dump(entry_obj(ledger, i))
                                           for i in range(len(ledger))]

    @pytest.mark.parametrize("q_bound", [0.0, -0.0, 5e-324, 0.1 + 0.2, 1.0])
    @pytest.mark.parametrize("gamma", [0.05, 20.0])
    def test_entry_edge_values(self, gamma, q_bound):
        ledger = PrivacyLedger(gamma=gamma, lambda_grid=LambdaGrid((1, 2)))
        ledger.append('q"\\\n\x01é', q_bound)
        assert encoded_entries(ledger) == [formats._dump(entry_obj(ledger, 0))]

    @pytest.mark.parametrize("gamma", [1e-300, 0.05])
    def test_derived_rows_hold_no_negative_zero(self, gamma):
        # A row equal to the bounds takes the bound row head, so a -0.0 in it
        # would be written as 0.0.  At gamma 1e-300 every bound underflows to 0.0.
        ledger = PrivacyLedger(gamma=gamma, lambda_grid=LambdaGrid((1, 2)))
        for i, q_bound in enumerate([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0]):
            ledger.append(f"q{i}", q_bound)
            assert all(math.copysign(1.0, alpha) == 1.0 for alpha in ledger.row(q_bound))
        assert encoded_entries(ledger) == [formats._dump(entry_obj(ledger, i))
                                           for i in range(len(ledger))]

    def test_bound_row_head_is_formatted_once_after_another_gamma_is_booked(
            self, tmp_path, monkeypatch):
        # Booking at another gamma replaces the accountant's cached row; the
        # first ledger's rows are still equal to the bounds its writer finds.
        hists = [VoteHistogram((10, 10))] * 20
        first = PrivacyLedger(gamma=0.05, lambda_grid=GRID)
        first.book(hists, [f"q{i}" for i in range(20)])
        PrivacyLedger(gamma=0.3, lambda_grid=GRID).book(hists[:1], ["r"])
        heads, slots = [], formats._slots
        monkeypatch.setattr(formats, "_slots", lambda *args: heads.append(args) or slots(*args))
        write_ledger(tmp_path / "ledger.jsonl", first)
        assert len(heads) == 1  # the bound row head itself
        monkeypatch.undo()
        write_ledger(tmp_path / "again.jsonl", read_ledger(tmp_path / "ledger.jsonl"))
        assert (tmp_path / "again.jsonl").read_bytes() == (
            tmp_path / "ledger.jsonl").read_bytes()

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
                 ledger.q_bounds, [ledger.row(q) for q in ledger.q_bounds]))


RAW = "@raw@"  # stands for a literal spliced into the dumped line


def set_alpha(text):
    return lambda obj, k: obj["moments"][k].update(alpha=RAW) or text


def set_q_bound(text):
    return lambda obj, k: obj.update(q_bound=RAW) or text


def set_query_id(query_id):
    return lambda obj, k: obj.update(query_id=query_id)


def nudge_alpha(obj, k):
    """One ulp up from the alpha of order ``k``, as the literal that replaces RAW."""
    moment = obj["moments"][k]
    text = repr(math.nextafter(moment["alpha"], math.inf))
    moment["alpha"] = RAW
    return text


def respelled(field, spelling):
    """Write the alpha of order ``k`` (or the q bound) as ``spelling`` of its repr."""
    def edit(obj, k):
        holder = obj["moments"][k] if field == "alpha" else obj
        text = spelling(repr(holder[field]))
        holder[field] = RAW
        return text
    return edit


def trailing_zero(text):
    mantissa, e, exponent = text.partition("e")
    return f"{mantissa}{'0' if '.' in mantissa else '.0'}{e}{exponent}"


def exponent_form(text):
    """The same decimal with an integer mantissa: 0.0123 as 123e-4."""
    mantissa, _, exponent = text.partition("e")
    whole, _, fraction = mantissa.partition(".")
    return f"{(whole + fraction).lstrip('0') or '0'}e{int(exponent or 0) - len(fraction)}"


# Spellings of a number: two of the same value that JSON reads, then five
# that float() reads, three of which JSON refuses.  A path that took float()
# of unchecked text would accept those lines where json rejects them.
SPELLINGS = {
    "trailing-zero": trailing_zero,
    "exponent-form": exponent_form,
    "plus-sign": lambda text: f"+{text}",
    "underscore": lambda text: re.sub(r"([0-9])([0-9])", r"\1_\2", trailing_zero(text), count=1),
    "spaces": lambda text: f" {text} ",
    "arabic-indic-digits": lambda text: text.translate(str.maketrans(
        "0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
    "infinity": lambda text: "Infinity",
}


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
    "one-ulp-alpha": nudge_alpha,
    "q-bound-above-one": set_q_bound("1.5"),
    "integer-q-bound": set_q_bound("0"),
    "swapped-source": swap_source,
    "unknown-source": lambda obj, k: obj["moments"][k].update(source="Unknown"),
    "backslash-id": set_query_id("a\\b"),
    "e-acute-id": set_query_id("\u00e9"),
    "control-character-id": set_query_id("a\x01b"),
    "float-lambda": lambda obj, k: obj["moments"][k].update({"lambda": float(
        obj["moments"][k]["lambda"])}),
    **{f"{name}-{field.replace('_', '-')}": respelled(field, spelling)
       for field in ("alpha", "q_bound") for name, spelling in SPELLINGS.items()},
}


def edit_line(lines: list[str], index: int, k: int, edit: str) -> None:
    """Apply ``edit`` to ``lines[index]`` at order ``k``: a ``LINE_EDITS`` key,
    "repeated-line", "raw-control-character-id", "spaces" or "none"."""
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


class TestLedgerReadPaths:
    """Canonical lines skip json.loads; the pattern path and the JSON path agree."""

    @staticmethod
    def json_only(path: Path) -> str:
        """``read_outcome`` with ``json.loads`` reading every line up to the one
        the outcome names; a tail that never matches turns both patterns off."""
        loads, texts = json.loads, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_TAIL", re.compile("(?!)"))
            mp.setattr(formats.json, "loads",
                       lambda text, **kw: texts.append(text) or loads(text, **kw))
            outcome = read_outcome(path)
        failed = re.match(re.escape(f"{path}:") + r"(\d+): ", outcome)
        with open(path, encoding="utf-8") as fh:
            lines = [line for line_no, line in formats._content_lines(fh)
                     if failed is None or line_no <= int(failed[1])]
        assert texts == lines
        return outcome

    @settings(max_examples=300, deadline=None)
    @given(ledger=ledgers().filter(len), plain_ids=st.booleans(), data=st.data(),
           edit=st.sampled_from([*LINE_EDITS, "repeated-line", "raw-control-character-id",
                                 "spaces", "none"]))
    def test_paths_agree_on_one_field_edits(self, tmp_path_factory, ledger, plain_ids, data,
                                            edit):
        if plain_ids:  # ids that need no escape, so that their lines match the pattern
            plain = PrivacyLedger(gamma=ledger.gamma, lambda_grid=ledger.lambda_grid,
                                  seed=ledger.seed)
            for i, q_bound in enumerate(ledger.q_bounds):
                plain.append(f"q{i}", q_bound)
            ledger = plain
        lines = canonical_lines(ledger)
        index = data.draw(st.integers(1, len(ledger)), label="line")
        k = data.draw(st.integers(0, len(ledger.lambda_grid.values) - 1), label="order")
        edit_line(lines, index, k, edit)
        path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
        write(path, "\n".join(lines) + "\n")
        assert read_outcome(path) == self.json_only(path)

    # At gamma 1e-300 every bound is 0.0.
    @pytest.mark.parametrize("gamma", [0.05, 1e-300])
    @pytest.mark.parametrize("edit", [*LINE_EDITS, "repeated-line",
                                      "raw-control-character-id", "spaces"])
    def test_paths_agree_on_bound_row_edits(self, tmp_path, gamma, edit):
        ledger = PrivacyLedger(gamma=gamma, lambda_grid=GRID)
        for query_id in ("q1", "q2"):
            ledger.append(query_id, 0.75)  # above q_threshold: the row is the bounds
        lines = canonical_lines(ledger)
        assert lines[1:] == [formats._dump(entry_obj(ledger, i)) for i in range(2)]
        edit_line(lines, 1, 3, edit)
        path = write(tmp_path / "ledger.jsonl", "\n".join(lines) + "\n")
        assert read_outcome(path) == self.json_only(path)

    @staticmethod
    def counted_read(path: Path) -> tuple[PrivacyLedger, list[str], list[tuple]]:
        """``read_ledger(path)``, the texts ``json.loads`` read and the rows ``_slots`` took."""
        loads, slots, texts, rows = json.loads, formats._slots, [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats.json, "loads",
                       lambda text, **kw: texts.append(text) or loads(text, **kw))
            mp.setattr(formats, "_slots", lambda alphas, bounds: rows.append(alphas)
                       or slots(alphas, bounds))
            return read_ledger(path), texts, rows

    @pytest.mark.parametrize("gamma, lambda_max", [(0.05, 8), (0.3, 12)])
    def test_canonical_lines_parse_without_json(self, tmp_path, gamma, lambda_max):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", str(gamma),
                     "--lambda-max", str(lambda_max), "--labels-out",
                     str(tmp_path / "labels.jsonl"), "--ledger-out", str(ledger)]) == 0
        for path in (DATA / "expected_ledger.jsonl", ledger):
            loaded, texts, rows = self.counted_read(path)
            assert len(loaded) == 100
            assert texts == [path.read_text().splitlines()[0]]  # the header alone
            # The bound row head, formatted once per file; a data-dependent line is
            # parsed, so no head of its row exists to memoize.
            bounds = loaded.row(1.0)  # no q_threshold reaches 1: the data-independent row
            assert rows == [bounds]
            assert any(row != bounds for row in map(loaded.row, loaded.q_bounds))

    @settings(max_examples=100, deadline=None)
    @given(ledger=ledgers())
    def test_json_reads_the_header_and_the_lines_of_escaped_ids(self, tmp_path_factory,
                                                                 ledger):
        path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
        write_ledger(path, ledger)
        loaded, texts, _ = self.counted_read(path)
        assert loaded == ledger
        escaped = [query_id for query_id in ledger.query_ids
                   if formats.encode_basestring_ascii(query_id) != f'"{query_id}"']
        assert len(texts) == 1 + len(escaped)

    @pytest.mark.parametrize("edit, message", [
        ("none", "q threshold overflows at gamma=200.0"),
        ("gamma-true", "'gamma' holds a boolean, not a number"),
    ], ids=["none", "gamma-true"])
    def test_paths_agree_where_no_row_is_derived(self, tmp_path, edit, message):
        # Past gamma about 177 q_threshold overflows and every entry is refused,
        # but a line that is not the program's own is refused for its own fault.
        ledger = PrivacyLedger(gamma=200.0, lambda_grid=LambdaGrid((1, 2)))
        bounds, head = formats._heads(ledger)
        line = head(bounds) + '0.75,"query_id":"q1"}'
        if edit == "gamma-true":
            line = line.replace('"gamma":200.0', '"gamma":true')
        path = write(tmp_path / "ledger.jsonl", f"{canonical_lines(ledger)[0]}\n{line}\n")
        outcome = read_outcome(path)
        assert outcome.startswith(f"{path}:2: malformed ledger entry: {message}")
        assert outcome == self.json_only(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: swap_source(obj, 2), "malformed ledger entry: source 'DataDependent' at "
                                          "lambda 3 differs from 'DataIndependent', which its "
                                          "q_bound gives"),
        (lambda obj: obj.update(q_bound=0.001), "malformed ledger entry: alpha "
                                                "0.010000000000000002 at lambda 1 differs from "
                                                "0.00021033078823986715, which its q_bound gives"),
        (lambda obj: obj.update(q_bound=1.5),
         "malformed ledger entry: q_bound must lie in [0, 1], got 1.5"),
        (lambda obj: obj.update(query_id="q1"), "duplicate query_id 'q1' (first on line 2)"),
    ], ids=["swapped-source", "usable-q-bound", "q-bound-1.5", "duplicate-id"])
    def test_bound_row_errors(self, tmp_path, edit, message):
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=GRID)
        for query_id in ("q1", "q2"):
            ledger.append(query_id, 0.75)
        lines = canonical_lines(ledger)
        obj = json.loads(lines[2])
        edit(obj)
        lines[2] = formats._dump(obj)
        path = write(tmp_path / "ledger.jsonl", "\n".join(lines) + "\n")
        assert read_outcome(path) == f"{path}:3: {message}"
        assert self.json_only(path) == f"{path}:3: {message}"


def run_python(code: str, **env: str) -> str:
    """stdout of ``code`` in a child Python that imports this checkout's privagg."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


class TestImportCost:
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
        assert run_python(code) == "[]\n['numpy']\n"

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
        by_derive_rng = set(ast.literal_eval(run_python(loaded)))
        assert "numpy.random" in by_derive_rng
        assert by_derive_rng <= set(ast.literal_eval(run_python(bare)))

    def test_account_and_report_run_without_numpy(self, tmp_path):
        out = tmp_path / "guarantee.json"
        code = ("import sys, privagg.cli\n"
                f"argv = ['account', {str(DATA / 'expected_ledger.jsonl')!r}, "
                f"'--delta', '1e-5', '--output', {str(out)!r}]\n"
                "assert privagg.cli.main(argv) == 0\n"
                f"assert privagg.cli.main(['report', {str(out)!r}]) == 0\n"
                "print('numpy' in sys.modules)")
        assert run_python(code).splitlines()[-1] == "False"
        assert out.read_bytes() == (DATA / "expected_guarantee.json").read_bytes()


class TestAtomicWrite:
    def test_failed_ledger_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        _, ledger = aggregate_head(3)
        write_ledger(path, ledger)
        old = path.read_bytes()
        encode = formats.encode_basestring_ascii  # once per entry, for its id
        calls = []

        def fail_on_second_entry(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("disk gone")
            return encode(*args)

        monkeypatch.setattr(formats, "encode_basestring_ascii", fail_on_second_entry)
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
        labels, ledger = aggregate_votes(read_votes(path), MechanismParams(gamma=0.05), GRID)
        assert labels == [0, 1, 2]
        assert len(ledger) == 3
        for q_bound in ledger.q_bounds:
            assert q_bound < q_threshold(0.05)
            assert all(alpha < data_independent_moment(0.05, order)
                       for order, alpha in zip(GRID.values, ledger.row(q_bound)))

    def test_deterministic_in_seed(self):
        a_labels, a_ledger = aggregate_head(seed=7)
        b_labels, b_ledger = aggregate_head(seed=7)
        assert a_labels == b_labels
        assert a_ledger == b_ledger
        c_labels, _ = aggregate_head(seed=8)
        assert c_labels != a_labels


def vote_lines(k: int) -> list[str]:
    """``k`` vote records at m = 3: wide and narrow margins, so both kinds of entry."""
    return [json.dumps({"query_id": f"s{i}", "counts": [100 + i % 97, 3 * (i % 41), i % 7]})
            for i in range(k)]


def aggregate_cli(votes: Path, out: Path, gamma=0.05, seed=0) -> int:
    return main(["aggregate", str(votes), "--gamma", str(gamma), "--seed", str(seed),
                 "--labels-out", str(out / "labels.jsonl"),
                 "--ledger-out", str(out / "ledger.jsonl")])


class TestAggregateStream:
    """``aggregate`` labels and books its records one chunk of ``cli.CHUNK`` at a time."""

    @pytest.mark.parametrize("k", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunks_write_the_bytes_of_one_batch(self, tmp_path, capsys, k):
        votes = write(tmp_path / "votes.jsonl", "".join(f"{line}\n" for line in vote_lines(k)))
        out, whole = tmp_path / "out", tmp_path / "whole"
        out.mkdir()
        whole.mkdir()
        assert aggregate_cli(votes, out, seed=5) == 0
        assert main(["account", str(out / "ledger.jsonl"), "--delta", "1e-5",
                     "--output", str(out / "g.json")]) == 0
        records = list(read_votes(votes))
        hists = [hist for _, hist in records]
        params = MechanismParams(gamma=0.05, seed=5)
        ledger = PrivacyLedger(gamma=0.05, lambda_grid=GRID, seed=5)
        ledger.book(hists, [query_id for query_id, _ in records])
        write_ledger(whole / "ledger.jsonl", ledger)
        write_labels(whole / "labels.jsonl", ledger, noisy_labels(hists, params))
        write(whole / "g.json", dump_json(account_obj(ledger, 1e-5)))
        for name in ("labels.jsonl", "ledger.jsonl", "g.json"):
            assert (out / name).read_bytes() == (whole / name).read_bytes(), name
        if k > 1:  # both kinds of entry
            assert 0 < sum(q < q_threshold(0.05) for q in ledger.q_bounds) < k
        capsys.readouterr()

    def test_records_are_pulled_at_most_a_chunk_ahead_of_the_noise(self, tmp_path,
                                                                    monkeypatch, capsys):
        votes = write(tmp_path / "votes.jsonl",
                      "".join(f"{line}\n" for line in vote_lines(3 * CHUNK + 7)))
        draws, derive = [], mechanism.derive_rng

        def counted(*args):
            draws.append(args)
            return derive(*args)

        def checked(path):
            for pulled, record in enumerate(read_votes(path), 1):
                assert pulled - len(draws) <= CHUNK, (pulled, len(draws))
                yield record

        monkeypatch.setattr(mechanism, "derive_rng", counted)
        monkeypatch.setattr(cli, "read_votes", checked)
        assert aggregate_cli(votes, tmp_path) == 0
        assert len(draws) == 3 * CHUNK + 7
        assert (tmp_path / "labels.jsonl").read_text().count("\n") == 1 + 3 * CHUNK + 7
        capsys.readouterr()

    def test_bad_line_in_the_second_chunk_leaves_no_output(self, tmp_path, capsys):
        lines = vote_lines(2 * CHUNK)
        lines[CHUNK + 2] = "{oops"
        votes = write(tmp_path / "votes.jsonl", "".join(f"{line}\n" for line in lines))
        assert aggregate_cli(votes, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"error: {votes}:{CHUNK + 3}: invalid JSON: Expecting property name enclosed "
            "in double quotes\n")
        assert [p.name for p in tmp_path.iterdir()] == ["votes.jsonl"]

    def test_error_in_the_first_chunk_comes_before_a_bad_line_in_the_third(
            self, tmp_path, capsys, monkeypatch):
        # The whole file used to be parsed first, so the bad line won.  At gamma
        # 100 the deficit 8 of the first record makes e^(gamma*deficit) overflow.
        lines = vote_lines(3 * CHUNK)
        lines[0] = '{"query_id": "x", "counts": [10, 2, 0]}'
        lines[2 * CHUNK + 1] = '{"query_id": "y"}'
        votes = write(tmp_path / "votes.jsonl", "".join(f"{line}\n" for line in lines))
        # Hold the records and the file they read, so that only aggregate can close them.
        records, opened, real_open = [], [], open
        monkeypatch.setattr(cli, "read_votes", lambda path: records.append(read_votes(path))
                            or records[-1])
        monkeypatch.setattr(formats, "open", lambda *a, **k: opened.append(real_open(*a, **k))
                            or opened[-1], raising=False)
        assert main(["aggregate", str(votes), "--gamma", "100",
                     "--labels-out", str(tmp_path / "l.jsonl"),
                     "--ledger-out", str(tmp_path / "g.jsonl")]) == 1
        assert capsys.readouterr().err == (
            "error: q bound overflows at gamma=100.0 and deficit 8: e^(gamma*deficit) is "
            "beyond the float range\n")
        assert [p.name for p in tmp_path.iterdir()] == ["votes.jsonl"]
        assert len(opened) == 1 and opened[0].closed  # the votes file, left mid-way


class TestAggregateOverwrite:
    """``aggregate`` never replaces a ledger or labels file that holds another run."""

    def test_second_seed_is_refused_and_both_files_kept(self, tmp_path, capsys):
        votes = DATA / "votes_100.jsonl"
        assert aggregate_cli(votes, tmp_path, gamma=0.3, seed=0) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert aggregate_cli(votes, tmp_path, gamma=0.3, seed=1) == 1
        ledger = tmp_path / "ledger.jsonl"
        assert capsys.readouterr().err == (
            f"error: {ledger} holds another run's output; refusing to replace it\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_identical_rerun_exits_zero(self, tmp_path, capsys):
        votes = DATA / "votes_100.jsonl"
        assert aggregate_cli(votes, tmp_path, gamma=0.3) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert aggregate_cli(votes, tmp_path, gamma=0.3) == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        capsys.readouterr()

    def test_other_labels_beside_the_same_ledger_are_refused(self, tmp_path, capsys):
        votes = DATA / "votes_100.jsonl"
        assert aggregate_cli(votes, tmp_path) == 0
        labels = tmp_path / "labels.jsonl"
        text = labels.read_text().replace('"label":0,', '"label":1,', 1)
        write(labels, text)
        capsys.readouterr()
        assert aggregate_cli(votes, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"error: {labels} holds another run's output; refusing to replace it\n")
        assert labels.read_text() == text
        assert (tmp_path / "ledger.jsonl").read_bytes() == (
            DATA / "expected_ledger.jsonl").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.jsonl", "ledger.jsonl"]


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
        assert ids == [query_id for query_id, _ in read_votes(DATA / "votes_100.jsonl")]

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

    @pytest.mark.parametrize("command, flag", [
        ("account", "--output"), ("account-hard-link", "--output"),
        ("aggregate", "--labels-out"), ("aggregate", "--ledger-out")],
        ids=["account-output", "account-output-hard-link", "votes-as-labels-out",
             "votes-as-ledger-out"])
    def test_output_that_names_an_input_exits_one(self, tmp_path, capsys, command, flag):
        votes = write(tmp_path / "votes.jsonl", (DATA / "votes_100.jsonl").read_text())
        ledger = write(tmp_path / "ledger.jsonl", (DATA / "expected_ledger.jsonl").read_text())
        if command == "aggregate":
            outputs = {"--labels-out": tmp_path / "labels.jsonl",
                       "--ledger-out": tmp_path / "out.jsonl", flag: votes}
            argv = ["aggregate", votes, "--gamma", "0.05", *sum(outputs.items(), ())]
            message = f"{flag} and votes name the same file: {votes}"
        else:
            output = ledger
            if command == "account-hard-link":
                output = tmp_path / "guarantee.json"
                os.link(ledger, output)
            argv = ["account", ledger, "--delta", "1e-5", "--output", output]
            message = f"--output and ledger name the same file: {ledger}"
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert self.run(*argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

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


def paper_votes(path: Path, queries: int = 2000, m: int = 10, n: int = 250,
                accuracy: float = 0.8386, seed: int = 1610) -> Path:
    """Vote counts of the paper's ensemble: each teacher votes the query's true
    class with probability ``accuracy``, else one of the other classes uniformly."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, m, size=(queries, 1))
    wrong = (truth + rng.integers(1, m, size=(queries, n))) % m
    votes = np.where(rng.random((queries, n)) < accuracy, truth, wrong)
    counts = (votes[:, :, None] == np.arange(m)).sum(axis=1).tolist()
    return write(path, "".join(f'{{"query_id": "p{i:05d}", "counts": {row}}}\n'
                               for i, row in enumerate(counts)))


class TestPaperShapedDigests:
    """Labels, ledger and guarantee bytes of a paper-shaped run, where every
    entry is data-dependent, keep the sha256 digests frozen here."""

    DIGESTS = {
        (0.05, 8): ("0557873b7dd91ea975842873fd52bd0da2e9438f6c9684ace89e3f38f1bfd245",
                    "f63990e4e92630f948f3c99837bdbf70128b38163f50f1e9f638229c0d23392d",
                    "38ae53eb943a88dbd0533b245476c21834cb1a1346fc6f87befebc3327421cd3"),
        (0.3, 12): ("bd38c4d6db9028fb1d075e316d2fa6c52f461633dea6c41883e53483fffdf24c",
                    "5a0b6bfe03d57cc191a7daf72656619d3be3fc1e56621224e61436e196ec8d0b",
                    "aa5305990786dc80e1065f32cba43ba0c7534aa0eda631c89e85829bf1c9f264"),
    }

    @pytest.mark.parametrize("gamma, lambda_max", list(DIGESTS))
    def test_outputs_keep_their_digests(self, tmp_path, gamma, lambda_max):
        votes = paper_votes(tmp_path / "votes.jsonl")
        out = [tmp_path / name for name in ("labels.jsonl", "ledger.jsonl", "g.json")]
        assert main(["aggregate", str(votes), "--gamma", str(gamma), "--seed", "0",
                     "--lambda-max", str(lambda_max), "--labels-out", str(out[0]),
                     "--ledger-out", str(out[1])]) == 0
        assert main(["account", str(out[1]), "--delta", "1e-5", "--output", str(out[2])]) == 0
        lines = out[1].read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 2000
        assert all('"DataDependent"' in line for line in lines)
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in out) == self.DIGESTS[gamma, lambda_max]


class TestJsonArtifactsAreFinite:
    @pytest.mark.parametrize("gamma, message", [
        # The bounds are finite, but q_threshold overflows, as in per_query_moment.
        ("200.0", ":2: malformed ledger entry: q threshold overflows at gamma=200.0"),
        ("1e+200", ":1: malformed ledger header: moment bounds at gamma=1e+200 overflow"),
    ])
    def test_ledger_whose_moments_are_no_floats_is_an_error_not_json(self, tmp_path, capsys,
                                                                    gamma, message):
        # Strong composition at gamma 1e200 overflows 4*T*gamma^2; account
        # once wrote "epsilon": Infinity, which is not JSON.  No ledger with an
        # entry at that gamma has a row of float moments, so it is refused first.
        with pytest.raises(ValueError, match="StrongComposition epsilon is not finite"):
            strong_composition_eps(1e200, 1, 1e-5)
        path = write(tmp_path / "ledger.jsonl",
                     f'{{"format_version":1,"gamma":{gamma},"lambda_grid":[1,2],"seed":0}}\n'
                     f'{{"gamma":{gamma},"moments":[{{"alpha":0.0,"lambda":1,"source":'
                     '"DataDependent"},{"alpha":0.0,"lambda":2,"source":"DataDependent"}],'
                     '"q_bound":0.0,"query_id":"q0"}\n')
        out = tmp_path / "guarantee.json"
        for output in (["--output", str(out)], []):
            assert main(["account", str(path), "--delta", "1e-5", *output]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {path}{message}")
            assert captured.err.count("\n") == 1 and captured.out == ""
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
        # A stored alpha is compared with its row exactly, as the integer it is.
        assert capsys.readouterr().err == f"error: {path}:2: malformed ledger entry: " + (
            f"alpha {10**400} at lambda 1 differs from 0.00019072002433289932, which its "
            "q_bound gives\n" if field == "alpha"
            else "'q_bound' must be finite and non-negative, got inf\n")


    @pytest.mark.parametrize("lambda_max", [10**400, 2**63], ids=["10**400", "2**63"])
    @pytest.mark.parametrize("command", ["aggregate", "verify"])
    def test_lambda_max_past_a_tuple_exits_one(self, tmp_path, capsys, command, lambda_max):
        # tuple(range(...)) raised OverflowError, a traceback, before any order was stored.
        args = {"aggregate": [str(DATA / "votes_100.jsonl"), "--gamma", "0.05",
                              "--labels-out", str(tmp_path / "labels.jsonl"),
                              "--ledger-out", str(tmp_path / "ledger.jsonl")],
                "verify": ["--cases", "1", "--trials", "0"]}[command]
        assert main([command, *args, "--lambda-max", str(lambda_max)]) == 1
        assert capsys.readouterr() == (
            "", f"error: lambda_max={lambda_max} orders are more than a tuple can hold\n")
        assert not list(tmp_path.iterdir())


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


class TestCliSeedDomain:
    """A seed outside [0, 2^64) is refused before any input is read or output written."""

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("command", [
        ["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", "0.05",
         "--labels-out", "labels.jsonl", "--ledger-out", "ledger.jsonl"],
        ["simulate", "--mode", "sweep", "--gammas", "0.1", "--output", "sweep.csv"],
        ["simulate", "--mode", "budget", "--gamma", "0.1", "--output", "budget.json"],
        ["verify", "--cases", "3", "--output", "report.json"],
    ], ids=["aggregate", "simulate-sweep", "simulate-budget", "verify"])
    def test_exits_one_without_output(self, tmp_path, capsys, monkeypatch, command, seed):
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--seed", seed]) == 1
        assert capsys.readouterr().err == (
            f"error: seed must be an integer in [0, 2**64), got {seed}\n")
        assert list(tmp_path.iterdir()) == []


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


class TestFrozenFixturesOnAvx2:
    """numpy's AVX-512 kernels and its AVX2 fallback round some noise draws
    one ulp apart; every frozen fixture must come out the same on both."""

    DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"

    def test_fixture_commands_match_without_avx512(self, tmp_path):
        from numpy._core._multiarray_umath import __cpu_features__
        if not all(__cpu_features__.get(name) for name in self.DISABLED.split()):
            pytest.skip(f"this CPU lacks numpy's {self.DISABLED} kernels, so there is "
                        "no fallback to compare")
        out = {name: str(tmp_path / name) for name in os.listdir(DATA)}
        commands = [
            ["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", "0.05", "--seed", "0",
             "--labels-out", out["expected_labels.jsonl"],
             "--ledger-out", out["expected_ledger.jsonl"]],
            ["account", out["expected_ledger.jsonl"], "--delta", "1e-5",
             "--output", out["expected_guarantee.json"]],
            ["simulate", "--mode", "budget", "--queries", "20", "--gamma", "0.05",
             "--delta", "1e-5", "--seed", "1", "--output", out["expected_budget.json"]],
            ["simulate", "--mode", "sweep", "--queries", "50", "--n", "50",
             "--gammas", "0.01,0.1,1.0", "--seed", "2", "--output", out["expected_sweep.csv"]],
            ["verify", "--cases", "40", "--trials", "2000", "--mc-cases", "4", "--seed", "11",
             "--output", out["expected_verify.json"]],
        ]
        code = ("from numpy._core._multiarray_umath import __cpu_features__\n"
                "from privagg.cli import main\n"
                f"assert [main(argv) for argv in {commands!r}] == [0] * {len(commands)}\n"
                "print(__cpu_features__['X86_V4'])")
        assert run_python(code, NPY_DISABLE_CPU_FEATURES=self.DISABLED) == "False\n"
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(set(out) - {"votes_100.jsonl"})
        for name in written:
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


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
        # Past int's digit limit json.loads raises a plain ValueError.  The
        # digits in the string, after an escaped quote, and in the floats
        # before it are no integer.
        ('{\n "note": "\\"%s",\n "x": 1.%s,\n "y": 2e%s,\n "moments": {"epsilon": -%s}}'
         % ("9" * 5000, "9" * 5000, "9" * 5000, "9" * 5000),
         "x.json:5: Exceeds the limit (4300 digits)"),
    ], ids=["int", "moments-int", "no-delta", "not-json", "too-many-digits"])
    def test_malformed_guarantee_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "x.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


DELTA_LIBRARY_CALLS = {
    "Guarantee": lambda delta: Guarantee(1.0, delta, GuaranteeMethod.MOMENTS),
    "eps_for_delta": lambda delta: eps_for_delta({1: 0.0}, delta),
    "strong_composition_eps": lambda delta: strong_composition_eps(0.05, 10, delta),
}


@pytest.mark.parametrize("text", ["0.0", "-0.0", "1.0", "2", "nan", "inf", "1e-400"])
@pytest.mark.parametrize("caller", [*DELTA_LIBRARY_CALLS, "account", "simulate-budget"])
def test_one_delta_rule(caller, text, tmp_path, capsys, monkeypatch):
    """Every delta check refuses the same values with the same words; the
    CLI names --delta before it reads or writes any file."""
    delta = float(text)  # 1e-400 is 0.0
    rule = f"must lie strictly inside (0, 1), got {delta!r}"
    if caller in DELTA_LIBRARY_CALLS:
        with pytest.raises(ValueError) as refused:
            DELTA_LIBRARY_CALLS[caller](delta)
        assert str(refused.value) == f"delta {rule}"
        return
    from privagg import cli
    monkeypatch.setattr(cli, "read_ledger", lambda *args: pytest.fail("ledger read"))
    monkeypatch.setattr(cli, "budget_report", lambda *args, **kw: pytest.fail("run started"))
    out = tmp_path / "out.json"
    argv = (["account", str(tmp_path / "ledger.jsonl")] if caller == "account" else
            ["simulate", "--mode", "budget", "--gamma", "0.05"])
    assert main([*argv, f"--delta={text}", "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: --delta {rule}\n")
    assert list(tmp_path.iterdir()) == []


def parse_num_classes(num_classes):
    obj = {"query_id": "q", "labels": [0], "num_classes": num_classes}
    return formats._parse_vote_record("votes.jsonl", 1, obj)[1].counts


# Each integer-taking entry point: a call that returns what it stored or
# computed from the integer k, and its message for a refused k.  A seed has
# one message, which also names its domain.
SEED_MESSAGE = "seed must be an integer in [0, 2**64), got {!r}"
INTEGER_CALLS = {
    "VoteHistogram": (lambda k: VoteHistogram((k, 1)).counts,
                      "count for class 0 is not an integer: {!r}"),
    "tally_votes-label": (lambda k: tally_votes([k], 4).counts,
                          "label at position 0 is not an integer: {!r}"),
    "tally_votes-m": (lambda k: tally_votes([0], k).counts, "m must be an integer, got {!r}"),
    "MechanismParams-seed": (lambda k: MechanismParams(0.5, seed=k).seed, SEED_MESSAGE),
    "PrivacyLedger-seed": (lambda k: PrivacyLedger(0.5, GRID, seed=k).seed, SEED_MESSAGE),
    "EnsembleConfig-seed": (lambda k: EnsembleConfig(seed=k).seed, SEED_MESSAGE),
    "mc_outcome_frequencies-seed": (
        lambda k: mc_outcome_frequencies(VoteHistogram((3, 1)), 0.5, 4, seed=k).probs,
        SEED_MESSAGE),
    "mc_outcome_frequencies-trials": (
        lambda k: mc_outcome_frequencies(VoteHistogram((3, 1)), 0.5, k).probs,
        "trials must be an integer, got {!r}"),
    "LambdaGrid": (lambda k: LambdaGrid((1, 2, k)).values,
                   "lambda grid values must be integers, got {!r}"),
    "LambdaGrid.up_to": (lambda k: LambdaGrid.up_to(k).values,
                         "lambda_max must be an integer, got {!r}"),
    "synth_query_votes": (lambda k: synth_query_votes(EnsembleConfig(n=5, m=4), k,
                                                      np.random.default_rng(0)).counts,
                          "true_label must be an integer in [0, 4), got {!r}"),
    "num_classes": (parse_num_classes,
                    "votes.jsonl:1: label records need an integer 'num_classes'"),
    **{f"EnsembleConfig-{name}": (lambda k, name=name: getattr(EnsembleConfig(**{name: k}),
                                                               name),
                                  f"{name} must be an integer, got {{!r}}")
       for name in ("n", "m", "queries")},
    "data_independent_moment": (lambda k: data_independent_moment(0.05, k),
                                "order must be an integer, got {!r}"),
    "data_dependent_moment": (lambda k: data_dependent_moment(0.001, 0.05, k),
                              "order must be an integer, got {!r}"),
    "strong_composition_eps": (lambda k: strong_composition_eps(0.05, k, 1e-5),
                               "num_queries must be an integer, got {!r}"),
    "eps_for_delta": (lambda k: eps_for_delta({k: 0.5}, 1e-5),
                      "totals order must be an integer, got {!r}"),
    # run_verification(num_cases=True) reported True cases, and 2.5 raised a bare TypeError.
    "run_verification-num_cases": (lambda k: run_verification(num_cases=k, trials=0).cases,
                                   "num_cases must be an integer, got {!r}"),
    "run_verification-mc_cases": (
        lambda k: run_verification(num_cases=1, trials=10, mc_cases=k).mc_cases,
        "mc_cases must be an integer, got {!r}"),
    "run_verification-trials": (
        lambda k: run_verification(num_cases=0, trials=k, mc_cases=1).to_dict(),
        "trials must be an integer, got {!r}"),
    # soundness_sweep ran max_classes=3.0, and seed=True drew seed 1's cases.
    "soundness_sweep-max_classes": (lambda k: soundness_sweep(1, max_classes=k).to_dict(),
                                    "max_classes must lie in [2, 16], got {!r}"),
    "soundness_sweep-max_teachers": (
        lambda k: soundness_sweep(1, max_classes=2, max_teachers=k).to_dict(),
        "max_teachers must lie in [2, 709], got {!r}"),
    "soundness_sweep-seed": (lambda k: soundness_sweep(1, seed=k).to_dict(), SEED_MESSAGE),
    # exact_moment(pair, 0.5, True) gave the order-1 moment and 1.5 gave 0.2308;
    # mc_crosscheck(0, 2.5) returned a report.
    "exact_moment": (lambda k: exact_moment(enumerate_neighbors(VoteHistogram((3, 1)))[0],
                                            0.5, k),
                     "order must be an integer, got {!r}"),
    "mc_crosscheck-trials": (lambda k: mc_crosscheck(0, k).to_dict(),
                             "trials must be an integer, got {!r}"),
}


@pytest.mark.parametrize("caller, value", [
    pytest.param(caller, value, id=f"{caller}-{name}")
    for caller in INTEGER_CALLS
    for name, value in [("True", True), ("2.5", 2.5), ("str", "3"), ("int64", np.int64(3)),
                        ("0-d-array", np.array(3))]
    if not (caller == "eps_for_delta" and name == "0-d-array")])  # no dict key
def test_one_integer_rule(caller, value):
    """Every integer argument refuses a bool, a fraction and a string with
    its own message, and stores a numpy integer or 0-d array as an int."""
    call, message = INTEGER_CALLS[caller]
    if isinstance(value, (bool, float, str)):
        with pytest.raises(ValueError) as refused:
            call(value)
        assert str(refused.value) == message.format(value)
        return
    # repr tells np.int64(3) from 3, also inside a tuple or a Guarantee.
    assert repr(call(value)) == repr(call(3))


def test_numbers_module_is_read_by_mechanism_alone():
    src = Path(__file__).resolve().parents[1] / "src" / "privagg"
    readers = [path.name for path in sorted(src.glob("*.py"))
               if "numbers." in path.read_text(encoding="utf-8")]
    assert readers == ["mechanism.py"]


@pytest.mark.parametrize("seed", ["x", True, 2.5])
def test_ledger_seed_is_refused_before_any_write(seed):
    with pytest.raises(ValueError, match=re.escape(SEED_MESSAGE.format(seed))):
        PrivacyLedger(gamma=0.05, lambda_grid=GRID, seed=seed)


def test_numpy_ledger_seed_round_trips(tmp_path):
    ledger = PrivacyLedger(gamma=0.05, lambda_grid=GRID, seed=np.int64(3))
    write_ledger(tmp_path / "ledger.jsonl", ledger)
    loaded = read_ledger(tmp_path / "ledger.jsonl")
    assert type(ledger.seed) is int and loaded == ledger


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\n## Library\n+```python\n(.*?)```", readme, re.DOTALL)
    # Pad with blank lines so a traceback names the README's own line.
    code = "\n" * readme.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "Moments" in capsys.readouterr().out


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under filterwarnings = ["error"], a DeprecationWarning that hypothesis'
    # failure report meets once ended the session in INTERNALERROR: no FAILED
    # line, and no later test ran.
    write(tmp_path / "test_probe.py", "from hypothesis import given, strategies as st\n\n"
                                      "@given(st.integers())\n"
                                      "def test_fails(x):\n"
                                      "    assert x < 0\n\n"
                                      "def test_passes():\n"
                                      "    pass\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert re.search(r" 1 failed, 1 passed in ", run.stdout.splitlines()[-1]), run.stdout
