"""Identical rounds of CLI work make identical calls into privagg's public functions.

The benchmark's traced run wraps every public function of the eight
``privagg`` modules, under every name it is bound to, and marks a workload
incorrect when its rounds of the same work make different calls.  Rounds
share one process, so a cache that calls a public function only on a miss
makes the first round differ from the rest.  This test installs the
benchmark's own tracer (``perfbench/tracer.py``), runs each command twice
in one process and compares the counts.
"""
import json
import sys
from pathlib import Path
from unittest import mock

from privagg import accountant, cli, q_threshold, q_upper_bound
from privagg.formats import read_votes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402

DATA = Path(__file__).parent / "data"


def test_identical_rounds_make_identical_calls(tmp_path):
    ledger, labels = tmp_path / "ledger.jsonl", tmp_path / "labels.jsonl"
    # Near-tied votes: no query has a strong quorum, so every entry is data-independent.
    contested = tmp_path / "contested.jsonl"
    contested.write_text("".join(f'{{"query_id": "c{i}", "counts": [{4 + i % 2}, 4, 3]}}\n'
                                 for i in range(20)), encoding="utf-8")
    contested_ledger = tmp_path / "contested_ledger.jsonl"
    commands = [
        ["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", "0.05", "--seed", "0",
         "--labels-out", str(labels), "--ledger-out", str(ledger)],
        ["account", str(ledger), "--delta", "1e-5", "--output", str(tmp_path / "g.json")],
        ["aggregate", str(contested), "--gamma", "0.05", "--seed", "0",
         "--labels-out", str(tmp_path / "contested_labels.jsonl"),
         "--ledger-out", str(contested_ledger)],
        ["account", str(contested_ledger), "--delta", "1e-5",
         "--output", str(tmp_path / "contested_g.json")],
        ["simulate", "--mode", "sweep", "--queries", "40", "--gammas", "0.05,0.5",
         "--seed", "3", "--output", str(tmp_path / "sweep.csv")],
        ["verify", "--cases", "6", "--mc-cases", "2", "--trials", "200", "--seed", "4",
         "--output", str(tmp_path / "verify.json")],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        rounds = []
        for _ in range(2):
            for argv in commands:
                assert cli.main(argv) == 0, argv
            rounds.append(tracer.take_round()["calls"])
    finally:
        tracer.uninstall()
    assert rounds[0] == rounds[1]
    assert "DataDependent" not in contested_ledger.read_text(encoding="utf-8")
    # Each command reached the modules it drives.
    for name in ("formats.read_votes", "seeding.derive_rng", "mechanism.noisy_argmax",
                 "accountant.compose", "simulation.sweep_gamma",
                 "oracle.outcome_distribution", "verification.mc_crosscheck"):
        assert rounds[0][name] > 0, name


def test_ledger_round_makes_the_pinned_calls(tmp_path):
    # The counts the benchmark's check_call_counts pins for one ledger round:
    # aggregate then account, with one data_dependent_moment per grid order of
    # each query whose q bound is below q_threshold and none for the others.
    gamma = 0.05
    hists = [hist for _, hist in read_votes(DATA / "votes_100.jsonl")]
    usable = sum(q_upper_bound(hist, gamma) < q_threshold(gamma) for hist in hists)
    assert 0 < usable < len(hists) == 100
    ledger = tmp_path / "ledger.jsonl"
    commands = [
        ["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", str(gamma), "--seed", "0",
         "--labels-out", str(tmp_path / "labels.jsonl"), "--ledger-out", str(ledger)],
        ["account", str(ledger), "--delta", "1e-5", "--output", str(tmp_path / "g.json")],
    ]
    expect = {"cli.main": 2, "cli.aggregate_votes": 1, "cli.account_obj": 1,
              "formats.read_votes": 1, "formats.write_labels": 1,
              "formats.write_ledger": 1, "formats.read_ledger": 1,
              "seeding.derive_rng": 100, "mechanism.noisy_argmax": 100,
              "accountant.per_query_moment": 100, "accountant.q_upper_bound": 100,
              "accountant.data_dependent_moment": 8 * usable,
              "accountant.compose": 1, "accountant.eps_for_delta": 1}
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):
            for argv in commands:
                assert cli.main(argv) == 0, argv
            calls = tracer.take_round()["calls"]
            untouched = {name: 0 for name in calls
                         if name.split(".")[0] in ("oracle", "verification", "simulation")}
            assert {name: calls[name] for name in {**expect, **untouched}} == {
                **expect, **untouched}
    finally:
        tracer.uninstall()


def escaped_ledger(path: Path) -> Path:
    """The fixture ledger with ids that need a JSON escape, so that every entry
    takes ``read_ledger``'s ``json`` path."""
    lines = (DATA / "expected_ledger.jsonl").read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:1] + [line.replace('"query_id":"', '"query_id":"\\u00e9')
                                           for line in lines[1:]]) + "\n", encoding="utf-8")
    return path


def test_account_books_nothing(tmp_path):
    # account derives each entry's moments from its q bound through private
    # code alone: none of the calls that a ledger round pins per query.
    tracer = Tracer()
    tracer.install()
    try:
        for ledger in (DATA / "expected_ledger.jsonl", escaped_ledger(tmp_path / "e.jsonl")):
            assert cli.main(["account", str(ledger), "--delta", "1e-5"]) == 0
            calls = tracer.take_round()["calls"]
            assert calls["formats.read_ledger"] == calls["accountant.compose"] == 1
            assert {name: calls[name] for name in (
                "accountant.per_query_moment", "accountant.q_upper_bound",
                "accountant.data_dependent_moment")} == dict.fromkeys(
                ["accountant.per_query_moment", "accountant.q_upper_bound",
                 "accountant.data_dependent_moment"], 0)
    finally:
        tracer.uninstall()


def test_rows_are_derived_once_per_q_bound_and_never_by_aggregate(tmp_path, capsys):
    derived, alphas = [], accountant._alphas

    def counting(q, gamma, orders, *moment):
        if not moment:  # a ledger's own derivation; per_query_moment passes its moment
            derived.append(q)
        return alphas(q, gamma, orders, *moment)

    ledger = tmp_path / "ledger.jsonl"
    gamma = 0.05
    q_bounds = [json.loads(line)["q_bound"] for line in
                (DATA / "expected_ledger.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
    # Both sides of q_threshold, and repeated q bounds.
    assert 0 < sum(q < q_threshold(gamma) for q in set(q_bounds)) < len(set(q_bounds)) < 100
    with mock.patch.object(accountant, "_alphas", counting):
        assert cli.main(["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", str(gamma),
                         "--seed", "0", "--labels-out", str(tmp_path / "labels.jsonl"),
                         "--ledger-out", str(ledger)]) == 0
        assert derived == []  # book's rows are the ledger's
        assert ledger.read_bytes() == (DATA / "expected_ledger.jsonl").read_bytes()
        for path in (ledger, escaped_ledger(tmp_path / "e.jsonl")):
            derived.clear()
            assert cli.main(["account", str(path), "--delta", "1e-5"]) == 0
            assert sorted(derived) == sorted(set(q_bounds))
    capsys.readouterr()
