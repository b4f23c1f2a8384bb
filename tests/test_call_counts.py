"""Identical rounds of CLI work make identical calls into privagg's public functions.

The benchmark's traced run wraps every public function of the eight
``privagg`` modules, under every name it is bound to, and marks a workload
incorrect when its rounds of the same work make different calls.  Rounds
share one process, so a cache that calls a public function only on a miss
makes the first round differ from the rest.  This test wraps the functions
the same way, runs each command twice in one process and compares the
counts; ``monkeypatch`` restores every wrapped name afterwards.
"""
import collections
import functools
import importlib
import inspect
import sys
from pathlib import Path

from privagg import cli

DATA = Path(__file__).parent / "data"
MODULES = ("cli", "formats", "seeding", "mechanism", "accountant", "oracle",
           "verification", "simulation")


def count_public_calls(monkeypatch) -> collections.Counter:
    """Wrap every public function of MODULES wherever a privagg module binds it."""
    counts = collections.Counter()

    def wrap(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for short in MODULES:
        module = importlib.import_module(f"privagg.{short}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, wrap(obj, f"{short}.{attr}"))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "privagg" or name.startswith("privagg.")):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                monkeypatch.setattr(module, attr, wrappers[id(obj)][1])
    return counts


def test_identical_rounds_make_identical_calls(monkeypatch, tmp_path):
    ledger, labels = tmp_path / "ledger.jsonl", tmp_path / "labels.jsonl"
    commands = [
        ["aggregate", str(DATA / "votes_100.jsonl"), "--gamma", "0.05", "--seed", "0",
         "--labels-out", str(labels), "--ledger-out", str(ledger)],
        ["account", str(ledger), "--delta", "1e-5", "--output", str(tmp_path / "g.json")],
        ["simulate", "--mode", "sweep", "--queries", "40", "--gammas", "0.05,0.5",
         "--seed", "3", "--output", str(tmp_path / "sweep.csv")],
        ["verify", "--cases", "6", "--mc-cases", "2", "--trials", "200", "--seed", "4",
         "--output", str(tmp_path / "verify.json")],
    ]
    counts = count_public_calls(monkeypatch)
    rounds = []
    for _ in range(2):
        for argv in commands:
            assert cli.main(argv) == 0, argv
        rounds.append(dict(counts))
        counts.clear()
    assert rounds[0] == rounds[1]
    # Each command reached the modules it drives.
    for name in ("formats.read_votes", "seeding.derive_rng", "mechanism.noisy_argmax",
                 "accountant.compose", "simulation.sweep_gamma",
                 "oracle.outcome_distribution", "verification.mc_crosscheck"):
        assert rounds[0].get(name, 0) > 0, name
