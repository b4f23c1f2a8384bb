"""Workload definitions and input generation for the privagg benchmark.

Every input is made here, with numpy, from the workload seed; nothing is
generated through ``privagg.simulation``.  A round is one closed-loop pass
over the workload's CLI commands, run one after another by one client.

Why these four workloads:

* ``ledger-quorum``: the paper's setting (m=10, n=250, teacher accuracy
  0.8386, gamma=0.05).  Every query clears the quorum, so every entry is
  booked with the data-dependent bound and per-query moments, noise and
  ledger writes dominate ``aggregate``.
* ``ledger-wide``: m=100, n=1000, teacher accuracy 0.05.  The q bound
  clamps to 1, every entry falls back to the data-independent bound, and
  parsing the 100-count vote records plus the per-class q bound dominate.
  An accountant change that only helps quorum queries shows no gain here.
* ``verify-sweep``: ``privagg verify`` at the CLI's desk-scale shapes.
  Only here do ``oracle`` and ``verification`` run; each round runs in a
  fresh interpreter so the oracle's quadrature cache starts cold.  The
  Monte Carlo cross-check is off (``--trials 0``): ``mc_crosscheck`` takes
  ``math.sqrt(p * (1 - p) / trials)`` of a quadrature probability that can
  round to 1 + 2**-52 on a unanimous histogram, and then the command exits 1
  with "math domain error" (``privagg verify --cases 1 --mc-cases 11 --seed
  21003``; about one 10-case cross-check in 80).  A benchmark round that
  fails at random cannot be timed; turn the cross-check back on once the
  program clamps p (test_checks.py holds the reproduction as a strict xfail).
* ``simulate-sweep``: ``privagg simulate --mode sweep`` over the seven
  gammas of acceptance criterion 6.  ``simulation``, ``seeding`` and
  ``mechanism`` do the work; ``accountant`` and ``formats`` do none.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DELTA = 1e-5
LAMBDA_MAX = 8
SWEEP_GAMMAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "ledger", "verify" or "simulate"
    why: str
    queries: int = 0              # ledger and simulate workloads
    m: int = 0
    n: int = 0
    teacher_accuracy: float = 0.0
    gamma: float = 0.05
    cases: int = 0                # verify workload, per round
    mc_cases: int = 0
    trials: int = 0

    @property
    def fresh_process_per_round(self) -> bool:
        # The oracle memoises outcome distributions; a verify round reusing
        # a warm interpreter would time cache hits instead of quadrature.
        return self.kind == "verify"

    @property
    def work_unit(self) -> str:
        """What work_per_s counts.  Verify cases differ in size (2 to 5
        classes, 3 to 30 neighbours), so verify counts the bound checks its
        report lists, which track the quadrature work per case."""
        return {"ledger": "queries", "verify": "bound checks",
                "simulate": "(query, gamma) pairs"}[self.kind]


WORKLOADS = {
    w.name: w for w in (
        Workload("ledger-quorum", "ledger",
                 "paper setting: every entry data-dependent; moments, noise and "
                 "ledger writes dominate aggregate",
                 queries=10_000, m=10, n=250, teacher_accuracy=0.8386),
        Workload("ledger-wide", "ledger",
                 "contested 100-class votes: every entry data-independent; vote "
                 "parsing and the per-class q bound dominate",
                 queries=5_000, m=100, n=1000, teacher_accuracy=0.05),
        Workload("verify-sweep", "verify",
                 "oracle soundness sweep, cold quadrature cache; the only "
                 "workload that runs oracle code",
                 cases=100),
        Workload("simulate-sweep", "simulate",
                 "gamma sweep over a synthetic n=250, m=10 ensemble; simulation, "
                 "seeding and mechanism work, no accountant or ledger IO",
                 queries=2_000, m=10, n=250, teacher_accuracy=0.8386),
    )
}


def _input_rng(workload: Workload, seed: int) -> np.random.Generator:
    tag = sorted(WORKLOADS).index(workload.name)
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def vote_counts(workload: Workload, seed: int) -> np.ndarray:
    """(queries, m) vote counts of an ensemble with uniform confusion.

    Each query has a uniform true label; each teacher votes it with
    probability ``teacher_accuracy`` and otherwise one of the other m-1
    classes uniformly.
    """
    rng = _input_rng(workload, seed)
    m, acc = workload.m, workload.teacher_accuracy
    pvals = np.full(m, (1.0 - acc) / (m - 1))
    pvals[0] = acc
    counts = rng.multinomial(workload.n, pvals, size=workload.queries)
    true_labels = rng.integers(0, m, size=workload.queries)
    # Row i holds the counts with class 0 as the true class; rotate it so
    # that the true class sits at index true_labels[i].
    columns = (np.arange(m)[None, :] - true_labels[:, None]) % m
    return np.take_along_axis(counts, columns, axis=1)


def query_id(i: int) -> str:
    return f"q{i:07d}"


def write_votes(path: Path, counts: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(counts.tolist()):
            fh.write(json.dumps({"query_id": query_id(i), "counts": row},
                                separators=(",", ":")) + "\n")


def program_seed(seed: int, round_index: int = 0) -> int:
    """Seed handed to the program; verify rounds each get their own."""
    return seed * 1000 + round_index


@dataclass(frozen=True)
class Files:
    """Paths of one run's inputs and outputs inside its work directory."""

    votes: Path
    labels: Path
    ledger: Path
    guarantee: Path
    report: Path
    sweep: Path

    @classmethod
    def under(cls, root: Path) -> "Files":
        return cls(votes=root / "votes.jsonl", labels=root / "labels.jsonl",
                   ledger=root / "ledger.jsonl", guarantee=root / "guarantee.json",
                   report=root / "report.json", sweep=root / "sweep.csv")


def commands(workload: Workload, files: Files, seed: int,
             round_index: int = 0) -> list[list[str]]:
    """The CLI argument vectors of one round, in the order they run."""
    if workload.kind == "ledger":
        return [
            ["aggregate", str(files.votes), "--gamma", repr(workload.gamma),
             "--seed", str(program_seed(seed)), "--lambda-max", str(LAMBDA_MAX),
             "--labels-out", str(files.labels), "--ledger-out", str(files.ledger)],
            ["account", str(files.ledger), "--delta", repr(DELTA),
             "--output", str(files.guarantee)],
        ]
    if workload.kind == "verify":
        return [["verify", "--cases", str(workload.cases),
                 "--trials", str(workload.trials),
                 "--mc-cases", str(workload.mc_cases),
                 "--seed", str(program_seed(seed, round_index)),
                 "--lambda-max", str(LAMBDA_MAX), "--output", str(files.report)]]
    return [["simulate", "--mode", "sweep", "--n", str(workload.n),
             "--m", str(workload.m),
             "--teacher-accuracy", repr(workload.teacher_accuracy),
             "--queries", str(workload.queries), "--seed", str(program_seed(seed)),
             "--gammas", ",".join(repr(g) for g in SWEEP_GAMMAS),
             "--output", str(files.sweep)]]


def outputs(workload: Workload, files: Files) -> list[list[Path]]:
    """Files each command of a round writes, in command order."""
    if workload.kind == "ledger":
        return [[files.labels, files.ledger], [files.guarantee]]
    if workload.kind == "verify":
        return [[files.report]]
    return [[files.sweep]]
