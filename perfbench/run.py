"""privagg benchmark: end-to-end CLI workloads and a per-module traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload ledger-quorum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Each run makes its inputs from --seed with numpy, then drives
``privagg.cli.main`` from a fresh interpreter as a closed loop: one client,
one process, commands one after another, until --seconds have passed.
Verify rounds each get their own fresh interpreter so that the oracle's
quadrature cache starts cold.  Every output is checked; a command that
exits non-zero or fails a check is a failed operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
spends a third of the time untraced and the rest with every public
function of the eight privagg modules wrapped (see tracer.py), reports the
per-layer metrics per round, asserts the call counts each workload implies,
and reports the tracing overhead against the untraced rounds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it record the machine,
the inputs and a table of every metric with its unit.  The exit code is 0
whenever that line is printed, also when operations failed; 1 when no
result could be made; 2 when there are no privagg sources to run.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import calibrate
import checks
from workloads import (DELTA, LAMBDA_MAX, SWEEP_GAMMAS, WORKLOADS, Files,
                       commands, outputs, program_seed, vote_counts, write_votes)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGEST_STORE = WORK / "digests.json"

SETUP_PROBES = 5
TIME_BUDGET_S = 170.0
TRACE_UNTRACED_SHARE = 1.0 / 3.0

END_TO_END = {"work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.aggregate_votes.self_s": "s",
    "cli.account_obj.self_s": "s",
    "formats.read_votes.s": "s",
    "formats.write_labels.s": "s",
    "formats.write_ledger.s": "s",
    "formats.read_ledger.s": "s",
    "formats.ledger_bytes_per_query": "B",
    "seeding.derive_rng.calls": "count",
    "seeding.derive_rng.s": "s",
    "mechanism.noisy_argmax.calls": "count",
    "mechanism.noisy_argmax.s": "s",
    "accountant.per_query_moment.s": "s",
    "accountant.q_upper_bound.s": "s",
    "accountant.data_dependent_moment.calls": "count",
    "accountant.dd_share": "ratio",
    "accountant.compose.s": "s",
    "accountant.eps_for_delta.s": "s",
    "oracle.outcome_distribution.calls": "count",
    "oracle.outcome_distribution.s": "s",
    "oracle.outcome_distribution.distinct_ratio": "ratio",
    "oracle.enumerate_neighbors.pairs_per_case": "count",
    "oracle.exact_moment.s": "s",
    "oracle.empirical_eps.s": "s",
    "verification.soundness_sweep.s": "s",
    "verification.checks": "count",
    "verification.failures": "count",
    "simulation.synth_query_votes.calls": "count",
    "simulation.synth_query_votes.s": "s",
    "simulation.sweep_gamma.self_s": "s",
    "setup.numpy_import_s": "s",
    "setup.scipy_import_s": "s",
    "setup.privagg_import_s": "s",
    "trace.spans_per_round": "count",
    "trace.overhead_ratio": "ratio",
}

# Per-command rates of each kind of workload, printed in the table next to
# the BENCHMARK.json metrics together with ops_failed_ratio.
COMMAND_RATES = {
    "ledger": (("aggregate_qps", "queries/s"), ("account_qps", "queries/s")),
    "verify": (("verify_cases_per_s", "cases/s"),),
    "simulate": (("sweep_qps", "pairs/s"),),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Clock:
    """Seconds left of the whole run's time budget."""

    def __init__(self, budget: float):
        self.deadline = time.monotonic() + budget

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "privagg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- set-up time ---------------------------------------------------------------

_PROBE = ("import time, privagg.cli; "
          "print(time.clock_gettime(time.CLOCK_MONOTONIC)); print(privagg.cli.__file__)")


def measure_setup(clock: Clock) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from interpreter launch until privagg.cli is imported.

    One untimed probe first compiles bytecode; SETUP_PROBES timed ones
    follow, each between two calibrations.
    """
    samples, before = [], 0.0
    for i in range(SETUP_PROBES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=clock.left())
        if proc.returncode != 0:
            raise BenchError(f"importing privagg.cli failed:\n{proc.stderr[-2000:]}")
        t1, where = proc.stdout.splitlines()[-2:]
        if Path(where).resolve().parent != (SRC / "privagg").resolve():
            raise BenchError(f"privagg.cli imported from {where}, not from {SRC}")
        after = calibrate.measure()
        if i:
            raw = float(t1) - t0
            samples.append((raw, calibrate.scale(raw, before, after)))
        before = after
    return samples


def measure_import_breakdown(clock: Clock) -> dict[str, float]:
    """Self import seconds of numpy, scipy and privagg modules (-X importtime),
    scaled to reference speed."""
    before = calibrate.measure()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import privagg.cli"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=clock.left())
    if proc.returncode != 0:
        raise BenchError(f"importing privagg.cli failed:\n{proc.stderr[-2000:]}")
    totals = {"numpy": 0, "scipy": 0, "privagg": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        cells = line[len("import time:"):].split("|")
        if len(cells) != 3 or not cells[0].strip().isdigit():
            continue
        top = cells[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(cells[0])
    after = calibrate.measure()
    return {f"setup.{name}_import_s": calibrate.scale(us * 1e-6, before, after)
            for name, us in totals.items()}


# -- workers -------------------------------------------------------------------

def run_worker(work: Path, argvs, outs, seconds: float, max_rounds: int,
               trace: bool, clock: Clock) -> dict:
    spec = {"src": str(SRC), "commands": argvs, "seconds": seconds,
            "max_rounds": max_rounds, "trace": trace,
            "outputs": [str(p) for group in outs for p in group]}
    spec_path, result_path, log_path = work / "spec.json", work / "result.json", work / "worker.log"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"),
                               str(spec_path), str(result_path)],
                              env=child_env(), cwd=work, stdout=log, stderr=subprocess.STDOUT,
                              timeout=clock.left())
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


class Run:
    """One workload run: inputs, rounds, checks and metrics."""

    def __init__(self, workload, seed: int, clock: Clock):
        self.w, self.seed, self.clock = workload, seed, clock
        self.work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.files = Files.under(self.work)
        self.counts = None
        self.input_bytes = 0
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.facts: dict = {}
        config = json.dumps(asdict(workload), sort_keys=True).encode()
        self.store_key = f"{program_digest()}:{hashlib.sha256(config).hexdigest()}:{seed}"

    # inputs

    def make_inputs(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        if self.w.kind == "ledger":
            self.counts = vote_counts(self.w, self.seed)
            write_votes(self.files.votes, self.counts)
            self.input_bytes = self.files.votes.stat().st_size

    # rounds

    def rounds(self, seconds: float, trace: bool, max_rounds: int | None = None):
        """Run rounds for about ``seconds``; return (rounds, peak RSS in KiB)."""
        outs = outputs(self.w, self.files)
        if not self.w.fresh_process_per_round:
            result = run_worker(self.work, commands(self.w, self.files, self.seed), outs,
                                seconds, max_rounds or 10**9, trace, self.clock)
            per_round = self.w.queries * (len(SWEEP_GAMMAS) if self.w.kind == "simulate" else 1)
            for record in result["rounds"]:
                record.update(round_index=0, work=per_round, scaled=_scaled(record),
                              pid=result["pid"])
            self.check_rounds(result["rounds"])
            return result["rounds"], result["maxrss_kb"]
        records, rss, started = [], 0, time.monotonic()
        while not records or (time.monotonic() - started < seconds
                              and len(records) < (max_rounds or 10**9)):
            r = len(records)
            result = run_worker(self.work, commands(self.w, self.files, self.seed, r),
                                outs, 0.0, 1, trace, self.clock)
            record = result["rounds"][0]
            record.update(round_index=r, scaled=_scaled(record), pid=result["pid"])
            self.check_rounds([record])
            record["work"] = self.facts["verify"][-1]["checks"]
            records.append(record)
            rss = max(rss, result["maxrss_kb"])
        return records, rss

    # checks

    def check_outputs(self) -> list[list[str]]:
        """Check the files on disk; errors per command of the round."""
        w, f = self.w, self.files
        if w.kind == "ledger":
            q = checks.expected_moments(self.counts, w.gamma, LAMBDA_MAX)[0]
            ledger_errors, facts = checks.check_ledger(f.ledger, self.counts, w.gamma, LAMBDA_MAX)
            label_errors = checks.check_labels(f.labels, self.counts, q)
            guarantee_errors = checks.check_guarantee(f.guarantee, facts["alpha_totals"],
                                                      w.queries, w.gamma, DELTA)
            self.facts.update(dd_share=facts["dd_share"], ledger_bytes=facts["bytes"],
                              q_usable=int(np.count_nonzero(q < checks.q_threshold(w.gamma))))
            return [ledger_errors + label_errors, guarantee_errors]
        if w.kind == "verify":
            errors, facts = checks.check_verify_report(f.report, w.cases, w.mc_cases, LAMBDA_MAX)
            self.facts.setdefault("verify", []).append(facts)
            return [errors]
        return [checks.check_sweep_csv(f.sweep, SWEEP_GAMMAS)]

    def check_rounds(self, records: list[dict]) -> None:
        """Check the last round's files fully and every round by its digests.

        Rounds of one worker run the same commands on the same inputs, so
        their outputs must be byte-identical to the checked files; so must
        the outputs of an earlier run of the same program, workload sizes
        and seed.
        """
        per_command = self.check_outputs()
        groups = outputs(self.w, self.files)
        names = [argv[0] for argv in commands(self.w, self.files, self.seed)]
        reference = records[-1]["digests"]
        store = _load_store()
        for record in records:
            key = f"{self.store_key}:{record['round_index']}"
            stored = store.get(key)
            start, record["ok"] = 0, True
            for i, code in enumerate(record["exit_codes"]):
                span = slice(start, start + len(groups[i]))
                start = span.stop
                digests = record["digests"][span]
                problems = list(per_command[i])
                if code != 0:
                    problems.append(f"{names[i]} exited with {code}")
                if None in digests or digests != reference[span]:
                    problems.append(f"{names[i]} outputs differ from the checked round")
                if stored is not None and stored[span] != digests:
                    problems.append(f"{names[i]} output bytes differ from an earlier run "
                                    "of this program and workload with the same seed")
                self.attempted += 1
                self.failed += bool(problems)
                record["ok"] = record["ok"] and not problems
                self.errors.extend(p for p in problems if p not in self.errors)
            if stored is None and not self.errors:
                store[key] = record["digests"]
        _save_store(store)

    # metrics

    def command_rates(self, records: list[dict], key="scaled") -> dict[str, float]:
        """Work per second of command time at reference speed (raw with
        key="times"): the median round for identical rounds, the pooled
        ratio for verify rounds (each covers other cases).  Rounds with a
        failed command are left out; they count in ``failed``."""
        w, med = self.w, statistics.median
        records = [r for r in records if r["ok"]] or records
        if w.kind == "verify":
            seconds = math.fsum(sum(r[key]) for r in records)
            return {"work_per_s": sum(r["work"] for r in records) / seconds,
                    "verify_cases_per_s": w.cases * len(records) / seconds}
        out = {"work_per_s": med(r["work"] / sum(r[key]) for r in records)}
        if w.kind == "ledger":
            out["aggregate_qps"] = med(w.queries / r[key][0] for r in records)
            out["account_qps"] = med(w.queries / r[key][1] for r in records)
        else:
            out["sweep_qps"] = out["work_per_s"]
        return out

    def per_layer(self, untraced: list[dict], traced: list[dict],
                  imports: dict[str, float]) -> dict[str, float]:
        folds = [r["trace"] for r in traced]
        calls = folds[0]["calls"]
        if any(f["calls"] != calls for f in folds):
            self.errors.append("traced rounds of identical work made different calls")
        # Span times are scaled to reference speed like the end-to-end times.
        factors = [calibrate.scale(1.0, *r["calibration_s"]) for r in traced]
        incl, self_s = ({n: statistics.median(f[key][n] * k for f, k in zip(folds, factors))
                         for n in calls} for key in ("incl_s", "self_s"))
        facts = folds[0]["facts"]
        self.errors.extend(self.check_call_counts(calls, facts))

        metrics = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                metrics[name] = calls.get(base, 0)
            elif kind == "s":
                metrics[name] = incl.get(base, 0.0)
            elif kind == "self_s":
                metrics[name] = self_s.get(base, 0.0)
        od_calls = calls["oracle.outcome_distribution"]
        neighbors = calls["oracle.enumerate_neighbors"]
        verify = self.facts.get("verify", [{}])[0]
        ledger = self.w.kind == "ledger"
        metrics.update({
            "formats.ledger_bytes_per_query":
                self.facts["ledger_bytes"] / self.w.queries if ledger else 0.0,
            "accountant.dd_share": self.facts["dd_share"] if ledger else 0.0,
            "oracle.outcome_distribution.distinct_ratio":
                facts["outcome_keys"] / od_calls if od_calls else 0.0,
            "oracle.enumerate_neighbors.pairs_per_case":
                facts["neighbor_pairs"] / neighbors if neighbors else 0.0,
            "verification.checks": verify.get("checks", 0),
            "verification.failures": verify.get("failures", 0),
            "trace.spans_per_round": statistics.median(f["spans"] for f in folds),
            "trace.overhead_ratio":
                statistics.median(sum(r["scaled"]) for r in traced)
                / statistics.median(sum(r["scaled"]) for r in untraced) - 1.0,
        })
        metrics.update(imports)
        return metrics

    def check_call_counts(self, calls: dict[str, int], facts: dict) -> list[str]:
        """Compare traced call counts with what one round must do."""
        w = self.w
        expect: dict[str, int] = {}
        zero_modules: tuple[str, ...] = ()
        if w.kind == "ledger":
            q = w.queries
            expect = {"cli.main": 2, "cli.aggregate_votes": 1, "cli.account_obj": 1,
                      "formats.read_votes": 1, "formats.write_labels": 1,
                      "formats.write_ledger": 1, "formats.read_ledger": 1,
                      "seeding.derive_rng": q, "mechanism.noisy_argmax": q,
                      "accountant.per_query_moment": q, "accountant.q_upper_bound": q,
                      "accountant.data_dependent_moment": LAMBDA_MAX * self.facts["q_usable"],
                      "accountant.compose": 1, "accountant.eps_for_delta": 1}
            zero_modules = ("oracle", "verification", "simulation")
        elif w.kind == "verify":
            c, k, pairs = w.cases, w.mc_cases, facts["neighbor_pairs"]
            verify = self.facts["verify"][0]
            expect = {"cli.main": 1, "verification.run_verification": 1,
                      "verification.soundness_sweep": 1,
                      "verification.mc_crosscheck": int(k > 0),
                      "verification.random_histogram": c + k,
                      "oracle.enumerate_neighbors": c,
                      "oracle.exact_moment": LAMBDA_MAX * pairs,
                      "oracle.empirical_eps": pairs,
                      "oracle.outcome_distribution": c + 2 * (LAMBDA_MAX + 1) * pairs + k,
                      "oracle.mc_outcome_frequencies": k,
                      "accountant.per_query_moment": c, "accountant.q_upper_bound": 2 * c,
                      "mechanism.noisy_argmax": 0, "formats.read_votes": 0,
                      "formats.read_ledger": 0, "formats.write_ledger": 0}
            if pairs != verify["pairs"]:
                return [f"traced {pairs} neighbour pairs, the report "
                        f"{verify['pairs']}"]
            zero_modules = ("simulation",)
        else:
            q, g = w.queries, len(SWEEP_GAMMAS)
            expect = {"cli.main": 1, "simulation.sweep_gamma": 1,
                      "simulation.synth_query_votes": q, "mechanism.noisy_argmax": g * q,
                      "seeding.derive_rng": 1 + q + g * q, "formats.write_sweep_csv": 1}
            zero_modules = ("oracle", "verification", "accountant", "formats")
        for name in calls:
            if name.split(".")[0] in zero_modules and name not in expect:
                expect[name] = 0
        return [f"trace: {name} called {calls.get(name)} times, expected {n}"
                for name, n in sorted(expect.items()) if calls.get(name) != n]


def _scaled(record: dict) -> list[float]:
    before, after = record["calibration_s"]
    return [calibrate.scale(t, before, after) for t in record["times"]]


def _load_store() -> dict:
    try:
        return json.loads(DIGEST_STORE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _save_store(store: dict) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = DIGEST_STORE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True), encoding="utf-8")
    os.replace(tmp, DIGEST_STORE)


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 clock: Clock) -> tuple[dict, dict, dict]:
    """Returns (result object, metric units, record of machine and inputs)."""
    w = WORKLOADS[name]
    run = Run(w, seed, clock)
    setup: list[tuple[float, float]] = []
    raw: dict[str, float] = {}
    try:
        run.make_inputs()
        if not trace:
            setup = measure_setup(clock)
            records, rss = run.rounds(seconds, trace=False)
            rates = run.command_rates(records)
            metrics = {"work_per_s": rates["work_per_s"], "peak_rss_mb": rss / 1024.0,
                       "setup_s": statistics.median(scaled for _, scaled in setup)}
            raw = {"work_per_s": run.command_rates(records, "times")["work_per_s"],
                   "setup_s": statistics.median(raw for raw, _ in setup)}
            units = dict(END_TO_END)
            extra = {k: v for k, v in rates.items() if k != "work_per_s"}
        else:
            imports = measure_import_breakdown(clock)
            one = 1 if w.fresh_process_per_round else None
            untraced, _ = run.rounds(seconds * TRACE_UNTRACED_SHARE, False, one)
            traced, _ = run.rounds(seconds * (1 - TRACE_UNTRACED_SHARE), True, one)
            metrics = run.per_layer(untraced, traced, imports)
            units = dict(PER_LAYER)
            extra, records = {}, untraced + traced
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    metrics = {k: metrics[k] for k in units}
    correct = run.failed == 0 and not run.errors
    inputs = {k: v for k, v in asdict(w).items() if v and k not in ("name", "kind", "why")}
    inputs.update(work_unit=w.work_unit, work_per_round=sorted({r["work"] for r in records}),
                  input_bytes=run.input_bytes,
                  program_seeds=sorted({program_seed(seed, r["round_index"]) for r in records}))
    if w.kind == "simulate":
        inputs["gamma"] = list(SWEEP_GAMMAS)
    elif w.kind == "verify":
        inputs["gamma"] = "drawn per case from [0.01, 1]"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": w.why, "machine": machine(), "inputs": inputs,
        "rounds": len(records), "worker_pids": sorted({r["pid"] for r in records}),
        "setup_samples_s": setup, "unscaled": raw,
        "calibration_s": [r["calibration_s"][0] for r in records],
        "accountant.dd_share": run.facts.get("dd_share"),
        "ledger_bytes": run.facts.get("ledger_bytes"),
        "attempted": run.attempted, "failed": run.failed,
        "ops_failed_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "errors": run.errors[:20],
    }
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    table = dict(result["metrics"])
    for key, unit in COMMAND_RATES[w.kind] if not trace else ():
        table[key] = {"value": extra[key], "unit": unit}
    table["ops_failed_ratio"] = {"value": record["ops_failed_ratio"], "unit": "ratio"}
    return result, table, record


def print_table(record: dict, table: dict) -> None:
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}  {record['rounds']} rounds  "
          f"closed loop, 1 client")
    for key, metric in table.items():
        print(f"  {key:<46} {metric['value']:>16.6g}  {metric['unit']}")
    print("# record " + json.dumps(record, sort_keys=True))
    for error in record["errors"]:
        print(f"error: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "privagg" / "cli.py").is_file():
        print(f"error: no privagg sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            clock = Clock(TIME_BUDGET_S)
            result, table, record = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace), clock)
            print_table(record, table)
            results.append((name, result))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}/{k}": v for name, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
