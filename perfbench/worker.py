"""One benchmark client in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the privagg source directory, the CLI argument vectors of one
round, the files a round writes, how long to keep running rounds and
whether to trace.  The worker runs rounds back to back, each command
through ``privagg.cli.main`` in this process and this thread, with a
calibration loop (calibrate.py) between rounds, and writes per-round
command times, the calibrations around them, exit codes, output digests
and (when tracing) per-round span folds to RESULT.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate

EXIT_CRASHED = 70


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _run_command(main, argv: list[str]) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed operation; keep the loop going
        traceback.print_exc()
        return EXIT_CRASHED


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import privagg
    import privagg.cli
    if Path(privagg.__file__).resolve().parent != src / "privagg":
        print(f"privagg imported from {privagg.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = [Path(p) for p in spec["outputs"]]
    rounds = []
    deadline = time.perf_counter() + spec["seconds"]
    before = calibrate.measure()
    while True:
        for path in outputs:
            path.unlink(missing_ok=True)
        times, codes = [], []
        for argv in spec["commands"]:
            t0 = time.perf_counter()
            codes.append(_run_command(privagg.cli.main, argv))
            times.append(time.perf_counter() - t0)
        after = calibrate.measure()
        record = {"times": times, "calibration_s": [before, after], "exit_codes": codes,
                  "digests": [_digest(p) for p in outputs]}
        before = after
        if tracer is not None:
            record["trace"] = tracer.take_round()
        rounds.append(record)
        if len(rounds) >= spec["max_rounds"] or time.perf_counter() >= deadline:
            break

    if tracer is not None:
        tracer.uninstall()
    result = {"rounds": rounds, "pid": os.getpid(),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
