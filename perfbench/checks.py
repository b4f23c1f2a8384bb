"""Output checks of the privagg benchmark.

Each check reads the files a command wrote and returns a list of error
messages; an empty list means the output is correct.  The checks use only
the standard library and numpy, never privagg, so they stay independent of
the code they judge.  A command whose output fails a check counts as a
failed operation.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Bernstein's inequality for a sum of independent Bernoulli variables with
# total mean mu: P(X >= mu + t) <= exp(-t^2 / (2 (mu + t/3))).  With
# L = ln(1e9) the margin below leaves a false alarm chance under 1e-9.
_MISS_LOG_ODDS = math.log(1e9)
_REL_TOL = 1e-12


def _read_jsonl(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _entries(objs: list, what: str, errors: list[str]) -> list[dict]:
    """Records carrying a query_id; other objects may only open or close the file."""
    entries = []
    for i, obj in enumerate(objs):
        if isinstance(obj, dict) and "query_id" in obj:
            entries.append(obj)
        elif 0 < i < len(objs) - 1:
            errors.append(f"{what}: line {i + 1} is neither a record nor a header/trailer")
    return entries


def q_threshold(gamma: float) -> float:
    """Largest q (exclusive) at which the data-dependent bound applies."""
    return math.expm1(2.0 * gamma) / math.expm1(4.0 * gamma)


def miss_margin(mu: float) -> float:
    """Largest excess over mu that the miss count may show (Bernstein)."""
    L = _MISS_LOG_ODDS
    return L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * L * mu)


def expected_moments(counts: np.ndarray, gamma: float, lambda_max: int):
    """Per-query q bound, moment bounds and data-dependent mask, from the votes.

    q = min(1, sum_{j != winner} (2 + gamma d_j) / (4 exp(gamma d_j))) with
    d_j the deficit to the plurality winner; at each order l the moment is
    the data-independent 2 gamma^2 l (l+1) unless q is below q_threshold and
    log((1-q) ((1-q)/(1 - e^{2 gamma} q))^l + q e^{2 gamma l}) is smaller.
    """
    c = counts.astype(float)
    rows = np.arange(len(c))
    winner = np.argmax(c, axis=1)
    d = gamma * (c[rows, winner][:, None] - c)
    terms = (2.0 + d) / (4.0 * np.exp(d))
    terms[rows, winner] = 0.0
    q = np.minimum(1.0, terms.sum(axis=1))
    orders = np.arange(1, lambda_max + 1, dtype=float)
    indep = 2.0 * gamma * gamma * orders * (orders + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = -np.expm1(2.0 * gamma + np.log(q))
        log_first = ((orders + 1.0)[None, :] * np.log1p(-q)[:, None]
                     - orders[None, :] * np.log(denom)[:, None])
        log_second = np.log(q)[:, None] + 2.0 * gamma * orders[None, :]
        dep = np.maximum(0.0, np.logaddexp(log_first, log_second))
    dep[q == 0.0] = 0.0
    usable = (q < q_threshold(gamma)) & ((denom >= 1e-12) | (q == 0.0))
    dependent = usable[:, None] & (dep < indep[None, :])
    return q, np.where(dependent, dep, indep[None, :]), dependent, indep


def check_ledger(path: Path, counts: np.ndarray, gamma: float,
                 lambda_max: int) -> tuple[list[str], dict]:
    """Ledger: one entry per query in input order, every alpha within the
    data-independent bound and equal to the bound recomputed from the votes.
    Returns (errors, facts) with the data-dependent share, the byte size and
    the order-wise alpha totals summed in ledger order."""
    errors: list[str] = []
    facts = {"dd_share": 0.0, "bytes": 0, "alpha_totals": [0.0] * lambda_max}
    try:
        facts["bytes"] = Path(path).stat().st_size
        objs = _read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"ledger unreadable: {exc}"], facts
    entries = _entries(objs, "ledger", errors)
    if len(entries) != len(counts):
        return errors + [f"ledger has {len(entries)} entries, expected {len(counts)}"], facts
    orders = list(range(1, lambda_max + 1))
    alphas = np.zeros((len(entries), lambda_max))
    sources = np.zeros((len(entries), lambda_max), dtype=bool)
    qs = np.zeros(len(entries))
    for i, entry in enumerate(entries):
        try:
            if entry["query_id"] != f"q{i:07d}":
                errors.append(f"ledger entry {i}: query_id {entry['query_id']!r} out of order")
            if entry["gamma"] != gamma:
                errors.append(f"ledger entry {i}: gamma {entry['gamma']!r} != {gamma!r}")
            moments = entry["moments"]
            if [mo["lambda"] for mo in moments] != orders:
                errors.append(f"ledger entry {i}: orders are not 1..{lambda_max}")
                continue
            qs[i] = entry["q_bound"]
            alphas[i] = [mo["alpha"] for mo in moments]
            sources[i] = [mo["source"] == "DataDependent" for mo in moments]
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"ledger entry {i}: malformed ({exc!r})")
    if errors:
        return errors, facts
    q, alpha, dependent, indep = expected_moments(counts, gamma, lambda_max)
    for i in np.flatnonzero((alphas < 0.0) | (alphas > indep * (1.0 + _REL_TOL)))[:5]:
        errors.append(f"ledger entry {i}: an alpha lies outside [0, 2 gamma^2 l (l+1)]")
    for i in np.flatnonzero(~np.isclose(qs, q, rtol=_REL_TOL, atol=0.0))[:5]:
        errors.append(f"ledger entry {i}: q_bound {qs[i]!r} != {q[i]!r} from the votes")
    bad = ~np.isclose(alphas, alpha, rtol=1e-9, atol=1e-14) | (sources != dependent)
    for i in np.flatnonzero(bad.any(axis=1))[:5]:
        errors.append(f"ledger entry {i}: moments differ from the bounds recomputed "
                      "from the votes")
    totals = facts["alpha_totals"]
    for row in alphas.tolist():
        for k, a in enumerate(row):
            totals[k] += a
    facts["dd_share"] = float(sources.mean())
    return errors, facts


def check_labels(path: Path, counts: np.ndarray, q_bounds: np.ndarray) -> list[str]:
    """Labels: one per query in input order, each in [0, m), and no more
    labels away from the plurality vote than the q bounds allow."""
    errors: list[str] = []
    try:
        objs = _read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"labels unreadable: {exc}"]
    entries = _entries(objs, "labels", errors)
    if len(entries) != len(counts):
        return errors + [f"labels file has {len(entries)} labels, expected {len(counts)}"]
    m = counts.shape[1]
    labels = []
    for i, entry in enumerate(entries):
        label = entry.get("label")
        if entry.get("query_id") != f"q{i:07d}":
            errors.append(f"label {i}: query_id {entry.get('query_id')!r} out of order")
        if not isinstance(label, int) or isinstance(label, bool) or not 0 <= label < m:
            errors.append(f"label {i}: {label!r} is not a class in [0, {m})")
            label = -1
        labels.append(label)
    if errors:
        return errors
    misses = int(np.count_nonzero(np.asarray(labels) != np.argmax(counts, axis=1)))
    mu = math.fsum(q_bounds)
    if misses > mu + miss_margin(mu):
        errors.append(f"{misses} labels differ from the plurality vote; the q bounds "
                      f"allow {mu:.3f} + {miss_margin(mu):.3f}")
    return errors


def check_guarantee(path: Path, alpha_totals: list[float], num_queries: int,
                    gamma: float, delta: float) -> list[str]:
    """Guarantee: epsilon recomputed from the ledger's alphas, and the strong
    composition baseline recomputed from its closed form."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        moments, strong = obj["moments"], obj["strong_composition"]
        reported = (float(moments["epsilon"]), moments["argmin_lambda"],
                    moments["num_queries"], float(moments["delta"]),
                    float(strong["epsilon"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"guarantee unreadable: {exc!r}"]
    eps, argmin, n, reported_delta, strong_eps = reported
    errors = []
    log_inv_delta = -math.log(delta)
    candidates = [((alpha + log_inv_delta) / order, order)
                  for order, alpha in enumerate(alpha_totals, start=1)]
    expected_eps, expected_argmin = min(candidates)
    if not math.isclose(eps, expected_eps, rel_tol=_REL_TOL):
        errors.append(f"moments epsilon {eps!r} != {expected_eps!r} recomputed "
                      "from the ledger")
    if argmin != expected_argmin:
        errors.append(f"argmin_lambda {argmin!r} != {expected_argmin}")
    if n != num_queries:
        errors.append(f"guarantee covers {n!r} queries, expected {num_queries}")
    if reported_delta != delta:
        errors.append(f"guarantee delta {reported_delta!r} != {delta!r}")
    t = float(num_queries)
    expected_strong = (4.0 * t * gamma * gamma
                       + 2.0 * gamma * math.sqrt(2.0 * t * math.log(1.0 / delta)))
    if not math.isclose(strong_eps, expected_strong, rel_tol=_REL_TOL):
        errors.append(f"strong composition epsilon {strong_eps!r} != {expected_strong!r}")
    return errors


def check_verify_report(path: Path, cases: int, mc_cases: int,
                        lambda_max: int) -> tuple[list[str], dict]:
    """Verification report: no failures, and check counts that match the
    case counts (one miss check per case, one moment check per order per
    neighbour, 2..5 classes per Monte Carlo case; no Monte Carlo family
    when ``mc_cases`` is 0)."""
    facts = {"checks": 0, "failures": 0, "pairs": 0, "mc_checks": 0}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        families = {name: (int(s["checks"]), int(s["failures"]))
                    for name, s in obj["checks"].items()}
        failures, got_cases, got_mc = int(obj["failures"]), obj["cases"], obj["mc_cases"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"verification report unreadable: {exc!r}"], facts
    errors = []
    facts["checks"] = sum(c for c, _ in families.values())
    facts["failures"] = failures
    if failures != 0 or any(f for _, f in families.values()):
        errors.append(f"verification reports {failures} failures: {families}")
    if (got_cases, got_mc) != (cases, mc_cases):
        errors.append(f"report covers {got_cases} cases and {got_mc} MC cases, "
                      f"expected {cases} and {mc_cases}")
    expected = {"miss_probability", "moment_bound", "pure_dp"}
    if mc_cases:
        expected.add("mc_agreement")
    if set(families) != expected:
        return errors + [f"check families {sorted(families)} != {sorted(expected)}"], facts
    pairs = families["pure_dp"][0]
    facts["pairs"], facts["mc_checks"] = pairs, families.get("mc_agreement", (0, 0))[0]
    if families["miss_probability"][0] != cases:
        errors.append(f"{families['miss_probability'][0]} miss-probability checks, "
                      f"expected {cases}")
    if families["moment_bound"][0] != lambda_max * pairs:
        errors.append(f"{families['moment_bound'][0]} moment checks, expected "
                      f"{lambda_max} x {pairs} neighbour pairs")
    if not 3 * cases <= pairs <= 30 * cases:
        errors.append(f"{pairs} neighbour pairs for {cases} cases (3 to 30 each)")
    if not 2 * mc_cases <= facts["mc_checks"] <= 5 * mc_cases:
        errors.append(f"{facts['mc_checks']} MC checks for {mc_cases} cases (2 to 5 each)")
    return errors, facts


def check_sweep_csv(path: Path, gammas) -> list[str]:
    """Sweep CSV: a provenance comment, a header, one row per gamma."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"sweep CSV unreadable: {exc}"]
    body = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
    if not body or not body[0].startswith("gamma,accuracy"):
        return ["sweep CSV lacks its gamma,accuracy header"]
    rows = body[1:]
    if len(rows) != len(gammas):
        return [f"sweep CSV has {len(rows)} rows, expected one per gamma ({len(gammas)})"]
    errors = []
    for gamma, row in zip(gammas, rows):
        try:
            cells = [float(c) for c in row.split(",")]
        except ValueError:
            cells = []
        if len(cells) != 4:
            errors.append(f"sweep row {row!r} is not four numbers")
            continue
        if cells[0] != gamma:
            errors.append(f"sweep row gamma {cells[0]!r} != {gamma!r}")
        if not 0.0 <= cells[1] <= 1.0:
            errors.append(f"sweep accuracy {cells[1]!r} at gamma {gamma!r} outside [0, 1]")
    return errors
