"""Independent ground truth for the mechanism and the accountant.

Everything here recomputes, from first principles and at desk scale only,
quantities the rest of the package bounds analytically:

  * ``outcome_distribution`` — exact per-class win probabilities of the
    noisy argmax, by fixed-order Gauss–Legendre quadrature on pieces
    graded geometrically away from every distinct count;
  * ``mc_outcome_frequencies`` — the same distribution by seeded sampling,
    used to cross-check the quadrature;
  * ``enumerate_neighbors`` — every histogram reachable by changing one
    training example of one teacher;
  * ``exact_moment`` / ``empirical_eps`` — the privacy-loss moment and
    worst-case log-ratio computed exactly from the outcome distributions.

None of these functions share code with the bounds they audit; that is the
point.  Sizes are guarded (m <= 16, n <= 10^4) and fail loudly.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .mechanism import _MAX_NOISE_LOG, VoteHistogram, _draw_noise, _gamma
from .seeding import derive_rng, MECHANISM_NOISE

MAX_CLASSES = 16
MAX_TEACHERS = 10_000

# Laplace tails beyond 40 scale units carry mass < e^-40; integrating over
# [min count - 40/gamma, max count + 40/gamma] keeps the truncation error
# far below the quadrature tolerance.
_TAIL_SCALE_UNITS = 40.0

# The 16-node Gauss–Legendre rule on [0, 1]: exact float copies of the
# nodes x and weights w that numpy's Legendre module computes on [-1, 1],
# mapped by (x + 1) / 2 and w / 2.  A fixed table spares the first
# quadrature that module's import and eigenvalue solve, and keeps the
# nodes independent of the linear algebra library that would solve for them.
_GL_NODES = (
    0.005299532504175031, 0.0277124884633837, 0.06718439880608412,
    0.1222977958224985, 0.19106187779867811, 0.2709916111713863,
    0.35919822461037054, 0.4524937450811813, 0.5475062549188188,
    0.6408017753896295, 0.7290083888286136, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939159, 0.9722875115366163,
    0.994700467495825)
_GL_WEIGHTS = (
    0.013576229705877088, 0.031126761969323728, 0.0475792558412463,
    0.062314485627767036, 0.07479799440828835, 0.08457825969750132,
    0.09130170752246182, 0.09472530522753432, 0.09472530522753432,
    0.09130170752246182, 0.08457825969750132, 0.07479799440828835,
    0.062314485627767036, 0.0475792558412463, 0.031126761969323728,
    0.013576229705877088)

# Slack for comparing quadrature output with analytic bounds, some of which
# are exactly tight (flat two-class histograms meet the q bound).  Measured
# relative error per class probability of the 16-node rule: at most 4.4e-16
# against 30-digit mpmath integrals on the tight and extreme shapes of
# tests/test_oracle.py, at most 4.4e-15 against scipy's adaptive quad
# (epsrel 1e-12) on 4486 sweep histograms, and at most 3.8e-15 from the
# former 48-node rule on 4528 sweep histograms and the extreme shapes.  A
# relative error e per probability moves the moment of order l by about
# (2l + 1) e, so 1e-13 at l = 8; the largest exceedance is 6.6e-16 in the
# 3000-case criterion-3 sweep and 1.8e-15 in the 300-case sweep at m <= 10,
# n <= 250.  1e-9 keeps four orders of magnitude of margin above 1e-13.
QUADRATURE_TOLERANCE = 1e-9

_MC_CHUNK = 200_000

_NEG_INF = -math.inf


@functools.cache
def _gl_arrays():
    """``_GL_NODES`` and ``_GL_WEIGHTS`` as arrays, built on the first quadrature."""
    import numpy as np
    return np.array(_GL_NODES), np.array(_GL_WEIGHTS)


class UnsupportedSizeError(ValueError):
    """Histogram too large for the desk-scale quadrature oracle."""


@dataclass(frozen=True, slots=True)
class OutcomeDistribution:
    """Per-class probabilities that the noisy argmax returns each class,
    with their natural logs (-inf where a probability is 0)."""

    probs: tuple[float, ...]
    log_probs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        log, probs, logs = math.log, [], []
        for j, p in enumerate(self.probs):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability for class {j} outside [0, 1]: {p!r}")
            if p > 0.0:
                p = float(p)
                probs.append(p)
                logs.append(log(p))
            else:
                probs.append(0.0)
                logs.append(_NEG_INF)
        total = sum(self.probs)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "probs", tuple(probs))
        object.__setattr__(self, "log_probs", tuple(logs))


@dataclass(frozen=True, slots=True)
class AdjacentPair:
    """Two histograms induced by datasets differing in one training example.

    One example changing for one teacher moves that teacher's vote, so the
    count vectors differ by at most 1 in at most two coordinates and the
    totals differ by at most 1.
    """

    d: VoteHistogram
    d_prime: VoteHistogram

    def __post_init__(self):
        a, b = self.d, self.d_prime
        if a.num_classes != b.num_classes:
            raise ValueError("adjacent histograms must share the class count")
        diffs = [y - x for x, y in zip(a.counts, b.counts)]
        if any(abs(d) > 1 for d in diffs):
            raise ValueError(f"counts differ by more than 1 in a coordinate: {diffs}")
        if sum(1 for d in diffs if d != 0) > 2:
            raise ValueError(f"counts differ in more than two coordinates: {diffs}")
        if abs(a.total - b.total) > 1:
            raise ValueError(f"totals differ by more than 1: {a.total} vs {b.total}")


def _check_size(counts: tuple[int, ...]) -> None:
    if len(counts) > MAX_CLASSES:
        raise UnsupportedSizeError(
            f"quadrature oracle supports m <= {MAX_CLASSES}, got {len(counts)}")
    if sum(counts) > MAX_TEACHERS:
        raise UnsupportedSizeError(
            f"quadrature oracle supports n <= {MAX_TEACHERS}, got {sum(counts)}")


@functools.lru_cache(maxsize=4096)
def _outcome_distribution(counts: tuple[int, ...], gamma: float) -> OutcomeDistribution:
    """Validated outcome distribution, memoised: a sweep asks for each
    histogram once per neighbour and order."""
    _check_size(counts)
    return OutcomeDistribution(_outcome_probs(counts, gamma))


def _outcome_probs(counts: tuple[int, ...], gamma: float) -> tuple[float, ...]:
    """Win probability of every class, by the 16-node graded quadrature of
    ``_graded_quadrature``, run once per sorted histogram up to a shift.

    Ties have probability 0 under continuous noise, so the probabilities
    are permutation-equivariant and depend on a class only through its
    count: permuted histograms, and neighbours that differ only in which
    class holds a count, share one cached quadrature.  The quadrature reads
    only differences of counts, so histograms that differ by the same
    amount in every class share it too.  Not size-guarded.
    """
    ranked = sorted(counts)
    low = ranked[0]
    probs = _sorted_outcome_probs(tuple([c - low for c in ranked]), gamma)
    return tuple([probs[c - low] for c in counts])


@functools.lru_cache(maxsize=4096)
def _sorted_outcome_probs(gaps: tuple[int, ...], gamma: float) -> Mapping[int, float]:
    """Win probability of a class at each distinct count of ``gaps``, the
    sorted counts minus their minimum, keyed by that count (read-only, as
    every caller shares it)."""
    kinks = sorted(set(gaps))
    probs = _graded_quadrature(kinks, [gaps.count(k) for k in kinks], gamma)
    return MappingProxyType(dict(zip(kinks, probs)))


def _graded_quadrature(kinks, reps, gamma: float) -> list[float]:
    """Win probability of one class at each distinct count, by graded
    Gauss–Legendre quadrature.

    ``reps[i]`` classes hold the count ``kinks[i]``.  Class j wins exactly
    when its perturbed count tops the rest, so

        P(j) = integral  pdf(t - n_j) * prod_{k != j} cdf(t - n_k)  dt

    with Laplace pdf/cdf of scale b = 1/gamma; classes with equal counts
    share the integrand, and the product takes each distinct count's CDF
    to the power of its multiplicity.  The integrand has kinks at the
    distinct counts.  Between two of them every factor has one analytic
    form, so the integrand is a sum of exponentials exp(r t / b) with
    |r| <= m, each largest at a kink.  Every kink owns the reach to the
    midpoint of each neighbouring gap (40 b on the outer sides, where the
    tails are truncated), cut at the offsets b, 2b, 4b, ...  A piece is
    therefore never wider than max(b, its distance from the kink), so an
    exponential either varies by at most e^m across it or has decayed
    there by at least as much as it varies.  The 16-node rule integrates
    both to double precision: on the 300 sweep cases of one seed with all
    their neighbours (4,528 histograms) and on the extreme shapes of
    tests/test_oracle.py, its largest relative difference per class from
    the 48-node rule is 3.8e-15.  Nodes are kept as offsets from their
    kink, so gamma * (t - n_k) keeps full relative precision at any count.
    Only differences of counts enter, so shifting every count by the same
    integer leaves every returned float unchanged.

    All distinct counts are evaluated in one (d, P, 16) array over the P
    pieces; the leave-one-out CDF product comes from running prefix and
    suffix products over them.
    """
    import numpy as np
    nodes, weights = _gl_arrays()
    b = 1.0 / gamma
    tail = _TAIL_SCALE_UNITS * b
    halves = [(hi - lo) / 2.0 for lo, hi in zip(kinks, kinks[1:])]
    # One row per piece, graded outwards: its kink, its signed start offset
    # and signed width from the kink, and gamma times its width.
    rows = []
    for side, reaches in ((-1.0, [tail] + halves), (1.0, halves + [tail])):
        for kink, reach in zip(kinks, reaches):
            cut, end = 0.0, b
            while cut < reach:
                if reach < end:
                    end = reach
                rows += kink, side * cut, side * (end - cut), gamma * (end - cut)
                cut, end = end, 2.0 * end
    piece = np.fromiter(rows, float, len(rows)).reshape(-1, 4)
    weight = (piece[:, 3:] * weights).ravel()
    gap = piece[:, 0] - np.array(kinks, dtype=float)[:, None]

    # z[k] = gamma * (t - n_k); half = pdf / gamma = exp(-|z|) / 2.
    z = gap[:, :, None] + (piece[:, 1:2] + piece[:, 2:3] * nodes)
    z *= gamma
    half = np.abs(z)
    np.negative(half, out=half)
    np.exp(half, out=half)
    half *= 0.5
    cdf = 1.0 - half
    np.copyto(cdf, half, where=z < 0.0)
    # A count held by r classes enters every other class's product as
    # cdf^r and its own class's as cdf^(r - 1).
    own = [(k, cdf[k] ** (r - 1)) for k, r in enumerate(reps) if r > 1]
    for k, power in own:
        cdf[k] *= power
    d = len(kinks)
    others = np.empty_like(cdf)
    if d == 1:
        others[0] = 1.0
    else:
        others[1] = cdf[0]
        for k in range(2, d):
            np.multiply(others[k - 1], cdf[k - 1], out=others[k])
        suffix = cdf[-1]
        for k in range(d - 2, 0, -1):
            others[k] *= suffix
            suffix = suffix * cdf[k]
        others[0] = suffix
    for k, power in own:
        others[k] *= power
    others *= half
    probs = others.reshape(d, -1) @ weight
    return probs.tolist()


def outcome_distribution(hist: VoteHistogram, gamma: float) -> OutcomeDistribution:
    """Exact noisy-argmax outcome distribution for one histogram.

    Raises UnsupportedSizeError beyond m = 16 classes or n = 10^4 votes, and
    ValueError for a gamma that ``MechanismParams`` would refuse.
    """
    # mechanism._gamma's rule: at gamma = inf the quadrature's pieces would
    # never grow, and at a b = 1/gamma of inf every piece is NaN.  A verify
    # round calls this per histogram and gamma, so a plain float that passes
    # skips the full check.
    if not (type(gamma) is float and 0.0 < gamma < math.inf
            and 1.0 / gamma * _MAX_NOISE_LOG < math.inf):
        gamma = _gamma(gamma)
    return _outcome_distribution(hist.counts, gamma)


def mc_outcome_frequencies(hist: VoteHistogram, gamma: float, trials: int,
                           seed: int = 0) -> OutcomeDistribution:
    """Empirical outcome frequencies over seeded noisy-argmax trials.

    Consumes the uniform stream exactly as ``trials`` sequential
    ``noisy_argmax`` calls would (one draw per class in class order), but
    vectorized in chunks; ``trials=1`` therefore reproduces a single
    mechanism invocation for the same seed.
    """
    gamma = _gamma(gamma)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    import numpy as np
    m = hist.num_classes
    counts_row = np.asarray(hist.counts, dtype=float)
    rng = derive_rng(seed, MECHANISM_NOISE, 0)
    wins = np.zeros(m, dtype=np.int64)
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        noise = _draw_noise(rng, 1.0 / gamma, chunk * m).reshape(chunk, m)
        winners = np.argmax(counts_row + noise, axis=1)
        wins += np.bincount(winners, minlength=m)
        remaining -= chunk
    return OutcomeDistribution(tuple(wins / trials))


def enumerate_neighbors(hist: VoteHistogram) -> list[AdjacentPair]:
    """All adjacent histograms, each paired with the original exactly once.

    A one-example change either moves a vote from a non-empty class j to a
    class k != j (the teacher flips its prediction), or adds or removes one
    vote; they come in that order, classes ascending.  Moves keep the total
    and distinct moves differ, so no neighbour repeats.  A one-vote
    histogram has no losses: a histogram needs at least one vote.
    """
    counts = hist.counts
    m = len(counts)
    neighbors: list[list[int]] = []
    for j in range(m):
        if counts[j] < 1:
            continue
        for k in range(m):
            if k == j:
                continue
            moved = list(counts)
            moved[j] -= 1
            moved[k] += 1
            neighbors.append(moved)
    for j in range(m):
        bumped = list(counts)
        bumped[j] += 1
        neighbors.append(bumped)
    if hist.total > 1:
        for j in range(m):
            if counts[j] < 1:
                continue
            dropped = list(counts)
            dropped[j] -= 1
            neighbors.append(dropped)
    return [AdjacentPair(d=hist, d_prime=VoteHistogram(tuple(n))) for n in neighbors]


def exact_moment(pair: AdjacentPair, gamma: float, order: int) -> float:
    """Privacy-loss moment  log sum_o P_d(o)^(l+1) / P_d'(o)^l,  exactly.

    Both outcome distributions come from the quadrature; the sum is taken
    in log space.  Outcomes with zero probability under d contribute
    nothing; a zero under d' with positive mass under d would make the
    moment infinite (impossible for Laplace noise at supported sizes, so
    +inf here signals an internal error).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    p = outcome_distribution(pair.d, gamma).log_probs
    q = outcome_distribution(pair.d_prime, gamma).log_probs
    # Plain loops: a comprehension here would be a closure over order and
    # peak, which costs more per call than the loop it replaces.
    up, terms = order + 1, []
    for lp, lq in zip(p, q):
        if lp != _NEG_INF:
            terms.append(up * lp - order * lq)
    peak = max(terms)
    if peak == math.inf:
        return math.inf
    exp, scaled = math.exp, []
    for t in terms:
        scaled.append(exp(t - peak))
    return peak + math.log(sum(scaled))


def empirical_eps(pair: AdjacentPair, gamma: float) -> float:
    """Worst-case |log P_d(o) / P_d'(o)| over outcomes — the realized epsilon.

    Outcomes whose probability underflows to zero under both histograms are
    skipped; one-sided zeros yield +inf (an internal error at supported
    sizes, as for ``exact_moment``).
    """
    p = outcome_distribution(pair.d, gamma).log_probs
    q = outcome_distribution(pair.d_prime, gamma).log_probs
    worst = 0.0
    for lp, lq in zip(p, q):
        if lp == lq == -math.inf:
            continue
        if lp == -math.inf or lq == -math.inf:
            return math.inf
        worst = max(worst, abs(lp - lq))
    return worst
