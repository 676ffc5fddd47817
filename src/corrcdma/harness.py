"""Deterministic Monte-Carlo BER experiments over the detector variants.

Every trial's randomness is derived from (master seed, trial index, stream
id), so a report is a pure function of its config: reruns are bit-identical
regardless of worker count, trial grouping, the other arms of a joint run
or completion order. The arms of a paired study run jointly: each trial's
realization (source block, spreading codes and noise) is drawn once and
detected by every arm that shares its channel fields, so pairing holds by
construction and every normalized quantity (correlated over plain
detection) reflects only the detectors' differences.

Per-position error counts are summed as integers, so aggregation is exact
and commutative; all rates derive from the final counts.
"""

from __future__ import annotations

import atexit
import csv
import dataclasses
import io
import math
import os
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, detectors
from .baselines import (
    AMPLIFICATIONS,
    bandwidth_expansion_comparison,
    check_threshold_factor,
    compression_point,
    error_ratio,
    fit_loglog_slope,
    fixed_load_comparison,
    saturation_position,
)
from .channel import generate_spreading, transmit
from .detectors import (
    DetectorDivergence,
    DetectorOptions,
    _run_engine,
    hard_decisions,
    sumf,
)
from .markov import (
    TransitionMatrix,
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
    perturb_element,
    source_stats,
)

STREAM_CHANNEL = 0
STREAM_SCHEDULE = 1

VARIANTS = ("plain_mud", "correlated_mud", "plain_sumf", "correlated_sumf")
MUD_VARIANTS = ("plain_mud", "correlated_mud")

def _default_matrix() -> TransitionMatrix:
    return make_symmetric_matrix(0.8)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully pinned Monte-Carlo experiment.

    matrix is the generator's transition matrix; mismatch perturbs the
    detector-assumed copy only. seed is the master seed every trial stream
    derives from. schedule, blind and max_iters are DetectorOptions' knobs,
    with its defaults and its checks.
    """

    spread_factor: int = 1000
    n_users: int = 800
    sigma: float = 0.8
    word_length: int = 100
    matrix: TransitionMatrix = field(default_factory=_default_matrix)
    variant: str = "correlated_mud"
    schedule: str = DetectorOptions.schedule
    blind: bool = DetectorOptions.blind
    mismatch: float = 0.0
    ensemble: int = 100
    seed: int = 0
    max_iters: int = DetectorOptions.max_iters

    def __post_init__(self):
        if self.spread_factor < 1 or self.n_users < 1:
            raise ValueError("spread_factor and n_users must be >= 1")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(
                f"sigma must be finite and >= 0, got {self.sigma}")
        if self.sigma == 0.0 and self.variant in MUD_VARIANTS:
            raise ValueError(f"variant {self.variant} requires sigma > 0")
        if self.word_length < 1:
            raise ValueError("word_length must be >= 1")
        if self.blind and self.word_length < 2:
            raise ValueError("blind mode estimates transitions and needs "
                             "word_length >= 2")
        if not isinstance(self.matrix, TransitionMatrix):
            raise ValueError("matrix must be a TransitionMatrix")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        DetectorOptions(max_iters=self.max_iters, schedule=self.schedule,
                        blind=self.blind)
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mismatch != 0.0:
            self.detector_matrix()  # fail fast on infeasible perturbations

    @property
    def load(self) -> float:
        return self.n_users / self.spread_factor

    def detector_matrix(self) -> TransitionMatrix:
        if self.mismatch == 0.0:
            return self.matrix
        return perturb_element(self.matrix, self.mismatch)

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_flat() if f.name == "matrix" else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from string-or-typed key/value pairs.

        The keys are the field names, each value cast by its field's type,
        plus the SHORTHANDS, each of which excludes the field it sets.
        Unknown keys are rejected by name.
        """
        data = dict(data)
        for key, (name, _) in SHORTHANDS.items():
            if key in data and name in data:
                raise ValueError(f"config specifies both {key} and {name}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in data:
                kwargs[f.name] = _cast(f.type, data.pop(f.name), f.name)
        for key, (name, expand) in SHORTHANDS.items():
            if key in data:
                kwargs[name] = expand(_cast("float", data.pop(key), key),
                                      kwargs)
        if data:
            raise ValueError(f"unknown config key: {sorted(data)[0]}")
        return cls(**kwargs)


def _parse_float(value):
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expects a finite number, got {value!r}")
    return number


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expects a boolean, got {value!r}")


# How from_dict casts a value, by the type name its field declares.
_CASTS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "bool": _parse_bool,
    "TransitionMatrix": lambda value: (
        value if isinstance(value, TransitionMatrix)
        else TransitionMatrix.from_flat(str(value))),
}


def _cast(kind: str, value, key: str):
    """value cast to the type named kind, else ValueError naming key."""
    try:
        return _CASTS[kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {key}: {exc}") from None


# Config keys that are not fields: key -> (the field it sets, its value from
# the key's number and the fields cast so far).
SHORTHANDS = {
    "lambda2": ("matrix", lambda lam, kwargs: make_symmetric_matrix(lam)),
    "load": ("n_users", lambda load, kwargs: int(round(
        kwargs.get("spread_factor", ExperimentConfig.spread_factor) * load))),
}


@dataclass(frozen=True)
class TrialOutcome:
    """Integer error counts and iteration stats of one ensemble sample."""

    errors_by_position: np.ndarray
    iters: np.ndarray
    unconverged_positions: int
    diverged: bool


@dataclass(frozen=True)
class BerReport:
    """Ensemble-aggregated BER with exact count bookkeeping.

    aggregate equals errors_total/bits_total exactly; per_position averages
    over users and trials; std_err is the per-position binomial
    approximation sqrt(p(1-p)/bits). unconverged_positions counts symbol
    positions that hit the iteration cap, divergences counts trials whose
    detector field blew up (their matched-filter decisions are counted).
    """

    config: ExperimentConfig
    per_position: np.ndarray
    std_err: np.ndarray
    errors_by_position: np.ndarray
    errors_total: int
    bits_total: int
    aggregate: float
    iters_median: float
    iters_max: int
    unconverged_positions: int
    divergences: int

    def summary(self) -> dict:
        return {
            "errors_total": self.errors_total,
            "bits_total": self.bits_total,
            "aggregate": self.aggregate,
            "iters_median": self.iters_median,
            "iters_max": self.iters_max,
            "unconverged_positions": self.unconverged_positions,
            "divergences": self.divergences,
        }


def _trial_rng(config: ExperimentConfig, trial_index: int, stream: int):
    seq = np.random.SeedSequence([config.seed, trial_index, stream])
    return np.random.default_rng(seq)


def _channel(config: ExperimentConfig) -> tuple:
    """The fields that fix a trial's realization, with its index: arms that
    agree on them see the same source block, chips and noise."""
    return (config.seed, config.matrix, config.spread_factor, config.n_users,
            config.word_length, config.sigma)


def _engine_kind(config: ExperimentConfig) -> tuple:
    """The fields one detection engine run needs equal across its slots;
    the slots may differ in their realization and in the matrix their
    detector assumes."""
    return (config.variant, config.schedule, config.blind, config.max_iters,
            config.spread_factor, config.n_users, config.word_length,
            config.sigma)


def _realization(config: ExperimentConfig, trial_index: int, with_corr: bool):
    """What detection needs of one trial: its source block, matched field
    and, if with_corr, code correlation matrix.

    The channel stream is drawn in a fixed order (source block, spreading
    chips, noise), so every detector variant sees identical realizations;
    the chips and the received samples are dropped once read.
    """
    rng = _trial_rng(config, trial_index, STREAM_CHANNEL)
    block = generate_block(config.matrix, config.n_users, config.word_length, rng)
    spreading = generate_spreading(config.spread_factor, config.n_users, rng)
    matched = sumf(spreading, transmit(spreading, block, config.sigma, rng))
    return block, matched, spreading.corr if with_corr else None


def _detect(slots):
    """Detection results of slots, (config, trial index, realization)
    triples of one engine kind, in one engine call with their trials'
    RSUS streams; None for the plain matched filter, which only slices."""
    config = slots[0][0]
    if config.variant == "plain_sumf":
        return [None] * len(slots)
    return _run_engine(
        [matched for _, _, (_, matched, _) in slots],
        [corr for _, _, (_, _, corr) in slots], config.load, config.sigma,
        DetectorOptions(max_iters=config.max_iters, schedule=config.schedule,
                        blind=config.blind),
        assumed=(None if config.variant == "plain_mud"
                 else [cfg.detector_matrix() for cfg, _, _ in slots]),
        iterate=config.variant in MUD_VARIANTS,
        rngs=([_trial_rng(cfg, index, STREAM_SCHEDULE)
               for cfg, index, _ in slots]
              if config.schedule == "RSUS" else None))


def _outcome(config: ExperimentConfig, realization, result) -> TrialOutcome:
    """A trial's error counts from its detection result; a trial whose
    detector diverged, like the plain matched filter, counts the
    matched-filter decisions."""
    block, matched, _ = realization
    diverged = isinstance(result, DetectorDivergence)
    if result is None or diverged:
        bits = hard_decisions(matched)
        iters = np.zeros(config.word_length, dtype=np.int64)
        unconverged = config.word_length if diverged else 0
    else:
        bits, iters = result.bits, result.iters
        unconverged = int(np.count_nonzero(~result.converged))
    return TrialOutcome(
        errors_by_position=(bits != block).sum(axis=0, dtype=np.int64),
        iters=iters, unconverged_positions=unconverged, diverged=diverged)


def _detect_realizations(payload) -> list[list[TrialOutcome]]:
    """The outcomes of every arm on every realization of payload.

    payload holds (trial index, arms) pairs, the arms being configs with
    the same channel fields. Each realization is drawn once, and the slots
    of each engine kind, across arms and realizations, go to one engine
    call, which groups them. A slot's result does not depend on its group,
    so each outcome equals its trial run alone. Returns, per realization,
    its arms' outcomes in order.
    """
    kinds = {}  # engine kind -> ((realization, arm) place, slot) pairs
    for r, (index, arms) in enumerate(payload):
        realization = _realization(
            arms[0], index, any(cfg.variant in MUD_VARIANTS for cfg in arms))
        for a, cfg in enumerate(arms):
            kinds.setdefault(_engine_kind(cfg), []).append(
                ((r, a), (cfg, index, realization)))
    outcomes = [[None] * len(arms) for _, arms in payload]
    for slots in kinds.values():
        results = _detect([slot for _, slot in slots])
        for ((r, a), (cfg, _, realization)), result in zip(slots, results):
            outcomes[r][a] = _outcome(cfg, realization, result)
    return outcomes


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialOutcome:
    """One ensemble sample: generate, transmit, detect, count errors; a
    deterministic function of (config.seed, trial_index), through the
    path every joint run takes. A trial whose detector diverges still
    counts, with the matched-filter decisions."""
    return _detect_realizations([(trial_index, (config,))])[0][0]


def _realizations(arms) -> list[tuple]:
    """(trial index, arms) of every realization the arms run: arms with the
    same channel fields share the realizations of their common trial
    indices. Channels come in order of first appearance, each in trial
    order."""
    channels = {}
    for cfg in arms:
        channels.setdefault(_channel(cfg), []).append(cfg)
    return [(index, tuple(cfg for cfg in group if index < cfg.ensemble))
            for group in channels.values()
            for index in range(max(cfg.ensemble for cfg in group))]


def _payloads(realizations, workers: int | None = None) -> list[list]:
    """The realizations in pool payloads, each detected by one worker call.

    Realizations whose arms are of the same engine kinds fill a payload in
    order, up to a worker's share of them and detectors.GROUP_USERS users
    in the fullest engine call, the most that one lockstep group of the
    engine holds.
    """
    buckets = {}
    for index, arms in realizations:
        kinds = Counter(_engine_kind(cfg) for cfg in arms)
        buckets.setdefault(frozenset(kinds), []).append(
            ((index, arms), arms[0].n_users * max(kinds.values())))
    payloads = []
    for bucket in buckets.values():
        share = -(-len(bucket) // (workers or 1))
        start = len(payloads)
        for realization, users in bucket:
            if (len(payloads) == start or len(payloads[-1]) == share
                    or total + users > detectors.GROUP_USERS):
                payloads.append([])
                total = 0
            payloads[-1].append(realization)
            total += users
    return payloads


# The process's one worker pool, as (executor, worker count, pid of the
# process that made it), or None: made by the first parallel monte_carlo
# call and reused by every later call with the same count. It is shared
# without a lock, so parallel calls must come from one thread at a time.
_pool = None


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` processes, made on first use.

    A pool of another size is shut down before the new one forks, so at
    most one pool is alive. A pool inherited through fork belongs to the
    parent and is dropped unused.
    """
    global _pool
    if _pool is not None:
        executor, count, pid = _pool
        if pid != os.getpid():
            _pool = None
        elif count == workers:
            return executor
        else:
            shutdown_pool()
    executor = ProcessPoolExecutor(max_workers=workers)
    _pool = (executor, workers, os.getpid())
    return executor


def shutdown_pool() -> None:
    """Shut down and forget this process's worker pool, if it has one.

    Registered to run at interpreter exit, so the pool's end does not rest
    on concurrent.futures' own exit hook.
    """
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[2] == os.getpid():
        pool[0].shutdown()


atexit.register(shutdown_pool)


def monte_carlo_arms(configs, workers: int | None = None
                     ) -> dict[ExperimentConfig, BerReport]:
    """The {config: report} map of the configs, one entry per distinct
    config in order of first appearance, from one joint run of their
    trials.

    Arms with the same channel fields (seed, generator matrix, sizes and
    noise) share each trial's realization, drawn once, so their pairing
    holds by construction; arms of one engine kind are detected in
    lockstep across arms and trials. Payloads of realizations run in
    order, optionally across processes. Counts are integers and their
    summation commutative, and an outcome depends neither on its group
    nor on the other arms, so every report is bit-identical to its arm run
    alone, for any worker count. The worker processes are forked once per
    process and worker count, by the first parallel call, and every later
    call reuses them; code patched in this process after that fork is not
    seen by the workers, so a caller that patches worker-side code must run
    serially. A pool that breaks (a worker died) raises BrokenProcessPool
    and is dropped, and the next parallel call forks a fresh one.
    """
    check_workers(workers)
    arms = list(dict.fromkeys(configs))
    payloads = _payloads(_realizations(arms), workers)
    if workers is None or workers == 1 or len(payloads) <= 1:
        groups = map(_detect_realizations, payloads)
    else:
        chunk = max(1, len(payloads) // (workers * 4))
        try:
            groups = list(_worker_pool(workers).map(
                _detect_realizations, payloads, chunksize=chunk))
        except BrokenProcessPool:
            shutdown_pool()
            raise
    outcomes = {cfg: [] for cfg in arms}
    for payload, group in zip(payloads, groups):
        for (_, cfgs), per_arm in zip(payload, group):
            for cfg, outcome in zip(cfgs, per_arm):
                outcomes[cfg].append(outcome)
    return {cfg: _report(cfg, trials) for cfg, trials in outcomes.items()}


def monte_carlo(config: ExperimentConfig, workers: int | None = None) -> BerReport:
    """The report of config's ensemble: monte_carlo_arms on one arm."""
    return monte_carlo_arms([config], workers)[config]


def _report(config: ExperimentConfig, outcomes) -> BerReport:
    """The ensemble's report from its trials' outcomes, in trial order."""
    errors = np.zeros(config.word_length, dtype=np.int64)
    iters_all = []
    unconverged = 0
    divergences = 0
    for outcome in outcomes:
        errors += outcome.errors_by_position
        iters_all.append(outcome.iters)
        unconverged += outcome.unconverged_positions
        divergences += int(outcome.diverged)

    bits_per_position = config.n_users * config.ensemble
    bits_total = bits_per_position * config.word_length
    per_position = errors / bits_per_position
    std_err = np.sqrt(per_position * (1.0 - per_position) / bits_per_position)
    iters_flat = np.concatenate(iters_all)
    errors.flags.writeable = False
    per_position.flags.writeable = False
    std_err.flags.writeable = False
    return BerReport(
        config=config, per_position=per_position, std_err=std_err,
        errors_by_position=errors, errors_total=int(errors.sum()),
        bits_total=bits_total, aggregate=int(errors.sum()) / bits_total,
        iters_median=float(np.median(iters_flat)),
        iters_max=int(iters_flat.max()), unconverged_positions=unconverged,
        divergences=divergences)


# ---------------------------------------------------------------------------
# experiment plans


@dataclass(frozen=True)
class Plan:
    """An experiment: the configs it runs, in run order, and reduce, the
    pure map from their {config: report} lookup to its result. An arm
    that points share is listed once; a point listed twice lists its arms
    twice."""

    runs: tuple
    reduce: Callable[[dict], object]

    def run(self, workers: int | None = None, run_report=None):
        """The result, from one monte_carlo_arms call over the distinct
        runs or, when run_report is given (testing, or reports already
        run), from run_report(cfg), asked once per distinct run in run
        order."""
        if run_report is None:
            return self.reduce(monte_carlo_arms(self.runs, workers))
        return self.reduce({cfg: run_report(cfg)
                            for cfg in dict.fromkeys(self.runs)})


@dataclass(frozen=True)
class SweepPoint:
    """One correlation setting's paired correlated-vs-plain measurement."""

    lambda2: float
    correlation_length: float
    p_corr: float
    p_plain: float
    normalized: float
    errors_corr: int
    errors_plain: int
    bits_total: int


def paired_arms(config: ExperimentConfig) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The correlated-MUD and plain-MUD arms of a paired study.

    The lambda2 and mismatch sweeps and the fixed-load protocol run these
    two arms whatever config.variant is, on identical realizations, and
    the bandwidth protocol takes its correlated arm from here; the plain
    arm never carries a mismatch. Building them validates both,
    so a config the arms reject (sigma = 0) fails before any run.
    """
    return (replace(config, variant="correlated_mud"),
            replace(config, variant="plain_mud", mismatch=0.0))


def lambda2_plan(config: ExperimentConfig, lambda2_values) -> Plan:
    """The paired sweep over second eigenvalues, reduced to a SweepPoint
    per value. Each point runs its correlated arm, then its plain arm
    (paired_arms on the symmetric matrix of its eigenvalue). Every value is
    checked to lie in [0, 1) and every arm built, and so validated, before
    the plan exists."""
    points = []
    for lam in map(float, lambda2_values):
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"lambda2 must lie in [0, 1), got {lam}")
        points.append((lam, *paired_arms(
            replace(config, matrix=make_symmetric_matrix(lam)))))

    def reduce(reports):
        sweep = []
        for lam, corr_arm, plain_arm in points:
            corr, plain = reports[corr_arm], reports[plain_arm]
            sweep.append(SweepPoint(
                lambda2=lam,
                correlation_length=source_stats(
                    corr_arm.matrix).correlation_length,
                p_corr=corr.aggregate, p_plain=plain.aggregate,
                normalized=error_ratio(corr.aggregate, plain.aggregate),
                errors_corr=corr.errors_total, errors_plain=plain.errors_total,
                bits_total=corr.bits_total))
        return sweep

    return Plan(tuple(cfg for _, *arms in points for cfg in arms), reduce)


def normalized_ber_sweep(config: ExperimentConfig, lambda2_values,
                         workers: int | None = None,
                         run_report=None) -> list[SweepPoint]:
    """Paired correlated-MUD over plain-MUD BER for each second eigenvalue:
    lambda2_plan run jointly, so at lambda2 = 0 the reduction property
    makes the ratio exactly 1."""
    return lambda2_plan(config, lambda2_values).run(workers, run_report)


@dataclass(frozen=True)
class LengthScalingResult:
    """Saturation positions per word length and their log-log fit."""

    lengths: tuple
    positions: tuple
    slope: float
    intercept: float


def length_plan(config: ExperimentConfig, lengths,
                threshold_factor: float = 1.2) -> Plan:
    """The word-length study: config at every length, each curve reduced
    to its saturation position and log(position) fitted over log(length).
    Every config is built (and so validated), the threshold factor checked
    and at least 3 distinct lengths of at least 2 (a saturation position
    needs two positions) required before the plan exists. Zero positions
    are left out of the fit with a warning; fewer than two usable points
    abort the reduction with ValueError."""
    check_threshold_factor(threshold_factor)
    lengths = [int(l) for l in lengths]
    if len(set(lengths)) < 3:
        raise ValueError("need at least 3 distinct word lengths")
    configs = tuple(replace(config, word_length=length) for length in lengths)
    if min(lengths) < 2:
        raise ValueError(f"word lengths must be >= 2 for a saturation "
                         f"position, got {min(lengths)}")

    def reduce(reports):
        positions = [saturation_position(reports[cfg].per_position,
                                         threshold_factor) for cfg in configs]
        slope, intercept = fit_loglog_slope(lengths, positions)
        return LengthScalingResult(tuple(lengths), tuple(positions), slope,
                                   intercept)

    return Plan(configs, reduce)


def length_scaling_study(config: ExperimentConfig, lengths,
                         threshold_factor: float = 1.2,
                         workers: int | None = None,
                         run_report=None) -> LengthScalingResult:
    """Saturation position vs word length: length_plan run jointly."""
    return length_plan(config, lengths, threshold_factor).run(workers,
                                                              run_report)


@dataclass(frozen=True)
class MismatchPoint:
    """Normalized BER under a detector-assumed matrix perturbation."""

    lambda2: float
    rel_delta: float
    feasible: bool
    reason: str | None
    p_corr: float
    p_plain: float
    normalized: float


def mismatch_plan(config: ExperimentConfig, rel_deltas,
                  lambda2_values) -> Plan:
    """The mismatch surface, reduced to a MismatchPoint per (eigenvalue,
    perturbation) pair, eigenvalue-major.

    The generator always uses the true matrix; the correlated arm assumes
    the perturbed copy. Per eigenvalue with a feasible perturbation the
    plan runs the plain arm, then every feasible correlated arm; an
    infeasible one (an element pushed out of [0, 1]) runs nothing and its
    point records the validation message. All is checked before the plan
    exists.
    """
    arms = []  # (lambda2, plain arm, [(delta, correlated arm, reason)])
    runs = []
    for lam in map(float, lambda2_values):
        corr_arm, plain_arm = paired_arms(replace(
            config, matrix=make_symmetric_matrix(lam), mismatch=0.0))
        points = []
        for delta in map(float, rel_deltas):
            try:
                points.append((delta, replace(corr_arm, mismatch=delta), None))
            except ValueError as exc:  # the perturbation leaves [0, 1]
                points.append((delta, None, str(exc)))
        feasible = [arm for _, arm, _ in points if arm is not None]
        runs += [plain_arm, *feasible] if feasible else []
        arms.append((lam, plain_arm, points))

    def reduce(reports):
        surface = []
        for lam, plain_arm, points in arms:
            for delta, corr_arm, reason in points:
                p_corr = p_plain = normalized = math.nan
                if corr_arm is not None:
                    p_corr = reports[corr_arm].aggregate
                    p_plain = reports[plain_arm].aggregate
                    normalized = error_ratio(p_corr, p_plain)
                surface.append(MismatchPoint(
                    lambda2=lam, rel_delta=delta,
                    feasible=corr_arm is not None, reason=reason,
                    p_corr=p_corr, p_plain=p_plain, normalized=normalized))
        return surface

    return Plan(tuple(runs), reduce)


def mismatch_study(config: ExperimentConfig, rel_deltas, lambda2_values,
                   workers: int | None = None,
                   run_report=None) -> list[MismatchPoint]:
    """Normalized BER surface over (perturbation, correlation) pairs:
    mismatch_plan run jointly."""
    return mismatch_plan(config, rel_deltas, lambda2_values).run(workers,
                                                                 run_report)


def bandwidth_arms(config: ExperimentConfig, matrix: TransitionMatrix,
                   rate_excess: float, base_beta: float
                   ) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The (correlated, reduced) arms of one bandwidth-expansion point.

    The correlated arm is paired_arms' at the full load round(N *
    base_beta) on matrix, with config's mismatch, and does not depend on
    rate_excess; the reduced arm is the plain MUD on memoryless bits at
    round(N * base_beta * rate) users. Everything else is config's. The
    point and both arms are checked as they are built.
    """
    _, _, (n_users, reduced_users) = compression_point(
        matrix, rate_excess, config.spread_factor, base_beta)
    corr_arm, _ = paired_arms(replace(config, matrix=matrix, n_users=n_users))
    _, reduced_arm = paired_arms(replace(
        config, matrix=iid_matrix(), n_users=reduced_users, mismatch=0.0))
    return corr_arm, reduced_arm


def compression_plan(config: ExperimentConfig, protocol: str, matrices,
                     rate_excesses=(0.0,), base_beta: float | None = None,
                     amplification: str = "entropy") -> Plan:
    """Direct correlated detection against compress-then-transmit, reduced
    to the (lambda2, entropy_bits, epsilon, CompressionComparison) rows
    write_comparison_csv takes.

    matrices holds (lambda2, matrix) pairs: each source compared, with the
    eigenvalue its rows report. The "fixed" protocol runs paired_arms on
    each matrix, one row per matrix at epsilon 0, and reduces by
    fixed_load_comparison. The "bandwidth" protocol runs bandwidth_arms at
    base_beta (default config.load) for every rate excess, one row per
    (matrix, excess) pair, and reduces by bandwidth_expansion_comparison;
    the rows of one matrix share its correlated arm. Every point is
    checked, and every arm built, before the plan exists.
    """
    if protocol not in ("fixed", "bandwidth"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if amplification not in AMPLIFICATIONS:
        raise ValueError(f"amplification must be one of {AMPLIFICATIONS}")
    base_beta = config.load if base_beta is None else base_beta
    points = []  # (lambda2, entropy, epsilon, (correlated arm, other arm))
    for lam, matrix in matrices:
        entropy = compression_point(matrix)[0]
        if protocol == "fixed":
            points.append((lam, entropy, 0.0,
                           paired_arms(replace(config, matrix=matrix))))
        else:
            points += [(lam, entropy, eps,
                        bandwidth_arms(config, matrix, eps, base_beta))
                       for eps in rate_excesses]

    def reduce(reports):
        rows = []
        for lam, entropy, eps, (corr_arm, other_arm) in points:
            p_corr = reports[corr_arm].aggregate
            p_other = reports[other_arm].aggregate
            rows.append((lam, entropy, eps, (
                fixed_load_comparison(corr_arm.matrix, p_corr, p_other)
                if protocol == "fixed" else bandwidth_expansion_comparison(
                    corr_arm.matrix, eps, p_corr, p_other, amplification))))
        return rows

    return Plan(tuple(dict.fromkeys(
        cfg for *_, arms in points for cfg in arms)), reduce)


# ---------------------------------------------------------------------------
# CSV persistence

# Column row of every result file, by family; the plot-data reader detects a
# file's family from its column row.
CSV_COLUMNS = {
    "ber_profile": ("position", "relative_position", "errors", "bits", "ber",
                    "std_err"),
    "normalized_sweep": ("lambda2", "correlation_length", "p_corr",
                         "p_plain", "normalized", "errors_corr",
                         "errors_plain", "bits_total"),
    "length_scaling": ("length", "saturation_position"),
    "mismatch_surface": ("lambda2", "rel_delta", "feasible", "reason",
                         "p_corr", "p_plain", "normalized"),
    "compression_comparison": ("lambda2", "entropy_bits", "epsilon", "p_corr",
                               "p_comp", "ratio", "rate", "protocol",
                               "ensemble", "seed"),
}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_header(handle, config: ExperimentConfig | None, extra: dict | None):
    handle.write(f"# corrcdma={__version__}\n")
    items = {}
    if config is not None:
        items.update(config.to_dict())
    if extra:
        items.update(extra)
    for key in sorted(items):
        handle.write(f"# {key}={_format_cell(items[key])}\n")


def _write_csv(path, config, extra, columns, rows):
    with open(path, "w", newline="") as handle:
        _write_header(handle, config, extra)
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])


def write_ber_csv(path, report: BerReport):
    """One row per word position, config and totals in `# key=value` lines."""
    length = report.config.word_length
    bits = report.config.n_users * report.config.ensemble
    rows = [
        (l, (l + 1) / length, int(report.errors_by_position[l]), bits,
         float(report.per_position[l]), float(report.std_err[l]))
        for l in range(length)
    ]
    _write_csv(path, report.config, report.summary(),
               CSV_COLUMNS["ber_profile"], rows)


def write_sweep_csv(path, config: ExperimentConfig, points):
    rows = [(p.lambda2, p.correlation_length, p.p_corr, p.p_plain,
             p.normalized, p.errors_corr, p.errors_plain, p.bits_total)
            for p in points]
    _write_csv(path, config, None, CSV_COLUMNS["normalized_sweep"], rows)


def write_length_csv(path, config: ExperimentConfig, result: LengthScalingResult):
    rows = list(zip(result.lengths, result.positions))
    _write_csv(path, config,
               {"slope": result.slope, "intercept": result.intercept},
               CSV_COLUMNS["length_scaling"], rows)


def write_mismatch_csv(path, config: ExperimentConfig, points):
    rows = [(p.lambda2, p.rel_delta, p.feasible, p.reason or "", p.p_corr,
             p.p_plain, p.normalized) for p in points]
    _write_csv(path, config, None, CSV_COLUMNS["mismatch_surface"], rows)


def write_comparison_csv(path, config: ExperimentConfig, rows):
    """rows: (lambda2, entropy_bits, epsilon, CompressionComparison) tuples."""
    flat = [(lam, entropy, eps, c.p_corr, c.p_comp, c.ratio, c.rate,
             c.protocol, config.ensemble, config.seed)
            for lam, entropy, eps, c in rows]
    _write_csv(path, config, None, CSV_COLUMNS["compression_comparison"],
               flat)


def read_csv_with_header(path):
    """Read a file written by the writers above.

    Returns (header dict, column names, rows as string lists).
    """
    header = {}
    with open(path, "r", newline="") as handle:
        text = handle.read()
    lines = text.splitlines(keepends=True)
    body_start = 0
    for line in lines:
        if not line.startswith("#"):
            break
        body_start += 1
        stripped = line[1:].strip()
        if "=" in stripped:
            key, _, value = stripped.partition("=")
            header[key.strip()] = value.strip()
    reader = csv.reader(io.StringIO("".join(lines[body_start:])))
    table = [row for row in reader if row]
    if not table:
        raise ValueError(f"{path}: no column row found")
    return header, table[0], table[1:]


def check_workers(workers: int | None, name: str = "workers") -> int | None:
    """The worker budget itself; None (serial) or at least 1, else ValueError
    naming its source."""
    if workers is not None and workers < 1:
        raise ValueError(f"{name} must be >= 1, got {workers}")
    return workers


def default_workers() -> int | None:
    """Worker budget from the CORRCDMA_WORKERS environment variable."""
    raw = os.environ.get("CORRCDMA_WORKERS")
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"CORRCDMA_WORKERS must be an integer, got {raw!r}") from None
    return check_workers(value, "CORRCDMA_WORKERS")
