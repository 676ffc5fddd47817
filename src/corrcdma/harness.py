"""Deterministic Monte-Carlo BER experiments over the detector variants.

Every trial's randomness is derived from (master seed, trial index, stream
id), so a report is a pure function of its config: reruns are bit-identical
regardless of worker count, trial grouping, the other arms of a joint run
or completion order. The arms of a paired study run jointly: each trial's
realization (source block, spreading codes and noise) is drawn once and
detected by every arm that shares its channel fields, so pairing holds by
construction and every normalized quantity (correlated over plain
detection) reflects only the detectors' differences. An arm that detects
bit for bit as another runs as it, once (see _runs_as).

Per-position error counts are summed as integers, so aggregation is exact
and commutative; all rates derive from the final counts.
"""

from __future__ import annotations

import atexit
import contextlib
import csv
import dataclasses
import io
import math
import os
import warnings
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import takewhile

import numpy as np

from . import __version__
from .baselines import (
    AMPLIFICATIONS,
    DEFAULT_THRESHOLD_FACTOR,
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
    _check_bool,
    _check_int,
    _check_real,
    _lockstep_width,
    _run_engine,
    decision_errors,
    sumf,
    sumf_decisions,
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

# The reader of each typed config field, by the type name it declares.
_READERS = {"int": _check_int, "float": _check_real, "bool": _check_bool}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully pinned Monte-Carlo experiment.

    matrix is the generator's transition matrix; mismatch perturbs the
    detector-assumed copy only, which blind mode never reads; a zero entry
    in an assumed copy that is read is refused, as saturated neighbours
    would be impossible under it mid-run. seed is the master seed every
    trial stream derives from. schedule, blind and max_iters are options'
    knobs, with DetectorOptions' defaults and checks. An int field must be
    an integer, blind a bool and a float field a real number but no bool,
    numpy's included, each stored as the Python value that runs.
    """

    spread_factor: int = 1000
    n_users: int = 800
    sigma: float = 0.8
    word_length: int = 100
    matrix: TransitionMatrix = field(
        default_factory=partial(make_symmetric_matrix, 0.8))
    variant: str = "correlated_mud"
    schedule: str = DetectorOptions.schedule
    blind: bool = DetectorOptions.blind
    mismatch: float = 0.0
    ensemble: int = 100
    seed: int = 0
    max_iters: int = DetectorOptions.max_iters

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type in _READERS:
                object.__setattr__(self, f.name, _READERS[f.type](
                    getattr(self, f.name), f.name))
        self.options  # checks schedule and max_iters >= 1
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
        # a trial allocates its chips (N K), its symbol block (K L) and, for
        # a MUD, its Gram matrix (K K): each must fit one array
        gram = self.n_users if self.variant in MUD_VARIANTS else 1
        for name, size in (("spread_factor", self.spread_factor),
                           ("word_length", self.word_length), ("n_users", gram)):
            if self.n_users * size > np.iinfo(np.intp).max:
                raise ValueError(f"n_users * {name} exceeds the "
                                 f"{np.iinfo(np.intp).max} entries of an array")
        # a setting the variant never reads would be recorded, not run
        if self.blind and self.variant != "correlated_mud":
            raise ValueError(f"blind applies only to variant correlated_mud, "
                             f"got {self.variant}")
        if self.mismatch != 0.0 and not self.variant.startswith("correlated_"):
            raise ValueError(f"mismatch applies only to the correlated "
                             f"variants, got {self.variant}")
        if self.blind and self.mismatch != 0.0:
            raise ValueError("mismatch does not apply to blind mode, which "
                             "re-estimates the matrix from the memoryless one")
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.variant.startswith("correlated_") and not self.blind:
            assumed = self.detector_matrix()  # an infeasible mismatch raises
            if not assumed.matrix.all():
                raise ValueError(
                    f"variant {self.variant} cannot assume the transition "
                    f"matrix {assumed.to_flat()}: a zero entry makes "
                    f"saturated neighbours impossible")

    @property
    def options(self) -> DetectorOptions:
        """The DetectorOptions of the config's detector."""
        return DetectorOptions(max_iters=self.max_iters,
                               schedule=self.schedule, blind=self.blind)

    @property
    def load(self) -> float:
        return self.n_users / self.spread_factor

    def detector_matrix(self) -> TransitionMatrix:
        if self.mismatch == 0.0:
            return self.matrix
        return perturb_element(self.matrix, self.mismatch)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["matrix"] = self.matrix.to_flat()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from string-or-typed key/value pairs.

        The keys are the field names, each value read by _cast, plus the
        SHORTHANDS, each of which excludes the field it sets and is read
        as a float. Unknown keys are rejected by name.
        """
        data = dict(data)
        kwargs = {f.name: _cast(f.type, data.pop(f.name), f.name)
                  for f in dataclasses.fields(cls) if f.name in data}
        for key, (name, expand) in SHORTHANDS.items():
            if key in data:
                if name in kwargs:
                    raise ValueError(f"config specifies both {key} and {name}")
                number = _cast("float", data.pop(key), key)
                with _naming(key):
                    kwargs[name] = expand(number, kwargs)
        if data:
            raise ValueError(f"unknown config key: {sorted(data)[0]}")
        return cls(**kwargs)


def _parse_float(text):
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"expects a finite number, got {text!r}")
    return number


def _parse_bool(text):
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expects a boolean, got {text!r}")


# How from_dict parses a str value, by the type name its field declares;
# int() of a str takes no float, which it would truncate.
_PARSERS = {"int": int, "float": _parse_float, "str": str,
            "bool": _parse_bool, "TransitionMatrix": TransitionMatrix.from_flat}


@contextlib.contextmanager
def _naming(key: str):
    """Re-raise a failed cast or expansion of key's value as a ValueError
    naming key."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def _cast(kind: str, value, key: str):
    """value of a field of the type named kind: parsed if it is a str,
    then read by the field's reader, as the constructor reads it, if the
    type has one; else ValueError naming key."""
    with _naming(key):
        if isinstance(value, str):
            value = _PARSERS[kind](value)
        return _READERS[kind](value, key) if kind in _READERS else value


# Config keys that are not fields: key -> (the field it sets, its value from
# the key's number and the fields cast so far).
SHORTHANDS = {
    "lambda2": ("matrix", lambda lam, kwargs: make_symmetric_matrix(lam)),
    "load": ("n_users", lambda load, kwargs: int(round(
        kwargs.get("spread_factor", ExperimentConfig.spread_factor) * load))),
}


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """Integer error counts and iteration stats of one ensemble sample;
    outcomes compare by identity."""

    errors_by_position: np.ndarray
    iters: np.ndarray
    unconverged_positions: int
    diverged: bool


@dataclass(frozen=True, eq=False)
class BerReport:
    """Ensemble-aggregated BER with exact count bookkeeping.

    aggregate equals errors_total/bits_total exactly; per_position averages
    over users and trials; std_err is the per-position binomial
    approximation sqrt(p(1-p)/bits). unconverged_positions counts symbol
    positions that hit the iteration cap, divergences counts trials whose
    detector field blew up (their matched-filter decisions are counted).
    Reports compare by value: config, per-position counts and summary,
    from which the rest derives.
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

    def __eq__(self, other):
        if not isinstance(other, BerReport):
            return NotImplemented
        return (self.config == other.config
                and np.array_equal(self.errors_by_position,
                                   other.errors_by_position)
                and self.summary() == other.summary())


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
    detector assumes. A slot is one run on one realization."""
    return (config.variant, config.options, config.spread_factor,
            config.n_users, config.word_length, config.sigma)


def _runs_as(config: ExperimentConfig) -> ExperimentConfig:
    """The config an arm runs as, the one place arms alias.

    A correlated MUD arm that assumes the memoryless matrix and is not
    blind detects bit for bit as the plain MUD, since its bias field
    vanishes, so it runs as the plain arm it equals. Every other arm runs
    as itself: the correlated matched filter counts one sweep where the
    plain one counts none, and a blind arm re-estimates its matrix. A
    plain arm then runs with the defaults of the fields it never reads, so
    arms that differ only in them share one run: the plain MUD never reads
    schedule (only a bias sweep does), the plain matched filter neither
    schedule nor max_iters (it does not iterate).
    """
    if (config.variant == "correlated_mud" and not config.blind
            and config.detector_matrix() == iid_matrix()):
        config = replace(config, variant="plain_mud", mismatch=0.0)
    if config.variant == "plain_mud":
        return replace(config, schedule=DetectorOptions.schedule)
    if config.variant == "plain_sumf":
        return replace(config, schedule=DetectorOptions.schedule,
                       max_iters=DetectorOptions.max_iters)
    return config


def _realization(runs, trial_index: int):
    """What the runs need of one trial, drawn with the channel fields of
    runs[0]: its source block, its matched field and, if some run is a
    MUD, the code correlation matrix.

    When every run is the plain matched filter, which reads only the
    field's signs, the matched field's place holds its int8 decisions,
    sumf_decisions, and no float64 field is built; decision_errors counts
    them as it counts the field. Every other realization builds the
    float64 field with sumf. The channel stream is drawn in a fixed order
    (source block, spreading chips, noise), so every detector variant sees
    identical realizations; the chips and the received samples are
    dropped once read, the received samples before the Gram is built.
    """
    config = runs[0]
    rng = _trial_rng(config, trial_index, STREAM_CHANNEL)
    block = generate_block(config.matrix, config.n_users, config.word_length, rng)
    spreading = generate_spreading(config.spread_factor, config.n_users, rng)
    signs_only = all(cfg.variant == "plain_sumf" for cfg in runs)
    matched = (sumf_decisions if signs_only else sumf)(
        spreading, transmit(spreading, block, config.sigma, rng))
    with_corr = any(cfg.variant in MUD_VARIANTS for cfg in runs)
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
        config.options,
        assumed=(None if config.variant == "plain_mud"
                 else [cfg.detector_matrix() for cfg, _, _ in slots]),
        iterate=config.variant in MUD_VARIANTS,
        rngs=([_trial_rng(cfg, index, STREAM_SCHEDULE)
               for cfg, index, _ in slots]
              if config.schedule == "RSUS" else None))


def _outcome(config: ExperimentConfig, realization, result) -> TrialOutcome:
    """A trial's error counts from its detection result: the decisions on
    the result's field, or on the realization's matched field for the
    plain matched filter (no result) and a trial whose detector diverged.
    A realization of plain matched filter runs only holds the matched
    field's int8 decisions in its place, which count the same."""
    block, matched, _ = realization
    diverged = isinstance(result, DetectorDivergence)
    if result is None or diverged:
        field, iters = matched, np.zeros(config.word_length, dtype=np.int64)
        unconverged = config.word_length if diverged else 0
    else:
        field, iters = result.field, result.iters
        unconverged = int(np.count_nonzero(~result.converged))
    return TrialOutcome(
        errors_by_position=decision_errors(field, block), iters=iters,
        unconverged_positions=unconverged, diverged=diverged)


def _detect_realizations(payload) -> list[tuple[ExperimentConfig, TrialOutcome]]:
    """The outcome of every run on every realization of payload.

    payload holds (trial index, runs) pairs, the runs being configs with
    the same channel fields. Each realization is drawn once, and each run
    on it is one slot. The slots of each engine kind, across runs and
    realizations, go to one engine call, which groups them. A slot's
    result does not depend on its group, so each outcome equals its trial
    run alone. Returns (run, outcome) pairs, one per slot.
    """
    kinds = {}  # engine kind -> (run, trial index, realization) slots
    for index, runs in payload:
        realization = _realization(runs, index)
        for cfg in runs:
            kinds.setdefault(_engine_kind(cfg), []).append(
                (cfg, index, realization))
    return [(cfg, _outcome(cfg, realization, result))
            for slots in kinds.values()
            for (cfg, _, realization), result in zip(slots, _detect(slots))]


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialOutcome:
    """One ensemble sample: generate, transmit, detect, count errors; a
    deterministic function of (config.seed, trial_index), through the
    path every joint run takes, config run as _runs_as aliases it. A
    trial whose detector diverges still counts, with the matched-filter
    decisions."""
    return _detect_realizations([(trial_index, (_runs_as(config),))])[0][1]


def _payloads(runs, workers: int | None = None) -> list[list]:
    """The (trial index, runs) realizations of the runs in pool payloads,
    each detected by one worker call; runs with the same channel fields
    share the realizations of their common trial indices.

    The realizations of each set of engine calls (engine kinds with their
    slot counts) are cut in order into equal payloads: a worker's share of
    them, at most the lockstep width of the fullest engine call,
    detectors._lockstep_width of K times its slot count, so a payload's
    realizations fit one lockstep group.
    """
    channels = {}
    for cfg in runs:
        channels.setdefault(_channel(cfg), []).append(cfg)
    calls = {}  # frozenset of (engine kind, slot count) -> realizations
    for group in channels.values():
        for index in range(max(cfg.ensemble for cfg in group)):
            cfgs = tuple(cfg for cfg in group if index < cfg.ensemble)
            calls.setdefault(frozenset(Counter(map(_engine_kind, cfgs))
                                       .items()), []).append((index, cfgs))
    payloads = []
    for key, realizations in calls.items():
        users = realizations[0][1][0].n_users * max(n for _, n in key)
        size = min(-(-len(realizations) // (workers or 1)),
                   _lockstep_width(users))
        payloads += [realizations[start:start + size]
                     for start in range(0, len(realizations), size)]
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

    Each arm runs as _runs_as aliases it, once per distinct run, so a
    memoryless correlated MUD arm shares the trials of the plain arm it
    equals and reports them under its own config. Runs with the same
    channel fields (seed, generator matrix, sizes and noise) share each
    trial's realization, drawn once, so their pairing holds by
    construction; runs of one engine kind are detected in lockstep across
    runs and trials. Payloads of realizations, the only split of the work,
    run in order, optionally across processes, one payload per pool task.
    Counts are integers and their summation commutative, and an outcome
    depends neither on its group nor on the other runs, so every report is
    bit-identical to its arm run alone, for any worker count. The worker
    processes are forked once per process and worker count, by the first
    parallel call, and every later call reuses them; code patched in this
    process after that fork is not seen by the workers, so a caller that
    patches worker-side code must run serially. A pool that breaks (a
    worker died) raises BrokenProcessPool and is dropped, and the next
    parallel call forks a fresh one.
    """
    check_workers(workers)
    runs = {arm: _runs_as(arm) for arm in configs}
    outcomes = {run: [] for run in runs.values()}
    payloads = _payloads(outcomes, workers)
    if workers is None or workers == 1 or len(payloads) <= 1:
        groups = map(_detect_realizations, payloads)
    else:
        try:
            groups = list(_worker_pool(workers).map(_detect_realizations,
                                                    payloads))
        except BrokenProcessPool:
            shutdown_pool()
            raise
    for group in groups:
        for run, outcome in group:
            outcomes[run].append(outcome)
    return {arm: _report(arm, outcomes[run]) for arm, run in runs.items()}


def monte_carlo(config: ExperimentConfig, workers: int | None = None) -> BerReport:
    """The report of config's ensemble: monte_carlo_arms on one arm."""
    return monte_carlo_arms([config], workers)[config]


def _report(config: ExperimentConfig, outcomes) -> BerReport:
    """The ensemble's report from its trials' outcomes, in any order: the
    counts are summed and the iteration statistics are order-free."""
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
    pure map from their {config: report} lookup to its result."""

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
    """One correlation setting's paired correlated-vs-plain measurement;
    its fields, in order, are the normalized_sweep columns."""

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
    arm carries neither a mismatch nor the blind flag. Building them
    validates both, so a config the arms reject (sigma = 0) fails first.
    """
    return (replace(config, variant="correlated_mud"),
            replace(config, variant="plain_mud", mismatch=0.0, blind=False))


def _points_plan(points, row) -> Plan:
    """The Plan of points, tuples whose last item is the tuple of arms the
    point reads: it runs those arms in point order, each config once, and
    reduces to row(point, reports) per point."""
    return Plan(tuple(dict.fromkeys(cfg for *_, arms in points
                                    for cfg in arms)),
                lambda reports: [row(point, reports) for point in points])


def lambda2_plan(config: ExperimentConfig, lambda2_values) -> Plan:
    """The paired sweep over second eigenvalues, reduced to a SweepPoint
    per value. Each point runs its correlated arm, then its plain arm
    (paired_arms on the symmetric matrix of its eigenvalue); at lambda2 = 0
    a correlated arm without a mismatch runs as the plain one (_runs_as),
    so that point's ratio is exactly 1, while a mismatched one assumes a
    perturbed matrix and runs as itself. Every value is read as a real
    number and checked to lie in [0, 1), and every arm built, and so
    validated, before the plan exists."""
    points = []
    for lam in lambda2_values:
        lam = _check_real(lam, "lambda2_values")
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"lambda2 must lie in [0, 1), got {lam}")
        points.append((lam, paired_arms(
            replace(config, matrix=make_symmetric_matrix(lam)))))

    def row(point, reports):
        lam, (corr_arm, plain_arm) = point
        corr, plain = reports[corr_arm], reports[plain_arm]
        return SweepPoint(
            lambda2=lam, correlation_length=source_stats(
                corr_arm.matrix).correlation_length,
            p_corr=corr.aggregate, p_plain=plain.aggregate,
            normalized=error_ratio(corr.aggregate, plain.aggregate),
            errors_corr=corr.errors_total, errors_plain=plain.errors_total,
            bits_total=corr.bits_total)

    return _points_plan(points, row)


def normalized_ber_sweep(config: ExperimentConfig, lambda2_values,
                         workers: int | None = None,
                         run_report=None) -> list[SweepPoint]:
    """Paired correlated-MUD over plain-MUD BER for each second eigenvalue:
    lambda2_plan run jointly. Without a mismatch the ratio at lambda2 = 0
    is exactly 1 by construction, since the correlated arm runs as the
    plain one."""
    return lambda2_plan(config, lambda2_values).run(workers, run_report)


@dataclass(frozen=True)
class LengthScalingResult:
    """Saturation positions per word length, the threshold factor they were
    found with and their log-log fit."""

    lengths: tuple
    positions: tuple
    threshold_factor: float
    slope: float
    intercept: float


def length_plan(config: ExperimentConfig, lengths,
                threshold_factor: float = DEFAULT_THRESHOLD_FACTOR) -> Plan:
    """The word-length study: config at every length, each curve reduced
    to its saturation position and log(position) fitted over log(length).
    Every config is built (and so validated), the threshold factor checked
    and at least 3 distinct lengths, integers of at least 2 (a saturation
    position needs two positions), required before the plan exists. Zero
    positions are left out of the fit with a warning. A fit that
    fit_loglog_slope refuses (fewer than two nonzero positions) is reported
    as a NaN slope and intercept, with a warning saying why, so the study
    keeps its positions and every per-arm report."""
    threshold_factor = check_threshold_factor(threshold_factor)
    lengths = [_check_int(length, "lengths") for length in lengths]
    if len(set(lengths)) < 3:
        raise ValueError("need at least 3 distinct word lengths")
    configs = tuple(replace(config, word_length=length) for length in lengths)
    if min(lengths) < 2:
        raise ValueError(f"word lengths must be >= 2 for a saturation "
                         f"position, got {min(lengths)}")

    def reduce(reports):
        positions = [saturation_position(reports[cfg].per_position,
                                         threshold_factor) for cfg in configs]
        try:
            slope, intercept = fit_loglog_slope(lengths, positions)
        except ValueError as exc:
            # lengths and positions are valid by construction, so the one
            # refusal is too few nonzero positions
            warnings.warn(f"{exc}; slope and intercept are nan",
                          stacklevel=2)
            slope = intercept = math.nan
        return LengthScalingResult(tuple(lengths), tuple(positions),
                                   threshold_factor, slope, intercept)

    return Plan(configs, reduce)


def length_scaling_study(config: ExperimentConfig, lengths,
                         threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
                         workers: int | None = None,
                         run_report=None) -> LengthScalingResult:
    """Saturation position vs word length: length_plan run jointly."""
    return length_plan(config, lengths, threshold_factor).run(workers,
                                                              run_report)


@dataclass(frozen=True)
class MismatchPoint:
    """Normalized BER under a detector-assumed matrix perturbation; its
    fields, in order, are the mismatch_surface columns."""

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
    infeasible one (an element pushed out of [0, 1], or onto 0 or 1) runs
    nothing and its point records the validation message. A blind base,
    which never reads an assumed matrix, is refused. Every eigenvalue and
    perturbation is read as a real number, and all is checked, before the
    plan exists.
    """
    if config.blind:
        raise ValueError("the mismatch sweep needs a detector that reads its "
                         "assumed matrix; blind mode re-estimates it")
    deltas = [_check_real(delta, "rel_deltas") for delta in rel_deltas]
    points = []  # (lambda2, delta, reason, (plain arm, correlated arm) or ())
    for lam in lambda2_values:
        lam = _check_real(lam, "lambda2_values")
        corr_arm, plain_arm = paired_arms(replace(
            config, matrix=make_symmetric_matrix(lam), mismatch=0.0))
        for delta in deltas:
            try:
                arms = (plain_arm, replace(corr_arm, mismatch=delta))
            except ValueError as exc:  # the config refuses the perturbation
                points.append((lam, delta, str(exc), ()))
            else:
                points.append((lam, delta, None, arms))

    def row(point, reports):
        lam, delta, reason, arms = point
        p_plain, p_corr = ([reports[arm].aggregate for arm in arms]
                           or [math.nan, math.nan])  # NaN when infeasible
        return MismatchPoint(
            lambda2=lam, rel_delta=delta, feasible=bool(arms), reason=reason,
            p_corr=p_corr, p_plain=p_plain,
            normalized=error_ratio(p_corr, p_plain))

    return _points_plan(points, row)


def bandwidth_arms(config: ExperimentConfig, matrix: TransitionMatrix,
                   rate_excess: float, base_beta: float
                   ) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The (correlated, reduced) arms of one bandwidth-expansion point.

    The correlated arm is paired_arms' at the full load round(N *
    base_beta) on matrix, with config's mismatch, and does not depend on
    rate_excess; the reduced arm is the plain MUD on memoryless bits at
    round(N * base_beta * rate) users. Everything else is config's. The
    point, the load (a finite real number, a user in each arm) and both
    arms are checked as they are built.
    """
    rate = compression_point(matrix, rate_excess)[1]
    base_beta = _check_real(base_beta, "base_beta")
    if not math.isfinite(base_beta):
        raise ValueError(f"base_beta must be finite, got {base_beta}")
    full = config.spread_factor * base_beta
    users = int(round(full)), int(round(full * rate))
    if min(users) < 1:
        raise ValueError(f"infeasible load: round({config.spread_factor} * "
                         f"{base_beta} * {rate:.4f}) < 1 user")
    corr_arm, _ = paired_arms(replace(config, matrix=matrix, n_users=users[0]))
    _, reduced_arm = paired_arms(replace(
        config, matrix=iid_matrix(), n_users=users[1], mismatch=0.0))
    return corr_arm, reduced_arm


def _comparison_plan(points, compare) -> Plan:
    """The Plan of (lambda2, entropy_bits, epsilon, (correlated arm, other
    arm)) points, reduced to the (lambda2, entropy_bits, epsilon,
    CompressionComparison) rows write_comparison_csv takes by
    compare(matrix, epsilon, p_corr, p_other) on the arms' BERs."""
    def row(point, reports):
        lam, entropy, eps, (corr, other) = point
        return lam, entropy, eps, compare(corr.matrix, eps,
                                          reports[corr].aggregate,
                                          reports[other].aggregate)

    return _points_plan(points, row)


def fixed_plan(config: ExperimentConfig, matrices) -> Plan:
    """Direct correlated detection against compression at the same load and
    noise, one row at epsilon 0 per (lambda2, matrix) pair of matrices:
    paired_arms on the matrix, reduced by fixed_load_comparison. Every
    label is read as a real number, every point checked and every arm
    built before the plan exists."""
    return _comparison_plan(
        [(_check_real(lam, "matrices label"), compression_point(matrix)[0],
          0.0, paired_arms(replace(config, matrix=matrix)))
         for lam, matrix in matrices],
        lambda matrix, _, p_corr, p_plain:
        fixed_load_comparison(matrix, p_corr, p_plain))


def bandwidth_plan(config: ExperimentConfig, matrices, rate_excesses,
                   base_beta: float, amplification: str = "entropy") -> Plan:
    """Direct correlated detection against compression that spends the
    bandwidth it frees on a lower load, one row per ((lambda2, matrix),
    rate excess) pair: bandwidth_arms at base_beta, reduced by
    bandwidth_expansion_comparison with amplification. The rows of one
    matrix share its correlated arm. Every label, rate excess and base_beta
    is read as a real number, every point checked and every arm built
    before the plan exists."""
    if amplification not in AMPLIFICATIONS:
        raise ValueError(f"amplification must be one of {AMPLIFICATIONS}")
    excesses = [_check_real(eps, "rate_excesses") for eps in rate_excesses]
    return _comparison_plan(
        [(_check_real(lam, "matrices label"), compression_point(matrix)[0],
          eps, bandwidth_arms(config, matrix, eps, base_beta))
         for lam, matrix in matrices for eps in excesses],
        partial(bandwidth_expansion_comparison, amplification=amplification))


# ---------------------------------------------------------------------------
# CSV persistence

# Column row of every result file, by family; the plot-data reader detects a
# file's family from its column row. A paired family's columns are its
# point's fields.
CSV_COLUMNS = {
    "ber_profile": ("position", "relative_position", "errors", "bits", "ber",
                    "std_err"),
    "normalized_sweep": tuple(f.name for f in dataclasses.fields(SweepPoint)),
    "length_scaling": ("length", "saturation_position"),
    "mismatch_surface": tuple(f.name
                              for f in dataclasses.fields(MismatchPoint)),
    "compression_comparison": ("lambda2", "entropy_bits", "epsilon", "p_corr",
                               "p_comp", "ratio", "rate", "protocol",
                               "ensemble", "seed"),
}


def _format_cell(value) -> str:
    # a numpy float's repr names its type, and a numpy bool is not a bool;
    # an absent value (a feasible point's reason) is the empty cell
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, config: ExperimentConfig, extra: dict | None, columns,
               rows):
    """The rows under a `# key=value` header of the version, the config's
    fields and extra, sorted by key, and the column row."""
    items = {**config.to_dict(), **(extra or {})}
    with open(path, "w", newline="") as handle:
        handle.write(f"# corrcdma={__version__}\n")
        for key in sorted(items):
            handle.write(f"# {key}={_format_cell(items[key])}\n")
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
    _write_csv(path, config, None, CSV_COLUMNS["normalized_sweep"],
               map(dataclasses.astuple, points))


def write_length_csv(path, config: ExperimentConfig, result: LengthScalingResult):
    rows = list(zip(result.lengths, result.positions))
    _write_csv(path, config,
               {"slope": result.slope, "intercept": result.intercept,
                "threshold_factor": result.threshold_factor},
               CSV_COLUMNS["length_scaling"], rows)


def write_mismatch_csv(path, config: ExperimentConfig, points):
    _write_csv(path, config, None, CSV_COLUMNS["mismatch_surface"],
               map(dataclasses.astuple, points))


def write_comparison_csv(path, config: ExperimentConfig, rows,
                         extra: dict | None = None):
    """rows: (lambda2, entropy_bits, epsilon, CompressionComparison) tuples;
    extra: the protocol's settings the config does not hold, as header
    lines."""
    flat = [(lam, entropy, eps, c.p_corr, c.p_comp, c.ratio, c.rate,
             c.protocol, config.ensemble, config.seed)
            for lam, entropy, eps, c in rows]
    _write_csv(path, config, extra, CSV_COLUMNS["compression_comparison"],
               flat)


def read_csv_with_header(path):
    """Read a file written by the writers above.

    Returns (header dict, column names, rows as string lists). A file that
    does not decode or parse, has no column row or has a row of another
    width than the column row is a ValueError naming path.
    """
    try:
        with open(path, "r", newline="") as handle:
            lines = handle.read().splitlines(keepends=True)
        comments = list(takewhile(lambda line: line.startswith("#"), lines))
        reader = csv.reader(io.StringIO("".join(lines[len(comments):])))
        table = [row for row in reader if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    header = {}
    for line in comments:
        key, sep, value = line[1:].strip().partition("=")
        if sep:
            header[key.strip()] = value.strip()
    if not table:
        raise ValueError(f"{path}: no column row found")
    for number, row in enumerate(table[1:], start=1):
        if len(row) != len(table[0]):
            raise ValueError(f"{path}: row {number} has {len(row)} cells, "
                             f"the column row {len(table[0])}")
    return header, table[0], table[1:]


def check_workers(workers: int | None, name: str = "workers") -> int | None:
    """The worker budget as it runs: None (serial) or an integer (no bool)
    of at least 1, else ValueError naming its source."""
    if workers is None:
        return None
    workers = _check_int(workers, name)
    if workers < 1:
        raise ValueError(f"{name} must be >= 1, got {workers}")
    return workers
