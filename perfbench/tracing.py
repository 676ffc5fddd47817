"""Layer spans recorded from outside the program, and the per-layer metrics.

The traced run re-composes every trial of a batch from the public layer
calls run_trial makes (source block, spreading, transmit, detection, error
count), on the same SeedSequence([seed, index, 0]) channel stream, and
requires the per-position error counts to equal run_trial's. Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from corrcdma.channel import generate_spreading, transmit
from corrcdma.detectors import (
    DetectorDivergence,
    DetectorOptions,
    correlated_mud_detect,
    correlated_sumf_detect,
    mud_detect,
    sumf,
    sumf_detect,
)
from corrcdma.harness import STREAM_CHANNEL, STREAM_SCHEDULE, monte_carlo
from corrcdma.markov import generate_block

# Timed spans, each reported as p50 (`.s`), the tail percentile (`.s.tail`)
# and the sample count (`.n`). The tail is the highest whole percentile with
# at least 10 samples beyond it, floor(100 * (1 - 10 / n)) clipped to
# [50, 99], so n alone says which percentile it is.
TIMED_SPANS = (
    "markov.generate_block",
    "channel.generate_spreading",
    "channel.transmit",
    "detectors.sumf",
    "detectors.detect",
    "harness.count_errors",
    "harness.run_trial",
    "harness.monte_carlo",
    "harness.write_csv",
    "cli.main",
    "baselines.saturation_position",
    "baselines.fit_loglog_slope",
)

# Per-layer metrics that are not span timings, with their units.
COUNTERS = {
    "markov.symbols": "count",
    "channel.gram_flops": "flop",
    "channel.transmit_flops": "flop",
    "detectors.outer_iters": "count",
    "detectors.s_per_outer_iter": "s",
    "detectors.step_flops": "flop",
    "detectors.active_col_frac": "frac",
    "detectors.bias_overhead_s_per_iter": "s",
    "detectors.unconverged_col_frac": "frac",
    "detectors.diverged": "count",
    "harness.parallel_efficiency": "frac",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "trace.trials": "count",
    "trace.accounted_frac": "frac",
    "trace_overhead": "frac",
}


PER_LAYER_UNITS = {
    **{f"{name}{suffix}": unit for name in TIMED_SPANS
       for suffix, unit in ((".s", "s"), (".s.tail", "s"), (".n", "count"))},
    **COUNTERS,
}


class Tracer:
    """In-memory span recorder; spans of one trial share a trace id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trace_id = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "trace": self.trace_id, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class SpannedMonteCarlo:
    """The per-arm Monte-Carlo with a span around each call."""

    def __init__(self, tracer: Tracer, workers: int):
        self.tracer = tracer
        self.workers = workers

    def __call__(self, cfg):
        with self.tracer.span("harness.monte_carlo", variant=cfg.variant,
                              word_length=cfg.word_length):
            return monte_carlo(cfg, self.workers)

    def write(self, writer, *args):
        with self.tracer.span("harness.write_csv"):
            writer(*args)


def _detect(config, spreading, received, index):
    schedule_rng = None
    if config.schedule == "RSUS":
        schedule_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, index, STREAM_SCHEDULE]))
    opts = DetectorOptions(max_iters=config.max_iters,
                           schedule=config.schedule, blind=config.blind,
                           schedule_rng=schedule_rng)
    if config.variant == "plain_mud":
        return mud_detect(spreading, received, config.sigma, opts)
    if config.variant == "correlated_mud":
        return correlated_mud_detect(spreading, received,
                                     config.detector_matrix(), config.sigma,
                                     opts)
    if config.variant == "correlated_sumf":
        return correlated_sumf_detect(spreading, received,
                                      config.detector_matrix(), config.sigma,
                                      opts)
    return sumf_detect(spreading, received)


def traced_trial(tracer: Tracer, config, index: int):
    """Re-compose run_trial(config, index) from its layer calls.

    Returns the per-position error counts and the trial's detector
    statistics. The matched filter and, for the correlated MUD, a plain
    MUD on the same realization run as probes after the trial span: run_trial
    makes neither call, so they stay out of the trial's accounting.
    """
    n, k, length = config.spread_factor, config.n_users, config.word_length
    with tracer.span("trial", variant=config.variant, index=index):
        with tracer.span("harness.seed_stream"):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, index, STREAM_CHANNEL]))
        with tracer.span("markov.generate_block"):
            block = generate_block(config.matrix, k, length, rng)
        with tracer.span("channel.generate_spreading"):
            spreading = generate_spreading(n, k, rng)
        with tracer.span("channel.transmit"):
            received = transmit(spreading, block, config.sigma, rng)
        diverged = False
        with tracer.span("detectors.detect") as detect:
            try:
                result = _detect(config, spreading, received, index)
            except DetectorDivergence:
                result = sumf_detect(spreading, received)
                diverged = True
        with tracer.span("harness.count_errors"):
            errors = np.asarray(result.bits != block).sum(axis=0,
                                                         dtype=np.int64)
    with tracer.span("detectors.sumf"):
        sumf(spreading, received)
    stats = {
        "variant": config.variant, "n": n, "k": k, "length": length,
        "outer": result.outer_iterations,
        "iters_sum": int(result.iters.sum()),
        "unconverged": length if diverged
        else int(np.count_nonzero(~result.converged)),
        "diverged": diverged,
        "detect_s": detect["end"] - detect["start"],
    }
    if config.variant == "correlated_mud" and not diverged:
        with tracer.span("detectors.plain_probe") as probe:
            plain = mud_detect(spreading, received, config.sigma,
                               DetectorOptions(max_iters=config.max_iters))
        stats["plain_s_per_iter"] = ((probe["end"] - probe["start"])
                                     / plain.outer_iterations)
    return errors, stats


def timing_summary(values):
    """p50, the tail percentile named above, and the sample count."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    q = max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n))))
    return float(np.median(values)), float(np.percentile(values, q)), n


def per_layer_metrics(tracer: Tracer, trials, workers: int,
                      facts) -> dict:
    """Every per-layer metric by name, as (value, unit).

    trials holds the statistics of every traced trial, tagged with their
    batch, and facts the first traced batch's workload outputs; counts are
    taken over the first traced batch, so they repeat exactly for a seed. Metrics of a layer the workload does not exercise
    read 0 with sample count 0.
    """
    metrics = {}
    for name in TIMED_SPANS:
        p50, tail, n = timing_summary(tracer.durations(name))
        metrics[f"{name}.s"] = p50
        metrics[f"{name}.s.tail"] = tail
        metrics[f"{name}.n"] = n

    first = [t for t in trials if t["batch"] == trials[0]["batch"]]
    count = len(first)
    iterative = [t for t in trials if t["outer"] > 0]
    correlated = [t for t in iterative if "plain_s_per_iter" in t]
    outer_cols = sum(t["outer"] * t["length"] for t in first)
    metrics.update({
        "markov.symbols": sum(t["k"] * t["length"] for t in first) / count,
        "channel.gram_flops": sum(t["k"] ** 2 * t["n"] for t in first) / count,
        "channel.transmit_flops":
            sum(t["n"] * t["k"] * t["length"] for t in first) / count,
        "detectors.outer_iters": sum(t["outer"] for t in first) / count,
        "detectors.s_per_outer_iter": float(np.median(
            [t["detect_s"] / t["outer"] for t in iterative]))
            if iterative else 0.0,
        "detectors.step_flops":
            sum(t["outer"] * t["k"] ** 2 * t["length"] for t in first) / count,
        "detectors.active_col_frac":
            sum(t["iters_sum"] for t in first) / outer_cols
            if outer_cols else 0.0,
        "detectors.bias_overhead_s_per_iter": float(np.median(
            [t["detect_s"] / t["outer"] - t["plain_s_per_iter"]
             for t in correlated])) if correlated else 0.0,
        "detectors.unconverged_col_frac":
            sum(t["unconverged"] for t in first)
            / sum(t["length"] for t in first),
        "detectors.diverged": sum(t["diverged"] for t in trials),
        "cli.files_written": len(facts.get("files", ())),
        "cli.bytes_written": facts.get("bytes", 0),
        "trace.trials": len(trials),
    })

    run_trial_s = sum(tracer.durations("harness.run_trial"))
    trial_s = sum(tracer.durations("trial"))
    roots = {s["id"] for s in tracer.spans if s["name"] == "trial"}
    layer_s = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["parent"] in roots)
    monte_s = sum(tracer.durations("harness.monte_carlo"))
    metrics["harness.parallel_efficiency"] = run_trial_s / (workers * monte_s)
    # Layer self times (every layer span is a leaf) against the untraced
    # run_trial on the same trials; what the layers leave of a trial span is
    # span bookkeeping.
    metrics["trace.accounted_frac"] = layer_s / run_trial_s
    metrics["trace_overhead"] = 1.0 - run_trial_s / trial_s
    return {name: (metrics[name], PER_LAYER_UNITS[name])
            for name in PER_LAYER_UNITS}
