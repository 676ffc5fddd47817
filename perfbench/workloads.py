"""The benchmark's four workloads, each driven through a public entry point.

A workload turns a batch seed into one closed-loop batch: one call of
`harness.monte_carlo`, `harness.length_scaling_study` or `cli.main` on a
fixed operating point. Batches differ only in their master seed, so every
batch draws fresh realizations while the sizes stay fixed. NOTES.md
records why each workload exists and which layers it stresses.

`scale="toy"` shrinks every size so the benchmark's own tests run in
seconds; the timed benchmark always uses `scale="full"`.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

from corrcdma import cli
from corrcdma.harness import (
    ExperimentConfig,
    length_scaling_study,
    monte_carlo,
    normalized_ber_sweep,
    read_csv_with_header,
    write_ber_csv,
    write_sweep_csv,
)

# Batch b of the run with seed s uses master seed s * BATCH_STRIDE + b.
BATCH_STRIDE = 10_000

SWEEP_VALUES = (0.0, 0.4, 0.8)
LENGTHS = (10, 20, 40, 80)
PAIRED_LAMBDA2 = 0.8


@dataclass
class Batch:
    """What one batch ran and what it produced.

    errors and bits count the primary arm's bit errors and bits. reports
    holds a BerReport for every (config, ensemble) arm the batch ran, in run
    order; the traced run re-composes their trials. facts holds
    workload-specific outputs that the checks and metrics read.
    """

    failed: int
    errors: int
    bits: int
    reports: list
    facts: dict = field(default_factory=dict)

    @property
    def ber(self) -> float:
        return self.errors / self.bits


def batch_seed(seed: int, batch: int) -> int:
    return seed * BATCH_STRIDE + batch


class Workload:
    """One fixed operating point and the entry point that runs it.

    Subclasses set the class attributes and implement config and run.
    reference is the (ber, relative tolerance) pair per scale that a run's
    ber is checked against: the mean one-batch BER over seeds 1-10 (1-30 at
    toy scale), recorded at the commit that introduced the benchmark, with
    a tolerance of at least five seed-to-seed standard deviations.
    """

    name = ""
    why = ""
    workers = 1
    entry = None  # span name of the entry point, when it is not monte_carlo
    reference: dict = {}

    def config(self, seed: int, scale: str) -> ExperimentConfig:
        raise NotImplementedError

    def trials(self, config: ExperimentConfig) -> int:
        """run_trial calls one batch makes."""
        return config.ensemble

    def validate(self, config: ExperimentConfig) -> None:
        """Set-up a user pays beyond building the config, which validates
        itself."""

    def run(self, config: ExperimentConfig, mc, out_dir: Path) -> Batch:
        """Run one batch; mc(cfg) is the per-arm Monte-Carlo to use."""
        raise NotImplementedError

    def normalized_ber(self, runs) -> float:
        """Correlation-aware over memoryless-prior BER on the realizations
        of runs, a list of (config, Batch) pairs: the paired quantity the
        project exists to measure."""
        raise NotImplementedError

    def check(self, config: ExperimentConfig, batch: Batch) -> list[str]:
        """Failure messages for this batch's outputs (empty when correct)."""
        problems = []
        for report in batch.reports:
            cfg = report.config
            bits = cfg.n_users * cfg.word_length * cfg.ensemble
            if report.bits_total != bits:
                problems.append(f"{cfg.variant} L={cfg.word_length}: "
                                f"bits_total {report.bits_total} != {bits}")
            if int(report.errors_by_position.sum()) != report.errors_total:
                problems.append(f"{cfg.variant}: errors_total does not match "
                                f"the per-position counts")
        if not 0.0 < batch.ber < 0.5:
            problems.append(f"ber {batch.ber} outside (0, 0.5)")
        return problems

    def traced_reports(self, config, batch: Batch, mc, out_dir: Path):
        """Reports whose trials the traced run re-composes."""
        return batch.reports


def _paired_mc(batch: Batch, workers):
    """Per-arm Monte-Carlo that reuses the arms batch already ran."""
    def run(cfg):
        for report in batch.reports:
            if report.config == cfg:
                return report
        return monte_carlo(cfg, workers)
    return run


class LargeCorrMud(Workload):
    name = "large_corr_mud"
    why = ("correlated MUD with SUS at the C7 point: the outer-iteration "
           "loop (K x K step plus bias sweep) is ~95% of a trial")
    reference = {"full": (0.0567, 0.12), "toy": (0.062, 0.5)}
    sizes = {"full": dict(spread_factor=1000, n_users=800, word_length=100,
                          ensemble=1),
             "toy": dict(spread_factor=100, n_users=80, word_length=20,
                         ensemble=2)}
    variant = "correlated_mud"

    def config(self, seed, scale):
        return ExperimentConfig(sigma=0.8, variant=self.variant,
                                schedule="SUS", max_iters=50, seed=seed,
                                **self.sizes[scale])

    def run(self, config, mc, out_dir):
        report = mc(config)
        return Batch(failed=report.divergences, errors=report.errors_total,
                     bits=report.bits_total, reports=[report])

    def normalized_ber(self, runs):
        corr = plain = 0
        for config, batch in runs:
            (point,) = normalized_ber_sweep(
                config, [PAIRED_LAMBDA2],
                run_report=_paired_mc(batch, self.workers))
            corr += point.errors_corr
            plain += point.errors_plain
        return corr / plain


class MatchedFilterLarge(LargeCorrMud):
    name = "matched_filter_large"
    why = ("plain matched filter at the C7 size: no iteration, so spreading "
           "(with its eager K x K Gram) and transmit dominate")
    reference = {"full": (0.2026, 0.03), "toy": (0.200, 0.3)}
    sizes = {"full": dict(spread_factor=1000, n_users=800, word_length=100,
                          ensemble=16),
             "toy": dict(spread_factor=100, n_users=80, word_length=20,
                         ensemble=4)}
    variant = "plain_sumf"
    # correlated_sumf costs ~7x a plain_sumf trial, so the pair uses a
    # prefix of the first batch's realizations.
    paired_trials = 4

    def normalized_ber(self, runs):
        config, _ = runs[0]
        pair = replace(config, ensemble=min(self.paired_trials,
                                            config.ensemble))
        corr = monte_carlo(replace(pair, variant="correlated_sumf"))
        plain = monte_carlo(pair)
        return corr.aggregate / plain.aggregate


class ShortWordsPool(Workload):
    name = "short_words_pool"
    why = ("C6 length study on 2 worker processes: small trials, so per-call "
           "numpy overhead and pool pickling dominate")
    workers = 2
    entry = "harness.length_scaling_study"
    reference = {"full": (0.0594, 0.10), "toy": (0.064, 0.5)}
    sizes = {"full": dict(spread_factor=250, n_users=200, ensemble=8),
             "toy": dict(spread_factor=50, n_users=40, ensemble=4)}

    def config(self, seed, scale):
        return ExperimentConfig(sigma=0.8, variant="correlated_mud",
                                schedule="SUS", word_length=LENGTHS[0],
                                seed=seed, **self.sizes[scale])

    def trials(self, config):
        return len(LENGTHS) * config.ensemble

    def run(self, config, mc, out_dir):
        reports = []

        def capture(cfg):
            reports.append(mc(cfg))
            return reports[-1]

        result = length_scaling_study(config, LENGTHS, workers=self.workers,
                                      run_report=capture)
        return Batch(failed=sum(r.divergences for r in reports),
                     errors=sum(r.errors_total for r in reports),
                     bits=sum(r.bits_total for r in reports),
                     reports=reports, facts={"result": result})

    def normalized_ber(self, runs):
        corr = [r for _, batch in runs for r in batch.reports]
        plain = [monte_carlo(replace(r.config, variant="plain_mud",
                                     mismatch=0.0), self.workers)
                 for r in corr]
        return (sum(r.errors_total for r in corr)
                / sum(r.errors_total for r in plain))

    def check(self, config, batch):
        problems = super().check(config, batch)
        result = batch.facts["result"]
        if tuple(r.config.word_length for r in batch.reports) != LENGTHS:
            problems.append("length study did not run every word length")
        if not -10.0 < result.slope < 10.0:
            problems.append(f"log-log slope {result.slope} outside "
                            f"(-10, 10)")
        return problems


class PairedSweepCli(Workload):
    name = "paired_sweep_cli"
    why = ("CLI lambda2 sweep at the C4 point: paired arms, CSV and manifest "
           "writing, and the lambda2=0 exact-reduction path")
    entry = "cli.main"
    reference = {"full": (0.0574, 0.15), "toy": (0.067, 0.7)}
    sizes = {"full": dict(spread_factor=500, n_users=400, word_length=100,
                          ensemble=1),
             "toy": dict(spread_factor=50, n_users=40, word_length=20,
                         ensemble=2)}

    def config(self, seed, scale):
        values = dict(sigma=0.8, seed=seed, **self.sizes[scale])
        return ExperimentConfig.from_dict(values)

    def argv(self, config, out_dir, dry_run=False):
        keys = ("spread_factor", "n_users", "word_length", "sigma",
                "ensemble", "seed")
        argv = ["sweep", "lambda2",
                "--values", ",".join(f"{v:g}" for v in SWEEP_VALUES),
                "--workers", str(self.workers), "--out-dir", str(out_dir)]
        for key in keys:
            argv += ["--" + key.replace("_", "-"), str(getattr(config, key))]
        return argv + (["--dry-run"] if dry_run else [])

    def trials(self, config):
        return 2 * len(SWEEP_VALUES) * config.ensemble

    def validate(self, config):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(config, ".", dry_run=True))
        if code != 0:
            raise RuntimeError(f"cli rejected the config (exit {code})")

    def run(self, config, mc, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(config, out_dir))
        if code != 0:
            raise RuntimeError(f"corrcdma sweep exited {code}")
        _, columns, rows = read_csv_with_header(out_dir / "sweep_lambda2.csv")
        points = [dict(zip(columns, row)) for row in rows]
        failed = 0
        for path in out_dir.glob("ber_*.csv"):
            header, _, _ = read_csv_with_header(path)
            failed += int(header["divergences"])
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        (paired,) = [p for p in points
                     if float(p["lambda2"]) == PAIRED_LAMBDA2]
        return Batch(
            failed=failed, errors=int(paired["errors_corr"]),
            bits=int(paired["bits_total"]), reports=[],
            facts={"points": points,
                   "errors_plain": int(paired["errors_plain"]),
                   "files": [p.name for p in files],
                   "bytes": sum(p.stat().st_size for p in files)})

    def normalized_ber(self, runs):
        return (sum(batch.errors for _, batch in runs)
                / sum(batch.facts["errors_plain"] for _, batch in runs))

    def check(self, config, batch):
        problems = super().check(config, batch)
        points = batch.facts["points"]
        if [float(p["lambda2"]) for p in points] != list(SWEEP_VALUES):
            problems.append("sweep CSV does not list every lambda2 value")
        for p in points:
            # C1: at lambda2 = 0 the correlated detector reduces exactly to
            # the plain one on the same realizations.
            if float(p["lambda2"]) == 0.0 and float(p["normalized"]) != 1.0:
                problems.append(f"lambda2=0 normalized BER {p['normalized']}"
                                f" != 1.0 (C1 reduction broken)")
        files = batch.facts["files"]
        expected = 2 + 2 * len(SWEEP_VALUES)  # sweep CSV, manifest, arms
        if len(files) != expected or "manifest.json" not in files:
            problems.append(f"expected {expected} output files with a "
                            f"manifest, found {files}")
        return problems

    def traced_reports(self, config, batch, mc, out_dir):
        """Re-run the sweep through the harness with persistence, and
        require CSVs byte-identical to the ones the CLI wrote."""
        rerun = out_dir / "harness-rerun"
        rerun.mkdir()
        reports = []

        def capture(cfg):
            reports.append(mc(cfg))
            mc.write(write_ber_csv, rerun / f"arm{len(reports)}.csv",
                     reports[-1])
            return reports[-1]

        points = normalized_ber_sweep(config, SWEEP_VALUES,
                                      run_report=capture)
        mc.write(write_sweep_csv, rerun / "sweep.csv", config, points)
        ours = sorted(p.read_bytes() for p in rerun.iterdir())
        theirs = sorted(p.read_bytes() for p in out_dir.glob("*.csv"))
        if ours != theirs:
            raise RuntimeError("harness rerun CSVs differ from the CLI's")
        return reports


WORKLOADS = {w.name: w for w in (LargeCorrMud(), PairedSweepCli(),
                                 ShortWordsPool(), MatchedFilterLarge())}
