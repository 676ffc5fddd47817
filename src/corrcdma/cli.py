"""Command-line frontend: experiments as subcommands with CSV and plot data.

Every experiment subcommand resolves one config from an optional config
file (flat key=value lines or a JSON object) plus flag overrides, with
flags winning. Results land in --out-dir (CSV files with a `# key=value`
header block, or plotdata's gnuplot files), followed by a manifest.json
naming every output; on any failure the partial outputs are removed and
the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import warnings
from contextlib import suppress
from dataclasses import replace
from datetime import datetime, timezone
from itertools import product, takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    AMPLIFICATIONS,
    DEFAULT_THRESHOLD_FACTOR,
    binary_entropy,
    bsc_residual_error,
    inverse_binary_entropy,
)
from .channel import generate_spreading, transmit
from .detectors import DetectorOptions, _run_engine, local_bias, sumf
from .harness import (
    CSV_COLUMNS,
    SHORTHANDS,
    ExperimentConfig,
    Plan,
    bandwidth_plan,
    check_workers,
    fixed_plan,
    lambda2_plan,
    length_plan,
    mismatch_plan,
    monte_carlo,
    monte_carlo_arms,
    read_csv_with_header,
    write_ber_csv,
    write_comparison_csv,
    write_length_csv,
    write_mismatch_csv,
    write_sweep_csv,
)
from .markov import (
    TransitionMatrix,
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
)

def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_config_file(path) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)  # an object, or a JSONDecodeError
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        data[key.strip()] = value.strip()
    return data


def _config_keys() -> list[str]:
    """Every config key, each with a flag: the ExperimentConfig fields, then
    the shorthands."""
    return ([f.name for f in dataclasses.fields(ExperimentConfig)]
            + list(SHORTHANDS))


def _resolve_config(args) -> ExperimentConfig:
    """The config file's keys overridden by the flags given. A flag also
    displaces the file-side value of the key it excludes, so "--load 0.5"
    beats a config file that pinned n_users."""
    file_data = _load_config_file(args.config) if args.config else {}
    flag_data = {key: getattr(args, key) for key in _config_keys()
                 if getattr(args, key) is not None}
    for key, (name, _) in SHORTHANDS.items():
        for flag, twin in ((key, name), (name, key)):
            if flag in flag_data and twin not in flag_data:
                file_data.pop(twin, None)
    file_data.update(flag_data)
    return ExperimentConfig.from_dict(file_data)


def _parse_value_list(text, option, cast=float):
    """The comma- or space-separated values of option, each cast; at least
    one, each finite, none listed twice."""
    if text is None or not str(text).strip():
        raise ValueError(f"{option} must list at least one value")
    values = []
    for token in str(text).replace(",", " ").split():
        try:
            value = cast(token)
        except ValueError:
            kind = "integers" if cast is int else "numbers"
            raise ValueError(
                f"{option} must list {kind}, got {token}") from None
        if not math.isfinite(value):
            raise ValueError(f"{option} must list finite numbers, got {token}")
        if value in values:
            raise ValueError(f"{option} lists {value:.15g} twice")
        values.append(value)
    return values


class _OutputSet:
    """Files written by one command, removable as a unit on failure, with
    the directories made for them."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        nearest = next(d for d in (self.out_dir, *self.out_dir.parents)
                       if d.exists())
        if not nearest.is_dir():
            raise ValueError(f"--out-dir: {nearest} is not a directory")
        self.paths = []
        self.made = []  # directories target created, innermost first

    def target(self, name) -> Path:
        path = self.out_dir / name
        if path in self.paths:
            raise ValueError(f"{name} would be written twice")
        self.made += takewhile(lambda d: not d.exists(),
                               (self.out_dir, *self.out_dir.parents))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths.append(path)
        return path

    def discard(self):
        for path in self.paths:
            path.unlink(missing_ok=True)
        for directory in self.made:
            with suppress(OSError):  # something else wrote into it
                directory.rmdir()

    def validate(self):
        for path in self.paths:
            if not path.exists():
                raise RuntimeError(f"expected output missing: {path}")
            if path.suffix == ".csv":
                read_csv_with_header(path)


# The environment variables that set the BLAS library's thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _environment() -> dict:
    """The software and CPU budget a run's timings and results come from:
    Python, numpy, numpy's BLAS, the CPUs this process may run on and the
    BLAS thread variables as set (None when unset). What this numpy or
    platform cannot tell (a numpy before 1.25 has no dict mode of
    show_config, some platforms no CPU affinity) reads None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpus_allowed": len(affinity(0)) if affinity else None,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
    }


def _write_manifest(outputs: _OutputSet, command: str, config, started: str,
                    workers=None):
    names = sorted(path.name for path in outputs.paths)
    path = outputs.target("manifest.json")
    payload = {
        "command": command,
        "config": None if config is None else config.to_dict(),
        "environment": _environment(),
        "seed": None if config is None else config.seed,
        "started": started,
        "finished": _timestamp(),
        "outputs": names,
        "version": __version__,
        "workers": workers,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _print_config(config: ExperimentConfig):
    print("config valid")
    for key, value in sorted(config.to_dict().items()):
        print(f"  {key}={value}")


def _arm_file(cfg) -> str:
    """The per-position BER file of one sweep arm."""
    return (f"ber_{cfg.variant}_lam{cfg.matrix.lambda2:g}"
            f"_L{cfg.word_length}_d{cfg.mismatch:g}.csv")


def _check_arm_files(runs):
    """ValueError naming the sweep points of the first two runs that
    would write the same per-arm file."""
    def point(cfg):
        return (f"lambda2={cfg.matrix.lambda2:.15g} "
                f"delta={cfg.mismatch:.15g} length={cfg.word_length}")

    seen = {}
    for cfg in runs:
        name = _arm_file(cfg)
        if name in seen:
            raise ValueError(f"sweep points {point(seen[name])} and "
                             f"{point(cfg)}: both would write {name}")
        seen[name] = cfg


# ---------------------------------------------------------------------------
# subcommands


def _run_command(args, command: str, plan) -> int:
    """The lifecycle of every command but selftest: plan, one joint run,
    reduce, write.

    The config, the worker budget, --out-dir and, through plan(config),
    every run and input the command uses are checked before anything runs
    or is written; an error there exits 2 and writes nothing. plotdata
    takes neither a config nor a worker budget: its plan gets None and runs
    nothing. plan returns (note, Plan, finish): --dry-run prints the config
    and the note, each if any, and exits 0. Otherwise the plan's runs are
    made in one monte_carlo_arms call and reduced once. finish(config,
    result, reports, outputs) writes the outputs (the {config: report}
    lookup gives the per-arm files) and prints the results. Once the
    outputs are validated and the manifest is written, the closing line of
    a sweep names the count of files written (the manifest counted) and
    their directory, and every other command names each result file. A
    failure after planning removes every output and exits 1.
    """
    try:
        config, workers = ((_resolve_config(args),
                            check_workers(args.workers, "--workers"))
                           if "config" in args else (None, None))
        note, experiment, finish = plan(config)
        outputs = _OutputSet(args.out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        if config is not None:
            _print_config(config)
        if note is not None:
            print(note)
        return 0
    started = _timestamp()
    try:
        reports = monte_carlo_arms(experiment.runs, workers)
        finish(config, experiment.reduce(reports), reports, outputs)
        outputs.validate()
        _write_manifest(outputs, command, config, started, workers)
    except Exception as exc:
        outputs.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a sweep writes a file per arm besides its curve (none when every
    # mismatch point is infeasible)
    if command.startswith("sweep-"):
        print(f"wrote {len(outputs.paths)} files to {outputs.out_dir}")
    else:
        for path in outputs.paths[:-1]:  # the manifest comes last
            print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    def finish(config, report, reports, outputs):
        write_ber_csv(outputs.target("ber.csv"), report)
        print(f"aggregate BER {report.aggregate:.6f} "
              f"({report.errors_total} errors / {report.bits_total} bits)")
        print(f"iterations median {report.iters_median:g} "
              f"max {report.iters_max}; "
              f"unconverged positions {report.unconverged_positions}; "
              f"divergences {report.divergences}")

    return _run_command(
        args, "simulate", lambda config: (
            None, Plan((config,), lambda reports: reports[config]), finish))


def cmd_sweep(args) -> int:
    kind = args.kind

    def plan(config):
        values = _parse_value_list(args.values, "--values",
                                   int if kind == "length" else float)
        # build every run the sweep makes, which validates each of them,
        # and check that their per-arm files have distinct names
        note = f"  sweep kind={kind} values={values}"
        if kind == "lambda2":
            experiment = lambda2_plan(config, values)
        elif kind == "length":
            experiment = length_plan(config, values, args.threshold_factor)
        else:
            deltas = _parse_value_list(args.deltas, "--deltas", float)
            experiment = mismatch_plan(config, deltas, values)
            note += f" deltas={deltas}"
        _check_arm_files(experiment.runs)
        return note, experiment, finish

    def finish(config, result, reports, outputs):
        for cfg, report in reports.items():
            write_ber_csv(outputs.target(_arm_file(cfg)), report)
        if kind == "lambda2":
            write_sweep_csv(outputs.target("sweep_lambda2.csv"), config,
                            result)
            for point in result:
                print(f"lambda2 {point.lambda2:g} normalized "
                      f"{point.normalized:.4f} "
                      f"(corr {point.p_corr:.5f} / plain {point.p_plain:.5f})")
        elif kind == "length":
            write_length_csv(outputs.target("sweep_length.csv"), config,
                             result)
            for length, position in zip(result.lengths, result.positions):
                print(f"length {length} saturation {position:.4f}")
            print(f"log-log slope {result.slope:.4f} "
                  f"(intercept {result.intercept:.4f})")
        else:
            write_mismatch_csv(outputs.target("sweep_mismatch.csv"), config,
                               result)
            for point in result:
                tag = (f"normalized {point.normalized:.4f}" if point.feasible
                       else f"infeasible ({point.reason})")
                print(f"lambda2 {point.lambda2:g} delta "
                      f"{point.rel_delta:+g} {tag}")

    return _run_command(args, f"sweep-{kind}", plan)


def cmd_compare_compression(args) -> int:
    protocol = args.protocol
    settings = {}  # the bandwidth settings, which the config lacks

    def plan(config):
        # the config's own matrix, or the symmetric one of each value
        if args.values is None:
            values = [config.matrix.lambda2]
            matrices = [(values[0], config.matrix)]
        else:
            values = _parse_value_list(args.values, "--values", float)
            matrices = ((lam, make_symmetric_matrix(lam)) for lam in values)
        note = f"  protocol={protocol} values={values}"
        if protocol == "fixed":
            return note, fixed_plan(config, matrices), finish
        epsilons = _parse_value_list(args.epsilon, "--epsilon", float)
        if any(eps < 0 for eps in epsilons):
            raise ValueError("--epsilon values must be >= 0")
        base_beta = config.load if args.base_beta is None else args.base_beta
        if not base_beta > 0:
            raise ValueError("--base-beta must be > 0")
        experiment = bandwidth_plan(config, matrices, epsilons, base_beta,
                                    args.amplification)
        note += f" epsilons={epsilons} base_beta={base_beta:g}"
        settings.update(base_beta=base_beta, amplification=args.amplification)
        return note, experiment, finish

    def finish(config, rows, reports, outputs):
        print("lambda2  epsilon  p_corr    p_comp    ratio"
              if protocol == "bandwidth"
              else "sigma  beta   lambda2  p_corr    p_comp    ratio")
        for lam, _, eps, comparison in rows:
            point = (f"{lam:<8g} {eps:<8g}" if protocol == "bandwidth" else
                     f"{config.sigma:<6g} {config.load:<6g} {lam:<8g}")
            print(f"{point} {comparison.p_corr:<9.5f} "
                  f"{comparison.p_comp:<9.5f} {comparison.ratio:.4f}")
        write_comparison_csv(outputs.target(f"comparison_{protocol}.csv"),
                             config, rows, settings)

    return _run_command(args, f"compare-compression-{protocol}", plan)


# ---------------------------------------------------------------------------
# plot data


_FAMILIES = {columns: family for family, columns in CSV_COLUMNS.items()}


def _detect_family(path, columns) -> str:
    family = _FAMILIES.get(tuple(columns))
    if family is not None:
        return family
    # name the first column that breaks the closest known schema
    best, overlap = None, -1
    for schema in _FAMILIES:
        shared = len(set(schema) & set(columns))
        if shared > overlap:
            best, overlap = schema, shared
    missing = [c for c in best if c not in columns]
    extra = [c for c in columns if c not in best]
    offender = (missing + extra)[0]
    raise ValueError(f"{path}: unrecognized schema, offending column "
                     f"{offender!r} (closest family {_FAMILIES[best]!r})")


def _gnuplot_script(ylabel, xlabel, logscale, clauses):
    lines = [
        'set datafile commentschars "#"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logscale:
        lines.append(f"set logscale {logscale}")
    lines.append("set key top right")
    joined = ", \\\n     ".join(clauses)
    lines.append(f"plot {joined}")
    return "\n".join(lines) + "\n"


# The families plotted as one curve per group of rows: (y column, y label,
# the columns that key a group, block comment, clause title), the last two
# formatted with the group's key.
_GROUPED = {
    "mismatch_surface": ("normalized", "normalized BER", ("rel_delta",),
                         "rel_delta={}", "delta={}"),
    "compression_comparison": ("ratio",
                               "error ratio (detection / compression)",
                               ("protocol", "epsilon"),
                               "protocol={} epsilon={}", "{} eps={}"),
}


def _block(rows, col, names, label=None):
    """One .dat block: the "# label" line if any, the "# names" line, then
    the named cells of each row."""
    lines = [] if label is None else [f"# {label}"]
    lines.append("# " + " ".join(names))
    lines += [" ".join(r[col[name]] for name in names) for r in rows]
    return "\n".join(lines)


def _grouped_plot(family, rows, col, dat_name):
    """The data blocks and script of a grouped family: lambda2 against the
    y column per group of rows, groups in first-seen order."""
    y, ylabel, keys, label, title = _GROUPED[family]
    groups = {}
    for r in rows:
        groups.setdefault(tuple(r[col[k]] for k in keys), []).append(r)
    blocks = [_block(group, col, ("lambda2", y), label.format(*key))
              for key, group in groups.items()]
    clauses = [f"\"{dat_name}\" index {i} using 1:2 with linespoints "
               f"title \"{title.format(*key)}\""
               for i, key in enumerate(groups)]
    return blocks, _gnuplot_script(ylabel, "second eigenvalue", None,
                                   clauses)


def _plot_texts(path, dat_name) -> tuple[str, str]:
    """The .dat and .gp texts of one result CSV, the script reading the
    data as dat_name; ValueError naming the file for an input that is not
    one of this tool's result files or has no plottable row."""
    header, columns, rows = read_csv_with_header(path)
    family = _detect_family(path, columns)
    col = {name: index for index, name in enumerate(columns)}
    # infeasible rows are left out; a file with no other row has no plot
    rows = [r for r in rows
            if "feasible" not in col or r[col["feasible"]] == "true"]
    if not rows:
        raise ValueError(f"{path}: no plottable row")

    if family == "ber_profile":
        blocks = [_block(rows, col, ("relative_position", "ber", "std_err"))]
        clauses = [
            f"\"{dat_name}\" using 1:2 with linespoints title \"BER\"",
            f"\"{dat_name}\" using 1:2:3 with yerrorbars notitle",
        ]
        script = _gnuplot_script("BER", "relative symbol position", "y",
                                 clauses)
    elif family == "normalized_sweep":
        blocks = [_block(rows, col, (x, "normalized"))
                  for x in ("lambda2", "correlation_length")]
        clauses = [f"\"{dat_name}\" index 0 using 1:2 with linespoints "
                   f"title \"normalized BER\""]
        script = _gnuplot_script("normalized BER", "second eigenvalue",
                                 None, clauses)
        script += (f"# inset vs correlation length:\n"
                   f"# plot \"{dat_name}\" index 1 using 1:2 "
                   f"with linespoints\n")
    elif family == "length_scaling":
        blocks = [_block(rows, col, ("length", "saturation_position"))]
        clauses = [f"\"{dat_name}\" using 1:2 with points pointtype 7 "
                   f"title \"saturation position\""]
        script = ""
        # a study whose fit was undefined records a nan slope and intercept
        fit = (header.get("slope", "nan"), header.get("intercept", "nan"))
        if "nan" not in fit:
            script = (f"f(x) = exp({header['intercept']}) * "
                      f"x ** ({header['slope']})\n")
            clauses.append("f(x) with lines title \"fit\"")
        script += _gnuplot_script("saturation position", "word length",
                                  "xy", clauses)
    else:  # mismatch_surface, compression_comparison
        blocks, script = _grouped_plot(family, rows, col, dat_name)

    return "\n\n\n".join(blocks) + "\n", script


def cmd_plotdata(args) -> int:
    def plan(config):
        # every input is read and rendered before anything is written
        texts = {}  # stem -> (input, .dat text, .gp text)
        for path in map(Path, args.inputs):
            stem = path.stem
            if stem in texts:
                raise ValueError(f"{texts[stem][0]} and {path} would both "
                                 f"write {stem}.dat and {stem}.gp")
            texts[stem] = (path, *_plot_texts(path, f"{stem}.dat"))
        return (f"{len(texts)} input files readable",
                Plan((), lambda reports: texts), finish)

    def finish(config, texts, reports, outputs):
        for stem, (_, dat, script) in texts.items():
            outputs.target(f"{stem}.dat").write_text(dat)
            outputs.target(f"{stem}.gp").write_text(script)

    return _run_command(args, "plotdata", plan)


# ---------------------------------------------------------------------------
# selftest


def _bias_enumeration_error(rng, n_matrices: int) -> float:
    """The worst |local_bias - enumerated posterior| over n_matrices random
    two-state matrices, each with the four hard (+-1) neighbour pairs: the
    bias of a middle symbol must be the posterior mean that enumerating
    its two hypotheses gives."""
    worst = 0.0
    for _ in range(n_matrices):
        stay = rng.uniform(0.05, 0.95, size=2)
        matrix = TransitionMatrix(np.array([[stay[0], 1.0 - stay[0]],
                                            [1.0 - stay[1], stay[1]]]))
        for left, right in product((-1, 1), repeat=2):
            soft = np.array([[left, 0.0, right]], dtype=float)
            got = float(local_bias(soft, matrix, 1)[0])
            up = matrix.prob(left, 1) * matrix.prob(1, right)
            down = matrix.prob(left, -1) * matrix.prob(-1, right)
            worst = max(worst, abs(got - (up - down) / (up + down)))
    return worst


def _selftest_checks():
    rng = np.random.default_rng(20240817)

    def entropy_round_trip():
        points = rng.uniform(0.0, 0.5, size=200)
        back = np.array([inverse_binary_entropy(binary_entropy(p))
                         for p in points])
        return np.max(np.abs(back - points)) < 1e-9

    def residual_identity_rate():
        crossovers = rng.uniform(0.0, 0.49, size=50)
        return all(abs(bsc_residual_error(1.0, f) - f) < 1e-12
                   for f in crossovers)

    def bias_matches_enumeration():
        return _bias_enumeration_error(rng, 10) < 1e-12

    def reduction_identity():
        # the engine, not monte_carlo: a joint run detects a memoryless
        # correlated arm as the plain MUD, so its reports would compare
        # the plain MUD with itself
        for _ in range(3):
            block = generate_block(iid_matrix(), 30, 10, rng)
            spreading = generate_spreading(60, 30, rng)
            received = transmit(spreading, block, 0.8, rng)
            run = ([sumf(spreading, received)], [spreading.corr],
                   spreading.n_users / spreading.spread_factor, 0.8,
                   DetectorOptions())
            (plain,) = _run_engine(*run)
            (corr,) = _run_engine(*run, assumed=[iid_matrix()])
            if not all(np.array_equal(getattr(corr, name),
                                      getattr(plain, name))
                       for name in ("field", "iters", "converged",
                                    "outer_iterations")):
                return False
        return True

    def deterministic_and_worker_free():
        cfg = ExperimentConfig(spread_factor=50, n_users=25, sigma=0.8,
                               word_length=8, ensemble=4, seed=9)
        return (monte_carlo(cfg, workers=1) == monte_carlo(cfg, workers=1)
                == monte_carlo(cfg, workers=2))

    def joint_equals_lone_runs():
        # the channels of two seeds and three eigenvalues share trial 0 and
        # their payloads, and each lambda2 = 0 correlated arm runs as its
        # plain arm; so does the memoryless bandwidth point's correlated
        # arm, as the reduced arm of its own plan
        cfg = ExperimentConfig(spread_factor=50, n_users=25, sigma=0.8,
                               word_length=8, ensemble=1)
        plans = [lambda2_plan(replace(cfg, seed=seed), [0.0, 0.4, 0.8])
                 for seed in (11, 12)]
        plans.append(bandwidth_plan(replace(cfg, seed=13),
                                    [(0.0, iid_matrix())], [0.0], cfg.load))
        joint = monte_carlo_arms([cfg for plan in plans for cfg in plan.runs])
        lone = {cfg: monte_carlo(cfg) for cfg in joint}
        return all(plan.reduce(joint) == plan.reduce(lone) for plan in plans)

    return (
        ("binary entropy inverts to 1e-9", entropy_round_trip),
        ("unit-entropy residual equals crossover", residual_identity_rate),
        ("local bias equals enumerated posterior", bias_matches_enumeration),
        ("memoryless matrix reduces to plain detector", reduction_identity),
        ("reports deterministic and worker-independent",
         deterministic_and_worker_free),
        ("joint sweep equals per-arm runs point by point",
         joint_equals_lone_runs),
    )


def cmd_selftest(args) -> int:
    failures = 0
    for label, check in _selftest_checks():
        try:
            passed = bool(check())
        except Exception as exc:
            passed = False
            print(f"FAIL {label}: {exc}")
        else:
            print(("ok   " if passed else "FAIL ") + label)
        failures += not passed
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("all selftest checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser):
    parser.add_argument("--config", default=None,
                        help="config file: key=value lines or a JSON object")
    for key in _config_keys():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=None, help=f"override config key {key}")
    parser.add_argument("--out-dir", default=".",
                        help="directory for CSV and manifest outputs")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel trial budget (default: serial)")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and exit without running")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcdma",
        description="Monte-Carlo CDMA detection experiments with "
                    "Markov-correlated sources")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)

    simulate = commands.add_parser(
        "simulate", parents=[common],
        help="one operating point, per-position BER CSV")
    simulate.set_defaults(func=cmd_simulate, parser=simulate)

    sweep = commands.add_parser(
        "sweep", help="curve studies over correlation, length or mismatch")
    sweep.set_defaults(func=cmd_sweep)
    kinds = sweep.add_subparsers(dest="kind", required=True)
    lambda2 = kinds.add_parser("lambda2", parents=[common],
                               help="normalized BER over second eigenvalues")
    length = kinds.add_parser("length", parents=[common],
                              help="saturation position over word lengths")
    mismatch = kinds.add_parser(
        "mismatch", parents=[common],
        help="normalized BER under a misestimated transition matrix")
    for kind, values in ((lambda2, "eigenvalues"), (length, "word lengths"),
                         (mismatch, "eigenvalues")):
        kind.set_defaults(parser=kind)
        kind.add_argument("--values",
                          help=f"comma- or space-separated {values}")
    length.add_argument("--threshold-factor", type=float,
                        default=DEFAULT_THRESHOLD_FACTOR,
                        help="saturation threshold over the minimum BER "
                             f"(default {DEFAULT_THRESHOLD_FACTOR})")
    mismatch.add_argument("--deltas",
                          help="relative perturbations of the assumed matrix")

    compare = commands.add_parser(
        "compare-compression",
        help="detection of correlated sources vs compress-then-transmit")
    compare.set_defaults(func=cmd_compare_compression)
    protocols = compare.add_subparsers(dest="protocol", required=True)
    fixed = protocols.add_parser(
        "fixed", parents=[common],
        help="compression at the same load and noise")
    bandwidth = protocols.add_parser(
        "bandwidth", parents=[common],
        help="compression that spends the bandwidth it frees on a lower load")
    for protocol in (fixed, bandwidth):
        protocol.set_defaults(parser=protocol)
        protocol.add_argument("--values", help="eigenvalues to compare at "
                                               "(default: the config matrix)")
    bandwidth.add_argument("--epsilon", default="0",
                           help="rate excess values (default: 0)")
    bandwidth.add_argument("--base-beta", type=float,
                           help="uncompressed load (default: config load)")
    bandwidth.add_argument("--amplification", choices=AMPLIFICATIONS,
                           default="entropy",
                           help="per-source-bit error accounting variant "
                                "(default: entropy)")

    plotdata = commands.add_parser(
        "plotdata", help="turn result CSVs into gnuplot data and scripts")
    plotdata.add_argument("inputs", nargs="+",
                          help="CSV files produced by this tool")
    plotdata.add_argument("--out-dir", default=".")
    plotdata.add_argument("--dry-run", action="store_true")
    plotdata.set_defaults(func=cmd_plotdata, parser=plotdata)

    selftest = commands.add_parser(
        "selftest", help="run the built-in oracle checks quickly")
    selftest.set_defaults(func=cmd_selftest, parser=selftest)

    return parser


def _print_warning(message, category, filename, lineno, file=None,
                   line=None):
    """Show a warning as one line with its message only: the source
    location names the checkout, not anything the user can act on."""
    print(f"warning: {message}", file=file or sys.stderr)


def main(argv=None) -> int:
    # a flag the typed command does not declare is refused with that
    # command's usage, not the top-level one
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
