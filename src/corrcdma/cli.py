"""Command-line frontend: experiments as subcommands with CSV and plot data.

Every subcommand resolves one experiment config from an optional config
file (flat key=value lines or a JSON object) plus flag overrides, with
flags winning. Results land in --out-dir as CSV files with a `# key=value`
header block, followed by a manifest.json naming every output; on any
failure the partial outputs are removed and the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import suppress
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from itertools import product, takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    AMPLIFICATIONS,
    binary_entropy,
    bsc_residual_error,
    inverse_binary_entropy,
)
from .detectors import local_bias
from .harness import (
    CSV_COLUMNS,
    SHORTHANDS,
    ExperimentConfig,
    Plan,
    check_workers,
    compression_plan,
    default_workers,
    lambda2_plan,
    length_plan,
    mismatch_plan,
    monte_carlo,
    monte_carlo_arms,
    normalized_ber_sweep,
    read_csv_with_header,
    write_ber_csv,
    write_comparison_csv,
    write_length_csv,
    write_mismatch_csv,
    write_sweep_csv,
)
from .markov import TransitionMatrix, make_symmetric_matrix

def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_config_file(path) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: JSON config must be an object")
        return data
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


def _resolve_workers(args):
    if args.workers is None:
        return default_workers()
    return check_workers(args.workers, "--workers")


def _parse_value_list(text, option, cast=float):
    """The comma- or space-separated values of option, each cast; at least
    one, none listed twice."""
    if text is None or not str(text).strip():
        raise ValueError(f"{option} must list at least one value")
    values = [cast(token) for token in str(text).replace(",", " ").split()]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{option} lists {value:.15g} twice")
    return values


# The flags only one sweep kind or compare-compression protocol reads.
_FLAG_READERS = {"deltas": "sweep kind mismatch",
                 "threshold_factor": "sweep kind length",
                 **dict.fromkeys(("epsilon", "base_beta", "amplification"),
                                 "the bandwidth protocol")}


def _refuse_stray_flags(args, reader):
    """ValueError naming a flag of _FLAG_READERS given to another reader."""
    for dest, owner in _FLAG_READERS.items():
        if owner != reader and getattr(args, dest, None) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to "
                             f"{owner}")


class _OutputSet:
    """Files written by one command, removable as a unit on failure, with
    the directories made for them."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
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


def _write_manifest(outputs: _OutputSet, command: str, config, started: str,
                    workers=None):
    names = sorted(path.name for path in outputs.paths)
    path = outputs.target("manifest.json")
    payload = {
        "command": command,
        "config": None if config is None else config.to_dict(),
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


def _run_experiment(args, command: str, plan) -> int:
    """The lifecycle of an experiment command: plan, one joint run, reduce.

    The config, the worker budget and, through plan(config), every run the
    command will make are checked before anything runs; an error there
    exits 2 and writes nothing. plan returns (note, Plan, finish):
    --dry-run prints the config and the note, if any, and exits 0.
    Otherwise the plan's runs are made in one monte_carlo_arms call and
    reduced once. finish(result, reports, outputs) writes the outputs (the
    {config: report} lookup gives the per-arm files), prints the results
    and returns a function giving the closing line, printed once the
    outputs are validated and the manifest is written. A failure before
    that removes every output and exits 1.
    """
    try:
        config = _resolve_config(args)
        workers = _resolve_workers(args)
        note, experiment, finish = plan(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        _print_config(config)
        if note is not None:
            print(note)
        return 0
    outputs = _OutputSet(args.out_dir)
    started = _timestamp()
    try:
        reports = monte_carlo_arms(experiment.runs, workers)
        closing = finish(experiment.reduce(reports), reports, outputs)
        outputs.validate()
        _write_manifest(outputs, command, config, started, workers)
    except Exception as exc:
        outputs.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(closing())
    return 0


def cmd_simulate(args) -> int:
    def finish(report, reports, outputs):
        path = outputs.target("ber.csv")
        write_ber_csv(path, report)
        print(f"aggregate BER {report.aggregate:.6f} "
              f"({report.errors_total} errors / {report.bits_total} bits)")
        print(f"iterations median {report.iters_median:g} "
              f"max {report.iters_max}; "
              f"unconverged positions {report.unconverged_positions}; "
              f"divergences {report.divergences}")
        return lambda: f"wrote {path}"

    return _run_experiment(
        args, "simulate", lambda config: (
            None, Plan((config,), lambda reports: reports[config]), finish))


def cmd_sweep(args) -> int:
    kind = args.kind

    def plan(config):
        _refuse_stray_flags(args, f"sweep kind {kind}")
        values = _parse_value_list(args.values, "--values",
                                   int if kind == "length" else float)
        # build every run the sweep makes, which validates each of them,
        # and check that their per-arm files have distinct names
        note = f"  sweep kind={kind} values={values}"
        if kind == "lambda2":
            experiment = lambda2_plan(config, values)
        elif kind == "length":
            factor = args.threshold_factor
            experiment = length_plan(config, values,
                                     1.2 if factor is None else factor)
        else:
            deltas = _parse_value_list(args.deltas, "--deltas", float)
            experiment = mismatch_plan(config, deltas, values)
            note += f" deltas={deltas}"
        _check_arm_files(experiment.runs)
        return note, experiment, partial(finish, config)

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
        return lambda: f"wrote {len(outputs.paths)} files to {outputs.out_dir}"

    return _run_experiment(args, f"sweep-{kind}", plan)


def cmd_compare_compression(args) -> int:
    protocol = args.protocol

    def plan(config):
        _refuse_stray_flags(args, f"the {protocol} protocol")
        values = ([config.matrix.lambda2] if args.values is None
                  else _parse_value_list(args.values, "--values", float))
        epsilons = _parse_value_list(
            "0" if args.epsilon is None else args.epsilon, "--epsilon", float)
        if any(eps < 0 for eps in epsilons):
            raise ValueError("--epsilon values must be >= 0")
        base_beta = config.load if args.base_beta is None else args.base_beta
        if not base_beta > 0:
            raise ValueError("--base-beta must be > 0")
        # the config's own matrix, or the symmetric one of each value
        matrices = ([(values[0], config.matrix)] if args.values is None
                    else ((lam, make_symmetric_matrix(lam)) for lam in values))
        experiment = compression_plan(config, protocol, matrices, epsilons,
                                      base_beta,
                                      args.amplification or "entropy")
        note = f"  protocol={protocol} values={values}"
        if protocol == "bandwidth":
            note += f" epsilons={epsilons} base_beta={base_beta:g}"
        return note, experiment, partial(finish, config)

    def finish(config, rows, reports, outputs):
        print("lambda2  epsilon  p_corr    p_comp    ratio"
              if protocol == "bandwidth"
              else "sigma  beta   lambda2  p_corr    p_comp    ratio")
        for lam, _, eps, comparison in rows:
            point = (f"{lam:<8g} {eps:<8g}" if protocol == "bandwidth" else
                     f"{config.sigma:<6g} {config.load:<6g} {lam:<8g}")
            print(f"{point} {comparison.p_corr:<9.5f} "
                  f"{comparison.p_comp:<9.5f} {comparison.ratio:.4f}")
        path = outputs.target(f"comparison_{protocol}.csv")
        write_comparison_csv(path, config, rows)
        return lambda: f"wrote {path}"

    return _run_experiment(args, f"compare-compression-{protocol}", plan)


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


def _grouped_plot(family, rows, col, dat_name):
    """The data blocks and script of a grouped family: lambda2 against the
    y column per group of rows, groups in first-seen order; infeasible
    rows are left out."""
    y, ylabel, keys, label, title = _GROUPED[family]
    groups = {}
    for r in rows:
        if "feasible" not in col or r[col["feasible"]] == "true":
            groups.setdefault(tuple(r[col[k]] for k in keys), []).append(
                f"{r[col['lambda2']]} {r[col[y]]}")
    blocks = ["\n".join([f"# {label.format(*key)}", f"# lambda2 {y}", *lines])
              for key, lines in groups.items()]
    clauses = [f"\"{dat_name}\" index {i} using 1:2 with linespoints "
               f"title \"{title.format(*key)}\""
               for i, key in enumerate(groups)]
    return blocks, _gnuplot_script(ylabel, "second eigenvalue", None,
                                   clauses)


def _emit_plotdata(path, outputs) -> list:
    header, columns, rows = read_csv_with_header(path)
    family = _detect_family(path, columns)
    stem = Path(path).stem
    dat_path = outputs.target(f"{stem}.dat")
    gp_path = outputs.target(f"{stem}.gp")
    col = {name: index for index, name in enumerate(columns)}

    if family == "ber_profile":
        body = [f"# relative_position ber std_err"]
        body += [f"{r[col['relative_position']]} {r[col['ber']]} "
                 f"{r[col['std_err']]}" for r in rows]
        blocks = ["\n".join(body)]
        clauses = [
            f"\"{dat_path.name}\" using 1:2 with linespoints title \"BER\"",
            f"\"{dat_path.name}\" using 1:2:3 with yerrorbars notitle",
        ]
        script = _gnuplot_script("BER", "relative symbol position", "y",
                                 clauses)
    elif family == "normalized_sweep":
        main = ["# lambda2 normalized"]
        main += [f"{r[col['lambda2']]} {r[col['normalized']]}" for r in rows]
        inset = ["# correlation_length normalized"]
        inset += [f"{r[col['correlation_length']]} {r[col['normalized']]}"
                  for r in rows]
        blocks = ["\n".join(main), "\n".join(inset)]
        clauses = [f"\"{dat_path.name}\" index 0 using 1:2 with linespoints "
                   f"title \"normalized BER\""]
        script = _gnuplot_script("normalized BER", "second eigenvalue",
                                 None, clauses)
        script += (f"# inset vs correlation length:\n"
                   f"# plot \"{dat_path.name}\" index 1 using 1:2 "
                   f"with linespoints\n")
    elif family == "length_scaling":
        body = ["# length saturation_position"]
        body += [f"{r[col['length']]} {r[col['saturation_position']]}"
                 for r in rows]
        blocks = ["\n".join(body)]
        clauses = [f"\"{dat_path.name}\" using 1:2 with points pointtype 7 "
                   f"title \"saturation position\""]
        script = ""
        if "slope" in header and "intercept" in header:
            script = (f"f(x) = exp({header['intercept']}) * "
                      f"x ** ({header['slope']})\n")
            clauses.append("f(x) with lines title \"fit\"")
        script += _gnuplot_script("saturation position", "word length",
                                  "xy", clauses)
    else:  # mismatch_surface, compression_comparison
        blocks, script = _grouped_plot(family, rows, col, dat_path.name)

    dat_path.write_text("\n\n\n".join(blocks) + "\n")
    gp_path.write_text(script)
    return [dat_path, gp_path]


def cmd_plotdata(args) -> int:
    outputs = _OutputSet(args.out_dir)
    started = _timestamp()
    try:
        stems = {}
        for path in args.inputs:
            if not Path(path).exists():
                raise ValueError(f"{path}: no such input file")
            stem = Path(path).stem
            if stem in stems:
                raise ValueError(f"{stems[stem]} and {path} would both "
                                 f"write {stem}.dat and {stem}.gp")
            stems[stem] = path
        if args.dry_run:
            print(f"{len(args.inputs)} input files readable")
            return 0
        written = []
        for path in args.inputs:
            written.extend(_emit_plotdata(path, outputs))
        outputs.validate()
        _write_manifest(outputs, "plotdata", None, started)
    except Exception as exc:
        outputs.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1 if not isinstance(exc, ValueError) else 2
    for path in written:
        print(f"wrote {path}")
    return 0


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
        cfg = ExperimentConfig(spread_factor=60, n_users=30, sigma=0.8,
                               word_length=10,
                               matrix=make_symmetric_matrix(0.0),
                               variant="correlated_mud", ensemble=2, seed=5)
        corr = monte_carlo(cfg)
        plain = monte_carlo(replace(cfg, variant="plain_mud"))
        return np.array_equal(corr.errors_by_position,
                              plain.errors_by_position)

    def deterministic_and_worker_free():
        cfg = ExperimentConfig(spread_factor=50, n_users=25, sigma=0.8,
                               word_length=8, ensemble=4, seed=9)
        one = monte_carlo(cfg, workers=1)
        again = monte_carlo(cfg, workers=1)
        two = monte_carlo(cfg, workers=2)
        return (np.array_equal(one.errors_by_position,
                               again.errors_by_position)
                and np.array_equal(one.errors_by_position,
                                   two.errors_by_position))

    def paired_zero_correlation():
        cfg = ExperimentConfig(spread_factor=50, n_users=25, sigma=0.8,
                               word_length=8, ensemble=2, seed=3)
        (point,) = normalized_ber_sweep(cfg, [0.0])
        return point.normalized == 1.0

    return (
        ("binary entropy inverts to 1e-9", entropy_round_trip),
        ("unit-entropy residual equals crossover", residual_identity_rate),
        ("local bias equals enumerated posterior", bias_matches_enumeration),
        ("memoryless matrix reduces to plain detector", reduction_identity),
        ("reports deterministic and worker-independent",
         deterministic_and_worker_free),
        ("zero-correlation normalized BER is exactly 1",
         paired_zero_correlation),
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
                        help="parallel trial budget "
                             "(default: CORRCDMA_WORKERS or serial)")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and exit without running")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcdma",
        description="Monte-Carlo CDMA detection experiments with "
                    "Markov-correlated sources")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="one operating point, per-position BER CSV")
    _add_common(simulate)
    simulate.set_defaults(func=cmd_simulate)

    sweep = commands.add_parser(
        "sweep", help="curve studies over correlation, length or mismatch")
    sweep.add_argument("kind", choices=("lambda2", "length", "mismatch"))
    _add_common(sweep)
    sweep.add_argument("--values", default=None,
                       help="comma- or space-separated sweep values "
                            "(eigenvalues, or word lengths for kind=length)")
    sweep.add_argument("--deltas", default=None,
                       help="relative perturbations for kind=mismatch")
    sweep.add_argument("--threshold-factor", type=float, default=None,
                       help="saturation threshold over the minimum BER "
                            "(kind=length, default 1.2)")
    sweep.set_defaults(func=cmd_sweep)

    compare = commands.add_parser(
        "compare-compression",
        help="detection of correlated sources vs compress-then-transmit")
    compare.add_argument("protocol", choices=("bandwidth", "fixed"))
    _add_common(compare)
    compare.add_argument("--values", default=None,
                         help="eigenvalues to compare at "
                              "(default: the config matrix)")
    compare.add_argument("--epsilon", default=None,
                         help="rate excess values for protocol=bandwidth "
                              "(default: 0)")
    compare.add_argument("--base-beta", type=float, default=None,
                         help="uncompressed load for protocol=bandwidth "
                              "(default: config load)")
    compare.add_argument("--amplification", choices=AMPLIFICATIONS,
                         default=None,
                         help="per-source-bit error accounting variant for "
                              "protocol=bandwidth (default: entropy)")
    compare.set_defaults(func=cmd_compare_compression)

    plotdata = commands.add_parser(
        "plotdata", help="turn result CSVs into gnuplot data and scripts")
    plotdata.add_argument("inputs", nargs="+",
                          help="CSV files produced by this tool")
    plotdata.add_argument("--out-dir", default=".")
    plotdata.add_argument("--dry-run", action="store_true")
    plotdata.set_defaults(func=cmd_plotdata)

    selftest = commands.add_parser(
        "selftest", help="run the built-in oracle checks quickly")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
