"""End-to-end checks of the command-line frontend, run in process.

Each test drives main(argv) directly and inspects exit codes, stdout, and
the files left on disk: outputs must appear exactly on success and never
linger after a failure.
"""

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import corrcdma
from corrcdma import __version__
from corrcdma import cli, harness
from corrcdma.baselines import (
    bandwidth_expansion_comparison,
    compression_point,
    fixed_load_comparison,
)
from corrcdma.cli import _OutputSet, build_parser, main
from corrcdma.harness import SHORTHANDS, ExperimentConfig, read_csv_with_header
from corrcdma.markov import (
    TransitionMatrix,
    iid_matrix,
    make_symmetric_matrix,
    source_stats,
)

TINY = ["--spread-factor", "60", "--n-users", "30", "--word-length", "10",
        "--ensemble", "2", "--seed", "7"]


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([])
    assert excinfo.value.code == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all selftest checks passed" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CORRCDMA_WORKERS", raising=False)
    out = tmp_path / "run"
    assert main(["simulate", *TINY, "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "aggregate BER" in stdout

    header, _, rows = read_csv_with_header(out / "ber.csv")
    assert header["corrcdma"] == __version__
    assert len(rows) == 10

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["version"] == __version__
    assert manifest["seed"] == 7
    assert manifest["outputs"] == ["ber.csv"]
    assert manifest["config"]["n_users"] == 30
    assert manifest["workers"] is None  # serial
    for name in manifest["outputs"]:
        assert (out / name).exists()


@pytest.mark.parametrize("flag, env, expected", [
    ("2", None, 2), (None, "3", 3), ("1", "3", 1)],
    ids=["flag", "env", "flag-over-env"])
def test_manifest_records_the_worker_budget(tmp_path, monkeypatch, flag, env,
                                            expected):
    monkeypatch.delenv("CORRCDMA_WORKERS", raising=False)
    if env is not None:
        monkeypatch.setenv("CORRCDMA_WORKERS", env)
    out = tmp_path / "run"
    assert main(["simulate", *TINY, "--out-dir", str(out),
                 *(["--workers", flag] if flag else [])]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["workers"] == expected


def test_parallel_run_exits_and_leaves_no_workers(tmp_path):
    # the pool kept alive for the run must neither hold the interpreter
    # open at exit nor outlive it
    script = ("import multiprocessing, sys\n"
              "from corrcdma.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print('workers', *(p.pid for p in "
              "multiprocessing.active_children()))\n"
              "sys.exit(code)\n")
    src = str(Path(corrcdma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", *TINY, "--ensemble", "4",
         "--workers", "2", "--out-dir", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "ber.csv").exists()
    label, *pids = proc.stdout.splitlines()[-1].split()
    assert label == "workers" and len(pids) == 2  # the pool was alive
    for pid in map(int, pids):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_simulate_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    argv = ["simulate", *TINY, "--ensemble", "1"]
    assert main([*argv, "--out-dir", str(first)]) == 0
    assert main([*argv, "--out-dir", str(second)]) == 0
    assert (first / "ber.csv").read_bytes() == (second / "ber.csv").read_bytes()


def test_simulate_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "dry"
    assert main(["simulate", *TINY, "--dry-run", "--out-dir", str(out)]) == 0
    assert "config valid" in capsys.readouterr().out
    assert not out.exists()


def test_simulate_rejects_out_of_range_eigenvalue(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main(["simulate", "--lambda2", "1.5", "--out-dir", str(out)])
    assert code == 2
    assert "lambda2" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_file_key_is_named(tmp_path, capsys):
    config = tmp_path / "conf.txt"
    config.write_text("spread_factor=40\nchips=7\n")
    code = main(["simulate", "--config", str(config), "--dry-run"])
    assert code == 2
    assert "chips" in capsys.readouterr().err


def test_malformed_config_line_is_located(tmp_path, capsys):
    config = tmp_path / "conf.txt"
    config.write_text("sigma 0.5\n")
    assert main(["simulate", "--config", str(config), "--dry-run"]) == 2
    assert ":1" in capsys.readouterr().err


def test_json_config_is_accepted(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"spread_factor": 40, "n_users": 20,
                                  "word_length": 6, "ensemble": 1,
                                  "lambda2": 0.5}))
    assert main(["simulate", "--config", str(config), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "spread_factor=40" in out


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "conf.txt"
    config.write_text("sigma=0.5\nspread_factor=40\nn_users=20\nensemble=1\n")
    assert main(["simulate", "--config", str(config), "--sigma", "0.3",
                 "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "sigma=0.3" in out
    assert "n_users=20" in out


def test_load_flag_displaces_file_user_count(tmp_path, capsys):
    config = tmp_path / "conf.txt"
    config.write_text("spread_factor=40\nn_users=20\nensemble=1\n")
    assert main(["simulate", "--config", str(config), "--load", "0.25",
                 "--dry-run"]) == 0
    assert "n_users=10" in capsys.readouterr().out


def test_invalid_worker_environment_is_reported(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CORRCDMA_WORKERS", "0")
    out = tmp_path / "env"
    code = main(["simulate", *TINY, "--out-dir", str(out)])
    assert code == 2
    assert "CORRCDMA_WORKERS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["sweep", "lambda2", "--values", "0.5"],
    ["compare-compression", "fixed"],
], ids=["simulate", "sweep-lambda2", "compare-fixed"])
@pytest.mark.parametrize("workers, env, message", [
    ("0", None, "--workers must be >= 1"),
    ("-2", None, "--workers must be >= 1"),
    (None, "abc", "CORRCDMA_WORKERS must be an integer"),
], ids=["flag-zero", "flag-negative", "env-text"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "run"])
def test_worker_budget_is_checked_up_front(tmp_path, capsys, monkeypatch,
                                           command, workers, env, message,
                                           dry_run):
    if env is None:
        monkeypatch.delenv("CORRCDMA_WORKERS", raising=False)
    else:
        monkeypatch.setenv("CORRCDMA_WORKERS", env)
    out = tmp_path / "workers"
    code = main([*command, *TINY, "--out-dir", str(out),
                 *(["--workers", workers] if workers else []),
                 *(["--dry-run"] if dry_run else [])])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", *TINY, "--matrix", "nan,0.5,0.5,0.5"], "outside [0, 1]"),
    (["simulate", *TINY, "--sigma", "nan"], "config key sigma"),
    (["simulate", *TINY, "--sigma", "inf"], "config key sigma"),
    (["simulate", "--spread-factor", "60", "--load", "inf", "--ensemble", "2"],
     "config key load"),
    (["simulate", *TINY, "--lambda2", "1.5"], "lambda2 must lie in [-1, 1]"),
    (["sweep", "length", "--values", "8,16,32", *TINY,
      "--threshold-factor", "1.0"], "threshold_factor must be finite"),
    (["sweep", "length", "--values", "8,16,32", *TINY,
      "--threshold-factor", "nan"], "threshold_factor must be finite"),
    (["sweep", "length", "--values", "8,16,32", *TINY,
      "--threshold-factor", "0.0"], "threshold_factor must be finite"),
    # a length without two positions has no saturation position
    (["sweep", "length", "--values", "1,4,8", *TINY],
     "word lengths must be >= 2 for a saturation position, got 1"),
    # a sweep flag given to a kind that does not read it
    (["sweep", "lambda2", "--values", "0.1,0.2", "--deltas", "0.1", *TINY],
     "--deltas applies only to sweep kind mismatch"),
    (["sweep", "length", "--values", "8,16,32", "--deltas", "0.1", *TINY],
     "--deltas applies only to sweep kind mismatch"),
    (["sweep", "lambda2", "--values", "0.1", "--threshold-factor", "3",
      *TINY], "--threshold-factor applies only to sweep kind length"),
    (["sweep", "mismatch", "--values", "0.5", "--deltas", "0.1",
      "--threshold-factor", "1.5", *TINY],
     "--threshold-factor applies only to sweep kind length"),
    (["compare-compression", "bandwidth", *TINY, "--base-beta", "inf"],
     "base_beta must be finite"),
    (["compare-compression", "bandwidth", *TINY, "--base-beta", "nan"],
     "--base-beta must be > 0"),
    (["compare-compression", "bandwidth", *TINY, "--epsilon", "-0.1"],
     "--epsilon values must be >= 0"),
    (["compare-compression", "fixed", *TINY, "--base-beta", "inf"],
     "--base-beta applies only to the bandwidth protocol"),
    (["compare-compression", "fixed", *TINY, "--base-beta", "0.5"],
     "--base-beta applies only to the bandwidth protocol"),
    (["compare-compression", "fixed", *TINY, "--epsilon", "0.5"],
     "--epsilon applies only to the bandwidth protocol"),
    (["compare-compression", "fixed", *TINY, "--epsilon", "0"],
     "--epsilon applies only to the bandwidth protocol"),
    (["compare-compression", "fixed", *TINY, "--amplification", "rate"],
     "--amplification applies only to the bandwidth protocol"),
    # sweep values whose per-arm files would share a name
    (["sweep", "lambda2", "--values", "0.1,0.10000001", *TINY],
     "sweep points lambda2=0.1 delta=0 length=10 and lambda2=0.10000001 "
     "delta=0 length=10: both would write "
     "ber_correlated_mud_lam0.1_L10_d0.csv"),
    # a value listed twice, in any list flag
    (["sweep", "lambda2", "--values", "0.4,0.1,0.4", *TINY],
     "--values lists 0.4 twice"),
    (["sweep", "mismatch", "--values", "0.5", "--deltas", "0.1,0.1", *TINY],
     "--deltas lists 0.1 twice"),
    (["sweep", "mismatch", "--values", "0.5,0.5000000001", "--deltas", "0.1",
      *TINY], "ber_plain_mud_lam0.5_L10_d0.csv"),
    (["sweep", "length", "--values", "8,16,8,32", *TINY],
     "--values lists 8 twice"),
    (["compare-compression", "fixed", "--values", "0.5,0.5", *TINY],
     "--values lists 0.5 twice"),
    (["compare-compression", "bandwidth", "--values", "0.5", "--epsilon",
      "0,0", *TINY], "--epsilon lists 0 twice"),
    # the mismatch is feasible on the config matrix and at 0.3, not at 0.95
    (["compare-compression", "fixed", "--values", "0.3,0.95", "--mismatch",
      "0.1", *TINY], "perturbed element 1.0725 outside [0, 1]"),
    (["compare-compression", "bandwidth", "--values", "0.3,0.95",
      "--mismatch", "0.1", *TINY], "perturbed element 1.0725 outside [0, 1]"),
], ids=["matrix-nan", "sigma-nan", "sigma-inf", "load-inf", "lambda2-range",
        "threshold-one", "threshold-nan", "threshold-zero", "length-one",
        "lambda2-deltas", "length-deltas", "lambda2-threshold",
        "mismatch-threshold", "base-beta-inf", "base-beta-nan",
        "epsilon-negative", "fixed-base-beta-inf", "fixed-base-beta",
        "fixed-epsilon", "fixed-epsilon-zero", "fixed-amplification",
        "lambda2-file-names", "lambda2-repeated", "mismatch-repeated-delta",
        "mismatch-file-names", "length-repeated", "fixed-repeated",
        "bandwidth-repeated-epsilon", "fixed-mismatch-infeasible",
        "bandwidth-mismatch-infeasible"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "run"])
def test_rejected_input_exits_2_and_writes_nothing(tmp_path, capsys, argv,
                                                   message, dry_run):
    out = tmp_path / "rejected"
    code = main([*argv, "--out-dir", str(out),
                 *(["--dry-run"] if dry_run else [])])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_flags_are_the_config_keys(tmp_path, capsys):
    # every ExperimentConfig field and shorthand has its flag, and nothing
    # else does; each key set from a file gives the config its flag gives
    samples = {"spread_factor": "40", "n_users": "24", "load": "0.5",
               "sigma": "0.3", "word_length": "6", "lambda2": "0.6",
               "matrix": "0.7,0.3,0.4,0.6", "variant": "plain_mud",
               "schedule": "BFUS", "blind": "true", "mismatch": "0.05",
               "ensemble": "3", "seed": "11", "max_iters": "9"}
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(samples) == keys | set(SHORTHANDS)
    dests = set(vars(build_parser().parse_args(["simulate"])))
    others = {"command", "func", "config", "out_dir", "workers", "dry_run"}
    assert dests - others == set(samples)
    main(["simulate", "--dry-run"])
    default = capsys.readouterr().out
    for key, value in samples.items():
        config = tmp_path / f"{key}.txt"
        config.write_text(f"{key}={value}\n")
        assert main(["simulate", "--config", str(config), "--dry-run"]) == 0
        from_file = capsys.readouterr().out
        flag = "--" + key.replace("_", "-")
        assert main(["simulate", flag, value, "--dry-run"]) == 0
        assert capsys.readouterr().out == from_file != default


# ---------------------------------------------------------------------------
# sweep


def test_lambda2_sweep_writes_curve_and_point_files(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "lambda2", "--values", "0.0,0.8", *TINY,
                 "--out-dir", str(out)]) == 0
    _, _, rows = read_csv_with_header(out / "sweep_lambda2.csv")
    assert [float(r[0]) for r in rows] == [0.0, 0.8]
    assert float(rows[0][4]) == 1.0  # memoryless point normalizes exactly
    point_files = sorted(p.name for p in out.glob("ber_*.csv"))
    assert len(point_files) == 4  # two arms per eigenvalue
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep-lambda2"
    assert sorted(manifest["outputs"]) == sorted(
        point_files + ["sweep_lambda2.csv"])


def per_arm_outputs(command, values, deltas, out):
    """The CSVs of a paired command, each arm run alone by monte_carlo;
    deltas are the mismatch study's, or the bandwidth protocol's rate
    excesses."""
    config = ExperimentConfig(spread_factor=60, n_users=30, word_length=10,
                              ensemble=2, seed=7)
    reports = []

    def run(cfg):
        reports.append(harness.monte_carlo(cfg))
        return reports[-1]

    out.mkdir()
    if command == "fixed":
        rows = []
        for lam in values:
            matrix = make_symmetric_matrix(lam)
            corr, plain = harness.paired_arms(replace(config, matrix=matrix))
            rows.append((lam, compression_point(matrix)[0], 0.0,
                         fixed_load_comparison(matrix, run(corr).aggregate,
                                               run(plain).aggregate)))
        harness.write_comparison_csv(out / "comparison_fixed.csv", config,
                                     rows)
        return
    if command == "bandwidth":
        rows = []
        for lam in values:
            matrix = make_symmetric_matrix(lam)
            for eps in deltas:
                entropy, _, (full, reduced) = compression_point(
                    matrix, eps, config.spread_factor, config.load)
                corr = replace(config, matrix=matrix, n_users=full)
                plain = replace(config, variant="plain_mud",
                                matrix=iid_matrix(), n_users=reduced)
                rows.append((lam, entropy, eps, bandwidth_expansion_comparison(
                    matrix, eps, run(corr).aggregate,
                    run(plain).aggregate)))
        harness.write_comparison_csv(out / "comparison_bandwidth.csv",
                                     config, rows)
        return
    if command == "lambda2":
        points = harness.normalized_ber_sweep(config, values, run_report=run)
        harness.write_sweep_csv(out / "sweep_lambda2.csv", config, points)
    else:
        points = harness.mismatch_study(config, deltas, values,
                                        run_report=run)
        harness.write_mismatch_csv(out / "sweep_mismatch.csv", config,
                                   points)
    for report in reports:
        cfg = report.config
        harness.write_ber_csv(
            out / f"ber_{cfg.variant}_lam{cfg.matrix.lambda2:g}"
                  f"_L{cfg.word_length}_d{cfg.mismatch:g}.csv", report)


@pytest.mark.parametrize("workers", [None, 1, 2], ids=["unset", "1", "2"])
@pytest.mark.parametrize("argv", [
    ["sweep", "lambda2", "--values", "0,0.5,0.8"],
    # -0.1 assumes an asymmetric matrix, and 0.9 + 0.1 is infeasible
    ["sweep", "mismatch", "--values", "0.5,0.9", "--deltas=-0.1,0.1"],
    ["compare-compression", "fixed", "--values", "0.3,0.8"],
    ["compare-compression", "bandwidth", "--values", "0.5,0.8",
     "--epsilon", "0,0.05,0.1"],
], ids=["lambda2", "mismatch", "fixed", "bandwidth"])
def test_paired_commands_write_the_per_arm_bytes(tmp_path, monkeypatch,
                                                 argv, workers):
    # the joint run writes byte for byte what running every arm alone does
    monkeypatch.delenv("CORRCDMA_WORKERS", raising=False)
    out = tmp_path / "joint"
    flags = [] if workers is None else ["--workers", str(workers)]
    assert main([*argv, *TINY, *flags, "--out-dir", str(out)]) == 0
    values = [float(v) for v in argv[argv.index("--values") + 1].split(",")]
    deltas = [0.0, 0.05, 0.1] if argv[1] == "bandwidth" else [-0.1, 0.1]
    per_arm_outputs(argv[1], values, deltas, tmp_path / "alone")
    written = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    expected = {p.name: p.read_bytes()
                for p in (tmp_path / "alone").glob("*.csv")}
    assert written == expected
    assert len(written) == {"lambda2": 7, "mismatch": 6, "fixed": 1,
                            "bandwidth": 1}[argv[1]]


def tiny_arm(variant="correlated_mud", lam=0.8, **fields):
    """A config TINY pins, on the symmetric matrix of lam."""
    pinned = dict(spread_factor=60, n_users=30, word_length=10, ensemble=2,
                  seed=7)
    return ExperimentConfig(**{**pinned, **fields}, variant=variant,
                            matrix=make_symmetric_matrix(lam))


def plain_arm(lam, **fields):
    return tiny_arm("plain_mud", lam, **fields)


@pytest.mark.parametrize("argv, arms", [
    (["simulate"], [tiny_arm()]),
    (["sweep", "lambda2", "--values", "0,0.5"],
     [tiny_arm(lam=0.0), plain_arm(0.0), tiny_arm(lam=0.5), plain_arm(0.5)]),
    (["sweep", "length", "--values", "16,8,32"],
     [tiny_arm(word_length=length) for length in (16, 8, 32)]),
    # 0.9 + 0.1 is infeasible, so 0.9 runs its plain arm and one other
    (["sweep", "mismatch", "--values", "0.5,0.9", "--deltas=-0.1,0.1"],
     [plain_arm(0.5), tiny_arm(lam=0.5, mismatch=-0.1),
      tiny_arm(lam=0.5, mismatch=0.1), plain_arm(0.9),
      tiny_arm(lam=0.9, mismatch=-0.1)]),
    (["compare-compression", "fixed", "--values", "0.3,0.8"],
     [tiny_arm(lam=0.3), plain_arm(0.3), tiny_arm(lam=0.8), plain_arm(0.8)]),
    # one correlated arm per eigenvalue serves every rate excess, and two
    # excesses at 0.8 round to the same reduced load: 2 + 5 arms, not 12
    (["compare-compression", "bandwidth", "--values", "0.5,0.8",
      "--epsilon", "0,0.05,0.1"],
     [tiny_arm(lam=0.5), *(plain_arm(0.0, n_users=k) for k in (24, 26, 27)),
      tiny_arm(lam=0.8), *(plain_arm(0.0, n_users=k) for k in (14, 15))]),
], ids=["simulate", "lambda2", "length", "mismatch", "fixed", "bandwidth"])
def test_each_command_makes_one_joint_run(tmp_path, monkeypatch, argv, arms):
    # one monte_carlo_arms call over the distinct arms in run order, and
    # no study function planning them again
    calls = []
    real = harness.monte_carlo_arms

    def spy(configs, workers=None):
        calls.append(list(configs))
        return real(configs, workers)

    def study(*args, **kwargs):
        raise AssertionError("the command re-planned through a study")

    monkeypatch.setattr(harness, "monte_carlo_arms", spy)
    monkeypatch.setattr(cli, "monte_carlo_arms", spy)
    for name in ("normalized_ber_sweep", "length_scaling_study",
                 "mismatch_study"):
        monkeypatch.setattr(harness, name, study)
        monkeypatch.setattr(cli, name, study, raising=False)
    assert main([*argv, *TINY, "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == [arms]


@pytest.mark.parametrize("protocol", ["fixed", "bandwidth"])
def test_comparison_reads_the_configured_matrix(tmp_path, protocol):
    # without --values the protocols compare the config's own matrix, also
    # an asymmetric one, not the symmetric matrix of its eigenvalue
    out = tmp_path / protocol
    assert main(["compare-compression", protocol, "--matrix",
                 "0.7,0.3,0.4,0.6", *TINY, "--out-dir", str(out)]) == 0
    _, columns, rows = read_csv_with_header(
        out / f"comparison_{protocol}.csv")
    (row,) = rows
    matrix = TransitionMatrix.from_flat("0.7,0.3,0.4,0.6")
    assert float(row[columns.index("entropy_bits")]) == \
        source_stats(matrix).entropy_bits
    arm = replace(tiny_arm(), matrix=matrix)
    assert float(row[columns.index("p_corr")]) == \
        harness.monte_carlo(arm).aggregate


def test_bandwidth_protocol_runs_the_mismatched_arm(tmp_path):
    out = tmp_path / "bw"
    assert main(["compare-compression", "bandwidth", "--values", "0.8",
                 "--mismatch", "0.1", *TINY, "--out-dir", str(out)]) == 0
    header, columns, rows = read_csv_with_header(
        out / "comparison_bandwidth.csv")
    assert header["mismatch"] == "0.1"
    arm = ExperimentConfig(spread_factor=60, n_users=30, word_length=10,
                           ensemble=2, seed=7, mismatch=0.1)
    p_corr = float(rows[0][columns.index("p_corr")])
    assert p_corr == harness.monte_carlo(arm).aggregate
    assert p_corr != harness.monte_carlo(replace(arm, mismatch=0.0)).aggregate


def test_output_set_refuses_a_name_twice(tmp_path):
    outputs = _OutputSet(tmp_path / "out")
    outputs.target("ber.csv")
    with pytest.raises(ValueError, match="ber.csv would be written twice"):
        outputs.target("ber.csv")
    assert outputs.paths == [tmp_path / "out" / "ber.csv"]


def test_sweep_requires_values(tmp_path, capsys):
    assert main(["sweep", "lambda2", "--out-dir", str(tmp_path / "x")]) == 2
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "lambda2", "--values", "0.5"],
    ["sweep", "mismatch", "--values", "0.5", "--deltas", "0.1"],
    ["compare-compression", "fixed"],
    ["compare-compression", "bandwidth", "--values", "0.5"],
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_paired_commands_reject_zero_sigma_up_front(tmp_path, capsys,
                                                    command, dry_run):
    # these commands run the MUD arms whatever --variant says, so a SUMF
    # variant does not make sigma = 0 valid
    out = tmp_path / "zero"
    code = main([*command, *TINY, "--sigma", "0", "--variant", "plain_sumf",
                 "--out-dir", str(out), *(["--dry-run"] if dry_run else [])])
    assert code == 2
    assert "requires sigma > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["sweep", "lambda2", "--values", "0.5,1.0"],
     "lambda2 must lie in [0, 1), got 1.0"),
    (["sweep", "length", "--values", "5,10"],
     "need at least 3 distinct word lengths"),
    (["sweep", "length", "--values", "5,10,0"],
     "word_length must be >= 1"),
], ids=["lambda2-one", "length-two", "length-zero"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "run"])
def test_sweep_values_are_checked_up_front(tmp_path, capsys, command,
                                           message, dry_run):
    # every sweep value is checked before the first point runs
    out = tmp_path / "values"
    code = main([*command, *TINY, "--out-dir", str(out),
                 *(["--dry-run"] if dry_run else [])])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["sweep", "mismatch", "--values", "0.5,1.5", "--deltas", "0.1"],
     "lambda2 must lie in [-1, 1], got 1.5"),
    (["compare-compression", "fixed", "--values", "0.5,1.5"],
     "lambda2 must lie in [-1, 1], got 1.5"),
    (["compare-compression", "fixed", "--values", "0.5,1.0"],
     "source entropy is zero"),
    (["compare-compression", "bandwidth", "--values", "0.5,0.0",
      "--epsilon", "0.1"], "exceeds 1"),
    (["compare-compression", "bandwidth", "--values", "0.5",
      "--base-beta", "0.005"], "infeasible load"),
], ids=["mismatch-lambda2", "fixed-lambda2", "fixed-entropy",
        "bandwidth-rate", "bandwidth-load"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "run"])
def test_every_point_is_checked_up_front(tmp_path, capsys, command, message,
                                         dry_run):
    # the first point is valid: the command must fail before running it
    out = tmp_path / "points"
    code = main([*command, *TINY, "--out-dir", str(out),
                 *(["--dry-run"] if dry_run else [])])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_length_sweep_keeps_the_config_variant(tmp_path, capsys):
    # the length study runs config.variant, which may be a SUMF at sigma = 0
    assert main(["sweep", "length", "--values", "8,16,32", *TINY,
                 "--sigma", "0", "--variant", "plain_sumf",
                 "--dry-run"]) == 0
    assert "config valid" in capsys.readouterr().out
    out = tmp_path / "len0"
    assert main(["sweep", "length", "--values", "8,16,32", *TINY,
                 "--sigma", "0", "--variant", "plain_sumf",
                 "--out-dir", str(out)]) == 0
    assert (out / "sweep_length.csv").exists()


def test_mismatch_sweep_records_infeasible_points(tmp_path, capsys):
    out = tmp_path / "mis"
    assert main(["sweep", "mismatch", "--values", "0.5,0.9", "--deltas",
                 "0.1", "--spread-factor", "60", "--n-users", "30",
                 "--word-length", "8", "--ensemble", "2",
                 "--out-dir", str(out)]) == 0
    assert "infeasible" in capsys.readouterr().out
    _, _, rows = read_csv_with_header(out / "sweep_mismatch.csv")
    assert rows[0][2] == "true" and rows[1][2] == "false"


def test_length_sweep_reports_fit(tmp_path, capsys):
    out = tmp_path / "len"
    assert main(["sweep", "length", "--values", "8,16,32",
                 "--spread-factor", "60", "--n-users", "30",
                 "--ensemble", "30", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    assert "log-log slope" in capsys.readouterr().out
    header, _, rows = read_csv_with_header(out / "sweep_length.csv")
    assert "slope" in header
    assert [int(r[0]) for r in rows] == [8, 16, 32]


# ---------------------------------------------------------------------------
# compare-compression


def test_fixed_comparison_prints_table(tmp_path, capsys):
    out = tmp_path / "fixed"
    assert main(["compare-compression", "fixed", *TINY, "--ensemble", "4",
                 "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "sigma" in stdout and "ratio" in stdout
    _, columns, rows = read_csv_with_header(out / "comparison_fixed.csv")
    assert rows[0][columns.index("protocol")] == "fixed_load_bsc"


def test_bandwidth_comparison_sweeps_epsilon(tmp_path, capsys):
    out = tmp_path / "bw"
    assert main(["compare-compression", "bandwidth", "--values", "0.8",
                 "--epsilon", "0,0.05", *TINY, "--ensemble", "4",
                 "--out-dir", str(out)]) == 0
    _, columns, rows = read_csv_with_header(out / "comparison_bandwidth.csv")
    assert len(rows) == 2
    assert [float(r[columns.index("epsilon")]) for r in rows] == [0.0, 0.05]
    assert rows[0][columns.index("protocol")] == "bandwidth_expansion"


def test_bandwidth_flags_are_read_by_bandwidth(capsys):
    assert main(["compare-compression", "bandwidth", *TINY, "--epsilon",
                 "0.05", "--base-beta", "0.4", "--amplification", "rate",
                 "--dry-run"]) == 0
    assert "epsilons=[0.05] base_beta=0.4" in capsys.readouterr().out
    assert main(["compare-compression", "fixed", *TINY, "--dry-run"]) == 0
    note = capsys.readouterr().out.splitlines()[-1]
    assert "protocol=fixed" in note and "epsilon" not in note


def test_negative_rate_excess_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "neg"
    code = main(["compare-compression", "bandwidth", "--epsilon", "-0.1",
                 *TINY, "--out-dir", str(out)])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# plotdata


def test_plotdata_emits_dat_and_script(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["simulate", *TINY, "--out-dir", str(run_dir)]) == 0
    plot_dir = tmp_path / "plots"
    assert main(["plotdata", str(run_dir / "ber.csv"),
                 "--out-dir", str(plot_dir)]) == 0
    dat = (plot_dir / "ber.dat").read_text()
    assert dat.startswith("# relative_position ber std_err")
    script = (plot_dir / "ber.gp").read_text()
    assert "plot" in script and "ber.dat" in script
    manifest = json.loads((plot_dir / "manifest.json").read_text())
    assert manifest["command"] == "plotdata"
    assert manifest["config"] is None
    assert sorted(manifest["outputs"]) == ["ber.dat", "ber.gp"]


def test_plotdata_blocks_sweep_inset(tmp_path):
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", "lambda2", "--values", "0.0,0.6", *TINY,
                 "--out-dir", str(sweep_dir)]) == 0
    plot_dir = tmp_path / "plots"
    assert main(["plotdata", str(sweep_dir / "sweep_lambda2.csv"),
                 "--out-dir", str(plot_dir)]) == 0
    dat = (plot_dir / "sweep_lambda2.dat").read_text()
    assert "# lambda2 normalized" in dat
    assert "# correlation_length normalized" in dat
    assert "\n\n\n" in dat  # two gnuplot index blocks


PLOT_HEAD = ('set datafile commentschars "#"\nset xlabel "second eigenvalue"\n'
             'set ylabel "{}"\nset key top right\nplot ')


@pytest.mark.parametrize("name, csv, dat, gp", [
    # the infeasible row is left out; the deltas keep first-seen order
    ("mismatch",
     "lambda2,rel_delta,feasible,reason,p_corr,p_plain,normalized\n"
     "0.5,-0.1,true,,0.1,0.2,0.5\n0.5,0.1,true,,0.12,0.2,0.6\n"
     "0.9,-0.1,true,,0.05,0.1,0.5\n"
     '0.9,0.1,false,"perturbed element 1.0725 outside [0, 1] '
     '(rel_delta=0.1)",nan,nan,nan\n',
     "# rel_delta=-0.1\n# lambda2 normalized\n0.5 0.5\n0.9 0.5\n\n\n"
     "# rel_delta=0.1\n# lambda2 normalized\n0.5 0.6\n",
     PLOT_HEAD.format("normalized BER")
     + '"mismatch.dat" index 0 using 1:2 with linespoints title '
       '"delta=-0.1", \\\n     "mismatch.dat" index 1 using 1:2 with '
       'linespoints title "delta=0.1"\n'),
    ("bandwidth",
     "lambda2,entropy_bits,epsilon,p_corr,p_comp,ratio,rate,protocol,"
     "ensemble,seed\n"
     "0.5,0.81,0.0,0.1,0.2,0.5,0.81,bandwidth_expansion,2,7\n"
     "0.5,0.81,0.05,0.1,0.25,0.4,0.85,bandwidth_expansion,2,7\n"
     "0.8,0.47,0.0,0.05,0.1,0.5,0.47,bandwidth_expansion,2,7\n"
     "0.8,0.47,0.05,0.05,0.125,0.4,0.49,bandwidth_expansion,2,7\n",
     "# protocol=bandwidth_expansion epsilon=0.0\n# lambda2 ratio\n"
     "0.5 0.5\n0.8 0.5\n\n\n"
     "# protocol=bandwidth_expansion epsilon=0.05\n# lambda2 ratio\n"
     "0.5 0.4\n0.8 0.4\n",
     PLOT_HEAD.format("error ratio (detection / compression)")
     + '"bandwidth.dat" index 0 using 1:2 with linespoints title '
       '"bandwidth_expansion eps=0.0", \\\n     "bandwidth.dat" index 1 '
       'using 1:2 with linespoints title "bandwidth_expansion eps=0.05"\n'),
], ids=["mismatch", "bandwidth"])
def test_plotdata_writes_one_block_per_group(tmp_path, name, csv, dat, gp):
    # the grouped families: one data block and plot clause per group
    path = tmp_path / f"{name}.csv"
    path.write_text("# corrcdma=0.1.0\n" + csv)
    out = tmp_path / "plots"
    assert main(["plotdata", str(path), "--out-dir", str(out)]) == 0
    assert (out / f"{name}.dat").read_text() == dat
    assert (out / f"{name}.gp").read_text() == gp


def test_plotdata_schema_mismatch_names_the_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# corrcdma=0\nposition,relative_position,errors,bits,"
                   "wrong,std_err\n0,0.1,1,60,0.1,0.01\n")
    plot_dir = tmp_path / "plots"
    code = main(["plotdata", str(bad), "--out-dir", str(plot_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ber" in err and "wrong" not in err.split("offending")[0]
    assert not plot_dir.exists()


def test_plotdata_missing_input_fails(tmp_path, capsys):
    code = main(["plotdata", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "run"])
def test_plotdata_rejects_inputs_with_one_stem(tmp_path, capsys, dry_run):
    # two inputs named alike would write the same .dat and .gp files
    for name in ("a", "b"):
        assert main(["simulate", *TINY,
                     "--out-dir", str(tmp_path / name)]) == 0
    out = tmp_path / "plots"
    code = main(["plotdata", str(tmp_path / "a" / "ber.csv"),
                 str(tmp_path / "b" / "ber.csv"), "--out-dir", str(out),
                 *(["--dry-run"] if dry_run else [])])
    assert code == 2
    assert "would both write ber.dat and ber.gp" in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_failure_removes_earlier_outputs(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["simulate", *TINY, "--out-dir", str(run_dir)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("# corrcdma=0\nnot_a_column\n1\n")
    plot_dir = tmp_path / "plots"
    code = main(["plotdata", str(run_dir / "ber.csv"), str(bad),
                 "--out-dir", str(plot_dir)])
    assert code == 2
    # the first input's emitted files must not survive the second's failure,
    # nor the output directory the run created for them
    assert not (plot_dir / "ber.dat").exists()
    assert not (plot_dir / "ber.gp").exists()
    assert not plot_dir.exists()


def test_failure_keeps_an_existing_out_dir(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["simulate", *TINY, "--out-dir", str(run_dir)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("# corrcdma=0\nnot_a_column\n1\n")
    plot_dir = tmp_path / "plots"
    plot_dir.mkdir()
    (plot_dir / "notes.txt").write_text("kept")
    code = main(["plotdata", str(run_dir / "ber.csv"), str(bad),
                 "--out-dir", str(plot_dir / "a" / "b")])
    assert code == 2
    # the directories the run made go, the one that was there stays
    assert sorted(p.name for p in plot_dir.iterdir()) == ["notes.txt"]
    assert (plot_dir / "notes.txt").read_text() == "kept"
    code = main(["plotdata", str(run_dir / "ber.csv"), str(bad),
                 "--out-dir", str(plot_dir)])
    assert code == 2
    assert sorted(p.name for p in plot_dir.iterdir()) == ["notes.txt"]
