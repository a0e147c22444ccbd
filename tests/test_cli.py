import re

import numpy as np
import pytest

from spheregd.cli import (
    EXIT_GATE,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    config_hash,
    main,
    parse_config,
    resolve_config,
)

SEP_CFG = """\
# small separable batch
problem = separable
n = 6
num_seeds = 3
seed_base = 11
max_iters = 4000
zeta0 = 0.1
save_traces = true
"""

DL_CFG = """\
problem = dictionary
n = 6
p = 200
theta = 0.25
eta = 0.01
num_seeds = 3
seed_base = 5
max_iters = 3000
save_traces = true
"""

PR_CFG = """\
problem = phase_retrieval
n = 6
num_seeds = 4
seed_base = 3
max_iters = 10000
zeta0 = 0.03
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_and_resolve(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.cfg", SEP_CFG))
    assert cfg.problem == "separable" and cfg.n == 6 and cfg.save_traces
    rcfg = resolve_config(cfg)
    assert rcfg.mu > 0 and rcfg.eta > 0 and rcfg.r_or_s > 0
    # hash ignores presentation keys
    from dataclasses import replace

    assert config_hash(rcfg) == config_hash(replace(rcfg, out_dir="elsewhere"))


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "bad.cfg", SEP_CFG + "typo_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_missing_required_rejected(tmp_path):
    path = _write(tmp_path, "bad.cfg", "problem = separable\nn = 5\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_bad_values_rejected(tmp_path):
    base = "problem = dictionary\nn = 6\nnum_seeds = 1\nseed_base = 0\nmax_iters = 10\n"
    for extra in ("p = 0\ntheta = 0.2\n", "p = 100\ntheta = 0.7\n"):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "bad.cfg", base + extra))


def test_cli_config_error_exit(tmp_path):
    path = _write(tmp_path, "bad.cfg", SEP_CFG + "zzz = 1\n")
    assert main(["run-sep", "--config", path]) == EXIT_USAGE


def test_cli_wrong_problem_for_command(tmp_path):
    path = _write(tmp_path, "a.cfg", SEP_CFG)
    assert main(["run-dl", "--config", path]) == EXIT_USAGE


@pytest.mark.parametrize(
    "edit, argv",
    [
        (("seed_base = 11", "seed_base = -1"), ["run-sep"]),
        (None, ["run-sep", "--seed", "-1"]),
        (None, ["run-sep", "--jobs", "0"]),
        (None, ["run-sep", "--jobs", "-3"]),
        (("zeta0 = 0.1", "zeta0 = 0.1\neta = nan"), ["run-sep"]),
        (("zeta0 = 0.1", "zeta0 = inf"), ["run-sep"]),
        (None, ["probe-volume", "--n", "3", "--zeta", "0", "--samples", "5"]),
        (None, ["probe-volume", "--n", "1", "--zeta", "0", "--samples", "20000"]),
        (None, ["probe-critical", "--n", "20"]),
        (None, ["probe-fluctuation", "--n", "6", "--p-list", "1000,100"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "0,0.5"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "a"]),
        (None, ["probe-projection", "--n", "4", "--mu", "0", "--samples", "2"]),
        (None, ["probe-volume", "--n", "3", "--zeta", "-5", "--samples", "10000"]),
        (None, ["probe-volume", "--n", "3", "--zeta", "nan", "--samples", "10000"]),
        (None, ["probe-fluctuation", "--n", "4", "--trials", "0", "--p-list", "10"]),
        (None, ["probe-projection", "--n", "6", "--samples", "0"]),
        (None, ["probe-projection", "--n", "6", "--zetas", "100", "--samples", "2"]),
        (None, ["probe-pr-identities", "--n", "0"]),
        (None, ["probe-pr-identities", "--n", "4", "--steps", "-1"]),
    ],
    ids=[
        "seed_base-negative",
        "seed-override-negative",
        "jobs-0",
        "jobs-negative",
        "eta-nan",
        "zeta0-inf",
        "volume-few-samples",
        "volume-n1",
        "critical-n-over-guard",
        "fluctuation-p-list-decreasing",
        "projection-zeta-zero",
        "projection-zeta-not-a-number",
        "projection-mu-zero",
        "volume-zeta-negative",
        "volume-zeta-nan",
        "fluctuation-trials-0",
        "projection-samples-0",
        "projection-no-coordinate-over-floor",
        "pr-identities-n0",
        "pr-identities-steps-negative",
    ],
)
def test_invalid_input_exits_1_with_one_line(tmp_path, capsys, edit, argv):
    if argv[0] == "run-sep":
        text = SEP_CFG if edit is None else SEP_CFG.replace(*edit)
        argv = argv + ["--config", _write(tmp_path, "a.cfg", text), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spheregd: ")


@pytest.mark.parametrize(
    "command, extra, named",
    [
        ("run-sep", "p = 100", "'p'"),
        ("run-sep", "theta = 0.25", "'theta'"),
        ("run-sep", "dictionary_mode = identity", "'dictionary_mode'"),
        ("run-sep", "c = 0.1", "'c'"),
        ("run-dl", "zeta0 = 0.2", "'zeta0'"),
        ("run-dl", "c = 0.1", "'c'"),
        ("run-pr", "mu = 0.01", "'mu'"),
        ("run-pr", "p = 100", "'p'"),
        ("run-pr", "theta = 0.25", "'theta'"),
        ("run-pr", "r_or_s = 0.9", "'r_or_s'"),
        ("run-pr", "dictionary_mode = identity", "'dictionary_mode'"),
        ("run-pr", "save_traces = true", "'save_traces'"),
        ("run-pr", "--save-traces", "'save_traces'"),
        ("run-pr", "--jobs 2", "--jobs"),
    ],
    ids=[
        "sep-p", "sep-theta", "sep-dictionary_mode", "sep-c", "dl-zeta0", "dl-c", "pr-mu", "pr-p",
        "pr-theta", "pr-r_or_s", "pr-dictionary_mode", "pr-save_traces", "pr-save-traces-flag", "pr-jobs-2",
    ],
)
def test_unread_key_rejected(tmp_path, capsys, command, extra, named):
    text = {"run-sep": SEP_CFG, "run-dl": DL_CFG, "run-pr": PR_CFG}[command]
    argv = [command, "--out", str(tmp_path / "o")]
    if extra.startswith("--"):
        argv += extra.split()
    else:
        text += extra + "\n"
    assert main(argv + ["--config", _write(tmp_path, "a.cfg", text)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spheregd: ") and named in err[0]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_run_sep_outputs_and_traces(tmp_path):
    cfg = _write(tmp_path, "a.cfg", SEP_CFG)
    out = str(tmp_path / "out")
    assert main(["run-sep", "--config", cfg, "--out", out, "--check"]) == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "config_hash = " in summary
    assert "seed_base = 11" in summary
    trace = (tmp_path / "out" / "trace_seed11.csv").read_text().splitlines()
    assert trace[0].startswith("# config_hash=")
    assert trace[3] == "iter,f,grad_norm,zeta,w_inf,dist_target"


@pytest.mark.parametrize("command, text", [("run-sep", SEP_CFG), ("run-dl", DL_CFG)], ids=["sep", "dl"])
def test_run_jobs_equivalence(tmp_path, command, text):
    cfg = _write(tmp_path, "a.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o1")]) == EXIT_OK
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o2"), "--jobs", "2"]) == EXIT_OK
    s1 = (tmp_path / "o1" / "summary.txt").read_text()
    s2 = (tmp_path / "o2" / "summary.txt").read_text()
    assert [l for l in s1.splitlines() if not l.startswith("out_dir")] == [
        l for l in s2.splitlines() if not l.startswith("out_dir")
    ]


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[lines.index("[runs]") + 2 :]


@pytest.mark.parametrize(
    "command, text", [("run-sep", SEP_CFG), ("run-dl", DL_CFG), ("run-pr", PR_CFG)], ids=["sep", "dl", "pr"]
)
def test_batch_row_matches_one_seed_batch(tmp_path, command, text):
    # row seed_base + k of a batch is the one-seed batch at --seed seed_base + k
    one = _write(tmp_path, "one.cfg", re.sub(r"num_seeds = \d+", "num_seeds = 1", text))
    assert main([command, "--config", _write(tmp_path, "a.cfg", text), "--out", str(tmp_path / "all")]) == EXIT_OK
    rows = _rows(tmp_path / "all" / "summary.txt")
    assert len(rows) > 1
    for row in rows:
        seed = row.split(",", 1)[0]
        out = tmp_path / f"seed{seed}"
        assert main([command, "--config", one, "--seed", seed, "--out", str(out)]) == EXIT_OK
        assert _rows(out / "summary.txt") == [row]


def test_run_dl_check_gate_fails_on_tiny_budget(tmp_path):
    cfg = _write(
        tmp_path,
        "dl.cfg",
        "problem = dictionary\nn = 6\np = 200\ntheta = 0.25\nmu = 0.01\neta = 0.01\n"
        "num_seeds = 2\nseed_base = 0\nmax_iters = 3\n",
    )
    assert main(["run-dl", "--config", cfg, "--out", str(tmp_path / "o"), "--check"]) == EXIT_GATE


def test_run_pr(tmp_path):
    cfg = _write(tmp_path, "pr.cfg", PR_CFG)
    out = str(tmp_path / "pro")
    assert main(["run-pr", "--config", cfg, "--out", out, "--check"]) == EXIT_OK
    summary = (tmp_path / "pro" / "summary.txt").read_text()
    assert "band_fraction" in summary and "max_zeta_dev" in summary


def test_probe_volume(tmp_path, capsys):
    assert main(["probe-volume", "--n", "3", "--zeta", "0", "--samples", "20000"]) == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()[-2:]
    assert header.startswith("n,zeta,samples,fraction")
    frac = float(row.split(",")[3])
    assert abs(frac - 1.0 / 6.0) < 0.02


def test_probe_critical(tmp_path):
    out = str(tmp_path / "crit")
    assert main(["probe-critical", "--n", "3", "--out", out]) == EXIT_OK
    lines = (tmp_path / "crit" / "probe-critical.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 26
    assert "# count_minimizer=6" in lines
    assert "# count_saddle=12" in lines
    assert "# count_maximizer=8" in lines


def test_probe_pr_identities(capsys):
    assert main(["probe-pr-identities", "--n", "4", "--steps", "500"]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[-1]
    steps, zdev, wdev, _ = row.split(",")
    assert steps == "500"  # the recurrences are checked over the full run, not up to the target
    assert float(zdev) <= 1e-10 and float(wdev) <= 1e-10


def test_probe_projection(capsys):
    assert main(
        ["probe-projection", "--n", "6", "--mu", "0.01", "--zetas", "0.2,0.5", "--samples", "20"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "# fitted_c=" in out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert all(float(r.split(",")[3]) > 0.0 for r in rows)


def test_probe_fluctuation(capsys):
    assert main(
        [
            "probe-fluctuation",
            "--n", "6",
            "--theta", "0.25",
            "--mu", "0.01",
            "--p-list", "100,1000",
            "--trials", "5",
        ]
    ) == EXIT_OK
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 2
