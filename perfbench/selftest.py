"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A short run of every workload, with --trace 0 and 1, prints exactly the
   metrics BENCHMARK.json names, with their units, and passes its checks.
2. Corrupted outputs are caught: a flipped status, a reference mismatch and
   a missing trace row each raise the failed count.
3. A hook whose target is gone yields absent metrics, not a crash.
Exits nonzero on the first failed test.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import ROOT, SRC, WORK
from tracer import Tracer, install, layer_metrics
from workloads import SHORT_WORKLOADS, Tally, check_batch, run_round, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_short_runs(bench):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", "0",
                   "--seconds", "0.1", "--trace", str(trace), "--short"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            check(out.returncode == 0, f"{w['name']} --trace {trace} exits 0")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, "result has exactly its four keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w['name']} --trace {trace} passes its checks ({res['attempted']} operations)")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w['name']} --trace {trace} prints every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{w['name']} --trace {trace} metric values are numbers")


def _batch(cli, workload, workdir, shape_index, extra=()):
    """Run one batch of one shape at seed 0; returns (shape, out dir, rc, seeds)."""
    configs = write_configs(workload, workdir)
    shape = workload.shapes[shape_index]
    out = os.path.join(workdir, shape.label)
    argv = [shape.command, "--config", configs[shape.label], "--seed", "0", "--out", out, *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return shape, out, rc, list(range(shape.width))


def _failed(shape, out, rc, seeds, reference):
    tally = Tally()
    check_batch(tally, shape, out, rc, seeds, reference)
    return tally.failed


def test_corruption(cli, workdir):
    shape, out, rc, seeds = _batch(cli, SHORT_WORKLOADS["sep_batch"], workdir, 0)
    check(_failed(shape, out, rc, seeds, {}) == 0, "an intact summary has no failures")
    ref = {shape.label: {"0": ["ball_entered", 1]}}
    check(_failed(shape, out, rc, seeds, ref) == 1, "a reference mismatch counts as failed")
    path = os.path.join(out, "summary.txt")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(",ball_entered", ",max_iters", 1))
    check(_failed(shape, out, rc, seeds, {}) == 1, "a flipped status counts as failed")

    shape, out, rc, seeds = _batch(cli, SHORT_WORKLOADS["traced_batch"], workdir, 0, ("--save-traces",))
    check(_failed(shape, out, rc, seeds, {}) == 0, "intact traces have no failures")
    path = os.path.join(out, f"trace_seed{seeds[-1]}.csv")
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines[:-1])
    check(_failed(shape, out, rc, seeds, {}) == 1, "a missing trace row counts as failed")


def test_absent_hook(cli, workdir):
    import spheregd.descent as descent

    workload = SHORT_WORKLOADS["sep_batch"]
    configs = write_configs(workload, workdir)
    exp_map = descent.exp_map
    del descent.exp_map  # as if a refactor had removed the name
    tracer = Tracer()
    try:
        install(tracer)
    finally:
        tracer.unpatch()
        descent.exp_map = exp_map
    metrics = layer_metrics(tracer)
    check(metrics["sphere.exp_map.calls"][0] is None and metrics["descent.iterations"][0] == 0,
          "a missing hook target gives absent metrics, others stay")
    tally = run_round(workload, 0, configs, workdir, cli.main, {})
    check(tally.failed == 0 and descent.exp_map is exp_map, "unpatching restores the package")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    test_short_runs(bench)
    sys.path.insert(0, SRC)
    from spheregd import cli

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        test_corruption(cli, workdir)
        test_absent_hook(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
