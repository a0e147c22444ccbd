"""perfbench/tracer.py replaces spheregd names where their callers look them
up.  A hook whose name is gone is skipped and its metrics read null, so a
renamed or unused name would leave a traced benchmark round without a result;
these tests keep every hook resolving and every patched name restored."""

import importlib.util
import math
from pathlib import Path

from spheregd import cli

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

SEP_CFG = "problem = separable\nn = 5\nnum_seeds = 3\nseed_base = 2\nmax_iters = 4000\n"
DL_CFG = "problem = dictionary\nn = 5\np = 300\ntheta = 0.25\nmu = 0.01\neta = 0.01\nnum_seeds = 2\nseed_base = 4\nmax_iters = 4000\n"
PR_CFG = "problem = phase_retrieval\nn = 8\nnum_seeds = 20\nseed_base = 6\nmax_iters = 1000000\nzeta0 = 0.025\n"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves_and_unpatch_restores_it(tmp_path, capsys):
    tr = _load_tracer()

    class CountingTracer(tr.Tracer):
        hooks = 0

        def patch(self, *args, **kwargs):
            self.hooks += 1
            super().patch(*args, **kwargs)

    tracer = CountingTracer()
    patched = []
    try:
        tr.install(tracer)
        patched = list(tracer._patched)
        assert tracer.absent == set()
        assert len(patched) == tracer.hooks
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in patched)
        # a traced batch of each problem, the identity probe and the fluctuation
        # probe, whose slopes nothing else traced calls: every per-layer
        # metric is a number, and stdout, where perfbench prints its result
        # line, holds only the paths the commands wrote
        for command, text in (("run-sep", SEP_CFG), ("run-dl", DL_CFG), ("run-pr", PR_CFG)):
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(text)
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / command), "--jobs", "1"]
            assert cli.main(argv + ["--save-traces"] * (command != "run-pr")) == cli.EXIT_OK
        argv = ["probe-pr-identities", "--n", "4", "--steps", "100", "--out", str(tmp_path / "probe")]
        assert cli.main(argv) == cli.EXIT_OK
        argv = ["probe-fluctuation", "--n", "4", "--p-list", "10,20", "--trials", "2", "--out", str(tmp_path / "fl")]
        assert cli.main(argv) == cli.EXIT_OK
        metrics = tr.layer_metrics(tracer)
        assert tracer.absent == set()
        assert {k: v for k, (v, _) in metrics.items() if not (isinstance(v, (int, float)) and math.isfinite(v))} == {}
        assert metrics["phase_retrieval.pr_descend.calls"][0] == 1
        assert metrics["phase_retrieval.pr_descend.iterations"][0] == 100
        assert metrics["phase_retrieval.accept_ratio"][0] > 0.0
        assert metrics["objectives.dl_projected_grad.calls"][0] == 4  # one slope per (p, trial)
        # a layer the batches reach past its hooked name (say, an objective factory bound
        # before the hook went in) reads 0 rather than null
        for name in ("objectives.sep_oracle", "objectives.dl_oracle", "datagen.gen_instance"):
            assert metrics[name + ".calls"][0] > 0
        assert metrics["descent.riemannian_gd.calls"][0] > 0
        assert metrics["objectives.log_cosh.calls"][0] > 0  # the separable oracle's values
        assert metrics["cli.write_trace_csv.calls"][0] == 5  # 3 separable and 2 dictionary seeds
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(Path(line).is_file() for line in lines)
    finally:
        tracer.unpatch()
    assert all(getattr(mod, attr) is orig for mod, attr, orig in patched)
