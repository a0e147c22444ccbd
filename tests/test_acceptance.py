"""Acceptance gates.

Each test covers one numbered criterion, prints a PASS/FAIL line, and pins
its tolerance inline.  Statistical gates run on fixed seeds so outcomes are
deterministic.
"""

import math

import numpy as np
from conftest import fd_riem_grad

from spheregd.cli import main
from spheregd.datagen import gen_instance
from spheregd.descent import (
    BallStop,
    DescentConfig,
    recovery_error,
    riemannian_gd,
    riemannian_gd_block,
)
from spheregd.landscape import (
    enumerate_critical_points,
    fluctuation_probe,
    sep_success_bound,
    volume_curve,
)
from spheregd.objectives import (
    default_sep_eta,
    default_sep_mu,
    dl_objective,
    dl_pop_projected_grad_estimate,
    sep_objective,
)
from spheregd.phase_retrieval import (
    max_step_size,
    pr_decompose,
    pr_descend,
    pr_experiment,
    region_invariance_check,
    sample_ball,
)
from spheregd.sphere import chart_to_sphere, exp_map, sample_uniform_sphere, scale_to_zeta


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_01_gradient_correctness():
    worst = 0.0
    mu = 0.05
    oracle = sep_objective(mu)
    for n in (3, 10, 50):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            q = sample_uniform_sphere(n, rng)
            g = oracle(q)[1]
            gf = fd_riem_grad(lambda qq: oracle(qq)[0], q, h=1e-5)
            worst = max(worst, np.linalg.norm(gf - g) / np.linalg.norm(g))
    rng = np.random.default_rng(104)
    Y = rng.standard_normal((5, 20))
    oracle = dl_objective(Y, mu)
    for _ in range(100):
        q = sample_uniform_sphere(5, rng)
        _, g = oracle(q)
        gf = fd_riem_grad(lambda qq: oracle(qq)[0], q, h=1e-5)
        worst = max(worst, np.linalg.norm(gf - g) / np.linalg.norm(g))
    _report("1 gradient-correctness", worst <= 1e-6, f"worst rel err {worst:.2e}")


def test_02_critical_points():
    ok = True
    detail = []
    for n in range(2, 9):
        pts = enumerate_critical_points(n)
        ok &= len(pts) == 3**n - 1
        oracle = sep_objective(default_sep_mu(n))
        worst = max(np.linalg.norm(oracle(cp.point)[1]) for cp in pts)
        ok &= worst <= 1e-10
        counts = {"minimizer": 0, "saddle": 0, "maximizer": 0}
        for cp in pts:
            counts[cp.kind] += 1
        expect = (2 * n, 3**n - 1 - 2 * n - 2**n, 2**n)
        got = (counts["minimizer"], counts["saddle"], counts["maximizer"])
        ok &= got == expect
        detail.append(f"n={n} worst grad {worst:.1e} counts {got}")
    _report("2 critical-points", ok, "; ".join(detail[-2:]))


def test_03_descent_inequality():
    n, mu, eta = 10, 0.05, 0.02  # eta < mu/2
    q0 = [sample_uniform_sphere(n, np.random.default_rng(200 + seed)) for seed in range(20)]
    cfg = DescentConfig(eta=eta, max_iters=3000, stop_grad_tol=1e-8)
    worst_margin = np.inf
    for tr in riemannian_gd_block(sep_objective(mu), q0, cfg, traced=True):
        lhs = tr.f[0] - tr.f[-1]
        rhs = 0.5 * eta * float(np.sum(tr.grad_norm[:-1] ** 2))
        worst_margin = min(worst_margin, lhs - rhs)
    _report("3 descent-inequality", worst_margin >= -1e-10, f"min margin {worst_margin:.3e}")


def test_04_zeta_growth():
    n = 10
    mu = default_sep_mu(n)
    eta = default_sep_eta(n, mu)
    floor = mu * np.log(1.0 / mu)
    oracle = sep_objective(mu)
    rng = np.random.default_rng(300)
    ratios = []
    violations = 0
    for _ in range(20):
        mags = rng.uniform(0.35, 1.0, size=n - 1)
        signs = rng.choice([-1.0, 1.0], size=n - 1)
        q = chart_to_sphere(scale_to_zeta(mags * signs, 0.1))
        for _ in range(2000):
            _, g = oracle(q)
            q_next = exp_map(q, -eta * g)
            ab = np.sort(np.abs(q))
            z = ab[-1] / ab[-2] - 1.0
            if 0.1 <= z < 1.0 and ab[:-1].min() >= floor:
                ab2 = np.sort(np.abs(q_next))
                z2 = ab2[-1] / ab2[-2] - 1.0
                ratios.append(z2 / z)
                if z2 <= z:
                    violations += 1
            q = q_next
            if z >= 1.0:
                break
    factor = float(np.exp(np.mean(np.log(ratios))))
    ok = violations == 0 and factor > 1.0 and len(ratios) > 500
    _report(
        "4 zeta-growth",
        ok,
        f"{len(ratios)} qualifying steps, {violations} violations, fitted factor {factor:.6f}",
    )


def test_05_volume_bound():
    zetas = [0.0, 0.1, 0.2, 0.5]
    N = 1_000_000
    ok = True
    detail = []
    for n in (3, 10, 50):
        fr = volume_curve(n, zetas, N, np.random.default_rng(400 + n))
        for z, f in zip(zetas, fr):
            se = math.sqrt(max(f * (1 - f), 1e-12) / N)
            if z == 0.0:
                ok &= abs(f - 1.0 / (2 * n)) <= 3.0 * se
            bound = 1.0 / (2 * n) - z * math.log(n) / n
            if bound > 0.0:
                ok &= f >= bound - 3.0 * se
            detail.append(f"n={n},z={z}:{f:.4f}")
    _report("5 volume-bound", ok, " ".join(detail))


def test_06_separable_convergence():
    budgets = {10: 12_000, 50: 40_000}
    ok = True
    detail = []
    for n in (10, 50):
        mu = default_sep_mu(n)
        eta = default_sep_eta(n, mu)
        r = mu * np.log(1.0 / mu)
        cfg = DescentConfig(
            eta=eta, max_iters=budgets[n], stop_ball=BallStop(norm="linf", radius=r)
        )
        q0 = [sample_uniform_sphere(n, np.random.default_rng(1000 * n + seed)) for seed in range(200)]
        traces = riemannian_gd_block(sep_objective(mu), q0, cfg)
        succ = sum(tr.status == "ball_entered" for tr in traces)
        frac = succ / 200.0
        se = math.sqrt(max(frac * (1 - frac), 1.0 / 200) / 200)
        for zeta0 in (0.05, 0.1):
            ok &= frac >= sep_success_bound(n, zeta0) - 3.0 * se
        detail.append(f"n={n} success {frac:.3f}")

    # escape time out of the low-margin band grows at most linearly in log(1/zeta0)
    n = 10
    mu = default_sep_mu(n)
    eta = default_sep_eta(n, mu)
    r = mu * np.log(1.0 / mu)
    cfg = DescentConfig(eta=eta, max_iters=10_000, stop_ball=BallStop(norm="linf", radius=r))
    medians = []
    for zeta0 in (0.2, 0.02, 0.002):
        q0 = []
        for seed in range(50):
            rng = np.random.default_rng(7000 + seed)
            d = rng.uniform(0.25, 1.0, size=n - 1) * rng.choice([-1.0, 1.0], size=n - 1)
            q0.append(chart_to_sphere(scale_to_zeta(d, zeta0)))
        exits = []
        for tr in riemannian_gd_block(sep_objective(mu), q0, cfg, traced=True):
            above = np.nonzero(tr.zeta >= 1.0)[0]
            exits.append(int(above[0]) if above.size else np.nan)
        medians.append(float(np.nanmedian(exits)))
    d1 = medians[1] - medians[0]
    d2 = medians[2] - medians[1]
    linear_ok = d2 <= 1.6 * max(d1, 1.0) + 10.0
    ok &= linear_ok
    detail.append(f"exit medians {medians}")
    _report("6 separable-convergence", ok, "; ".join(detail))


def test_07_dl_recovery():
    n, p, theta, mu, eta = 10, 5000, 0.25, 0.01, 0.01
    radius = math.sqrt(1.0 - 0.99**2)
    succ = 0
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        inst = gen_instance(n, p, theta, "random_orthogonal", rng)
        q0 = sample_uniform_sphere(n, rng)
        oracle = dl_objective(inst.Y, mu)
        cfg = DescentConfig(
            eta=eta,
            max_iters=6000,
            stop_ball=BallStop(norm="l2", radius=radius),
        )
        tr = riemannian_gd(oracle, q0, cfg, target_basis=inst.A0, traced=False)
        _, err = recovery_error(tr.q_final, inst)
        succ += (1.0 - err * err / 2.0) >= 0.99  # max |<a_i, q>| >= 0.99
    frac = succ / 50.0
    _report("7 dl-recovery", frac >= 0.9, f"success fraction {frac:.2f}")


def test_08_population_projection():
    n, theta, mu = 10, 0.25, 0.005
    rng = np.random.default_rng(600)
    ok = True
    min_sig = np.inf
    mono_bad = 0
    for _ in range(10):
        d = rng.standard_normal(n - 1)
        w = scale_to_zeta(d, 0.5)
        i = int(np.argmax(np.abs(w)))
        mean, se = dl_pop_projected_grad_estimate(w, i, mu, theta, 100_000, rng)
        min_sig = min(min_sig, mean / se)
        lo, _ = dl_pop_projected_grad_estimate(scale_to_zeta(d, 0.25), i, mu, theta, 100_000, rng)
        hi, _ = dl_pop_projected_grad_estimate(scale_to_zeta(d, 1.0), i, mu, theta, 100_000, rng)
        mono_bad += hi <= lo
    ok = min_sig >= 4.0 and mono_bad == 0
    _report(
        "8 population-projection",
        ok,
        f"min significance {min_sig:.1f} sigma, monotonicity violations {mono_bad}/10",
    )


def test_09_concentration_scaling():
    n, theta, mu = 10, 0.25, 0.01
    rng = np.random.default_rng(700)
    w = scale_to_zeta(rng.standard_normal(n - 1), 0.5)
    i = int(np.argmax(np.abs(w)))
    rows = fluctuation_probe(
        w, i, mu, theta, [100, 1000, 10_000, 100_000], 20, rng, ref_samples=1_000_000
    )
    slope = float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0])
    _report("9 concentration-scaling", -0.65 <= slope <= -0.35, f"log-log slope {slope:.3f}")


def test_10_phase_retrieval():
    c = 1.0 / 35.0
    ok = True
    detail = []

    # exact recurrences along forced 1000-step trajectories
    for n in (2, 8):
        x = np.zeros(n, dtype=complex)
        x[0] = 1.0
        eta = 0.95 * max_step_size(x, c)
        rng = np.random.default_rng(800 + n)
        z0 = None
        while z0 is None:
            cand = sample_ball(n, 1.0 / math.sqrt(2.0), rng)
            if pr_decompose(cand, x).zeta >= 0.02:
                z0 = cand
        run = pr_descend(z0, x, eta, c, 1000, stop_at_target=False)
        ok &= run.max_zeta_dev <= 1e-10 and run.max_w_dev <= 1e-10
        detail.append(f"n={n} devs ({run.max_zeta_dev:.1e},{run.max_w_dev:.1e})")

    # region invariance on random compliant states
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    eta = 0.99 * max_step_size(x, c)
    union_bad, s1_bad = region_invariance_check(x, c, eta, 100_000, np.random.default_rng(801))
    ok &= union_bad == 0 and s1_bad == 0
    detail.append(f"invariance violations {union_bad}+{s1_bad}")

    # conditioned starts all converge inside the budget; the failure band is
    # no bigger than the analytic envelope
    n = 8
    eta = 0.95 * max_step_size(x, c)
    zeta0 = 0.1 / math.sqrt(2.0 * n)
    exp = pr_experiment(n, x, eta, c, zeta0, np.random.default_rng(802).spawn(100))
    ok &= exp.success_fraction == 1.0
    se = math.sqrt(0.25 / exp.total_draws)
    ok &= exp.band_fraction <= exp.band_bound + 3.0 * se
    detail.append(
        f"success {exp.success_fraction:.2f}, band {exp.band_fraction:.3f} <= {exp.band_bound:.3f}"
    )
    _report("10 phase-retrieval", ok, "; ".join(detail))


def test_11_reproducibility(tmp_path):
    cfg_text = (
        "problem = separable\nn = 6\nnum_seeds = 3\nseed_base = 11\n"
        "max_iters = 4000\nzeta0 = 0.1\nsave_traces = true\n"
    )
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run-sep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    ok = files1 == files2
    for name in files1:
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report("11 reproducibility", ok, f"{len(files1)} files byte-identical")
