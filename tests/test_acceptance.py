"""End-to-end acceptance checks.

Each test here covers one advertised guarantee of the package and prints a
single [acceptance] PASS/FAIL line with the measured numbers, then asserts.
Run with plain pytest; the lines appear on the live terminal even when the
suite is green.
"""

import json
import math
import sys
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qrelay import circuit
from qrelay.analytics import (ChainConfig, _alpha_x_at_snr,
                              noise_single_relay, optimal_positions,
                              range_enhancement, raw_rate, snr_n_relays,
                              solve_range_alpha_x)
from qrelay.chain import run_chain, sample_chain
from qrelay.fockspace import (LinearModeTransform, ModeBasis, PhotonicState,
                              apply_transform, basis_rotate_fs)
from qrelay.throughput import cutoff_alpha_x, key_fraction, throughput_curve

from oracles import (amplitude, configs_up_to, coordinate_descent,
                     dense_apply, haar_unitary, random_qubits)


def announce(capsys, name: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        tail = f": {detail}" if detail else ""
        print(f"\n[acceptance] {'PASS' if ok else 'FAIL'} {name}{tail}")


def test_criterion_01_device_contract(capsys):
    t0 = time.perf_counter()
    worst_succ = 0.0
    worst_fid = 0.0
    for a, b in random_qubits(100, seed=20260815):
        rep = circuit.qnd_measure(a, b)
        worst_succ = max(worst_succ, abs(rep.success_probability - 0.5))
        for o in rep.outcomes:
            worst_fid = max(worst_fid, abs(o.fidelity - 1.0))
    p_vac = circuit.gate_probability(0)
    p_two = circuit.gate_probability(2)
    table = circuit.derive_feed_forward_table()
    want_table = {("F", "F"): False, ("S", "S"): False,
                  ("F", "S"): True, ("S", "F"): True}
    elapsed = time.perf_counter() - t0
    ok = (worst_succ <= 1e-12 and worst_fid <= 1e-12 and p_vac == 0.0
          and p_two == 0.0 and table == want_table and elapsed < 1.0)
    announce(capsys, "device contract", ok,
             f"|P-1/2| <= {worst_succ:.2e}, |F-1| <= {worst_fid:.2e}, "
             f"vacuum gate {p_vac!r}, two-photon gate {p_two!r}, "
             f"flip table {'ok' if table == want_table else table}, "
             f"{elapsed:.2f} s")
    assert worst_succ <= 1e-12
    assert worst_fid <= 1e-12
    assert p_vac == 0.0 and p_two == 0.0
    assert table == want_table
    assert elapsed < 1.0


def test_criterion_02_encoder_projection(capsys):
    from qrelay.fockspace import H, V

    worst = 0.0
    cases = [(0.6, 0.8), (1 / math.sqrt(2), 1j / math.sqrt(2))]
    cases += random_qubits(6, seed=7)
    for a, b in cases:
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        branches = circuit.encoder_postselect(a, b)
        assert sorted(ch for ch, _, _ in branches) == ["F", "S"]
        for ch, prob, cond in branches:
            sign = 1.0 if ch == "F" else -1.0
            worst = max(worst, abs(prob - 0.25))
            worst = max(worst,
                        abs(amplitude(cond, {("1", H): 1, ("2", H): 1}) - a))
            worst = max(worst,
                        abs(amplitude(cond, {("1", V): 1, ("2", V): 1})
                            - sign * b))
            worst = max(worst, abs(cond.norm() - 1.0))
    ok = worst <= 1e-12
    announce(capsys, "encoder projection", ok,
             f"branch prob and conditional amplitudes within {worst:.2e} "
             f"of (a HH +- b VV)/norm over {len(cases)} qubits")
    assert ok


def test_criterion_03_analytic_self_consistency(capsys):
    t0 = time.perf_counter()
    # direct transmission, N = 0, takes no relay efficiency
    exact_zero = all(
        snr_n_relays(ax, 0, 0.5, 1e-5)
        == snr_n_relays(ax, 0, sys.float_info.min, 1e-5)
        for ax in np.linspace(0.0, 40.0, 17))
    worst_one = max(
        abs(snr_n_relays(ax, 1, 0.5, 1e-5)
            / (math.sqrt(0.5) * math.exp(-ax / 2) / 4e-5) - 1.0)
        for ax in np.linspace(0.1, 40.0, 17))
    rng = np.random.default_rng(20260815)
    worst_pos = 0.0
    for _ in range(20):
        x = float(rng.uniform(20.0, 400.0))
        eta = float(rng.uniform(0.3, 0.9))
        cfg = ChainConfig(distance_km=x, n_relays=1, eta=eta)
        analytic = optimal_positions(cfg)[0]
        numeric = coordinate_descent(
            cfg, lambda p: noise_single_relay(p[0], x - p[0], cfg))[0]
        worst_pos = max(worst_pos, abs(numeric - analytic) / max(1.0, x))
    elapsed = time.perf_counter() - t0
    ok = (exact_zero and worst_one <= 1e-13 and worst_pos <= 1e-6
          and elapsed < 5.0)
    announce(capsys, "analytic self-consistency", ok,
             f"N=0 identity exact: {exact_zero}, N=1 identity rel dev "
             f"{worst_one:.2e}, placement |num-closed| <= {worst_pos:.2e} x "
             f"over 20 random configs, {elapsed:.2f} s")
    assert exact_zero
    assert worst_one <= 1e-13
    assert worst_pos <= 1e-6
    assert elapsed < 5.0


def test_criterion_04_snr_curve_reproduction(capsys):
    # exact chain vs the paper's first-order curve on the published grid.
    # With the relays at the interior optimum (N segments of length d, the
    # last one longer by ln(1/eta)/alpha, t = e^(-alpha d)) the exact noise is
    #   p_n = 2 p_d (N+1) (eta t)^N + 2 p_d^2 N (N+1) (eta t)^(N-1) + O(p_d^3).
    # The first term, p_n1, gives the curve S = eta t / (2 p_d (N+1)). The
    # second counts dark counts in slots a relay opened on a false gate, so
    # the remainder g = (p_n - p_n1) / p_n1 is N / (2 (N+1) S) to leading
    # order, exactly 1/(4S) at N = 1, and every higher term adds to it. Near
    # the S ~ 0.1 floor g is not small, so the exact SNR itself leaves the 5%
    # band below S ~ 5-8 for N = 1..4. The test therefore checks
    #   (a) the first-order part p_s/p_n1 of the exact chain against the
    #       curve, in the 5% band;
    #   (b) g >= N/(2(N+1)S) everywhere, with equality at N = 1 (and g = 0
    #       at N = 0, a bare fiber);
    #   (c) g = N/(2(N+1)S) to 5% where the p_d^2 term dominates: S >= 10
    #       with the relays at the interior optimum (alpha x > ln(1/eta)).
    # p_n is a polynomial in p_dark with no constant term, and neither p_s
    # nor the placement depends on p_dark, so p_n1 is the chain's noise at a
    # tiny dark rate eps scaled back up by p_d/eps (relative error ~1e-9 g).
    t0 = time.perf_counter()
    eta, p_dark = 0.5, 1e-5
    eps = 1e-9 * p_dark
    grid = np.linspace(0.0, 40.0, 100)
    details = []
    bad_a, bad_b, bad_c = [], [], []
    for n in (0, 1, 2, 4, 8, 16):
        worst_first = worst_exact = worst_law = 0.0
        s_leave = None
        for ax in grid:
            ax = float(ax)
            s_an = snr_n_relays(ax, n, eta, p_dark)
            if not 0.1 <= s_an <= 1e4:
                continue
            cfg = ChainConfig(distance_km=ax / 0.05, n_relays=n, eta=eta,
                              p_dark=p_dark)
            rep = run_chain(cfg)
            p_n1 = (p_dark / eps) * run_chain(
                cfg._replace(p_dark=eps)).p_n
            g = (rep.p_n - p_n1) / p_n1
            law = n / (2 * (n + 1) * s_an)

            dev_first = abs(rep.p_s / p_n1 - s_an) / s_an
            worst_first = max(worst_first, dev_first)
            if not dev_first <= 0.05:
                bad_a.append((n, ax))

            dev_exact = abs(rep.snr - s_an) / s_an
            worst_exact = max(worst_exact, dev_exact)
            if dev_exact > 0.05 and (s_leave is None or s_an > s_leave):
                s_leave = s_an

            if n == 0:
                ok_b = abs(g) <= 1e-12
            elif n == 1:
                ok_b = abs(g / law - 1.0) <= 1e-6
            else:
                ok_b = g >= law * (1.0 - 1e-6)
            if not ok_b:
                bad_b.append((n, ax))

            if n > 0 and s_an >= 10.0 and ax > math.log(1.0 / eta):
                dev_law = abs(g / law - 1.0)
                worst_law = max(worst_law, dev_law)
                if not dev_law <= 0.05:
                    bad_c.append((n, ax))
        leave = ("stays in band" if s_leave is None
                 else f"leaves band at S <= {s_leave:.3g}")
        law_txt = (f", p_d^2 law dev {worst_law:.2g} at S >= 10" if n
                   else "")
        details.append(f"N={n} first-order dev {worst_first:.2g}, exact dev "
                       f"{worst_exact:.3f} ({leave}){law_txt}")
    elapsed = time.perf_counter() - t0
    ok = not (bad_a or bad_b or bad_c) and elapsed < 10.0
    announce(capsys, "snr curve reproduction (5% band, 0.1 <= S <= 1e4)", ok,
             "; ".join(details) + f", {elapsed:.2f} s")
    assert not bad_a, ("(a) first-order part p_s/p_n1 of the exact chain "
                       "leaves the 5% band of snr_n_relays at "
                       f"{len(bad_a)} points, (N, alpha_x) {bad_a[:5]} ...")
    assert not bad_b, ("(b) remainder g = p_n/p_n1 - 1 falls below the "
                       "p_d^2 term N/(2(N+1)S), or differs from 1/(4S) at "
                       f"N = 1, at {len(bad_b)} points, (N, alpha_x) "
                       f"{bad_b[:5]} ...")
    assert not bad_c, ("(c) remainder g is not within 5% of N/(2(N+1)S) "
                       f"at S >= 10 at {len(bad_c)} points, (N, alpha_x) "
                       f"{bad_c[:5]} ...")
    assert elapsed < 10.0


def test_criterion_05_range_doubling(capsys):
    ax0 = solve_range_alpha_x(0, 0.5, 1e-5, 1.0)
    ax1 = solve_range_alpha_x(1, 0.5, 1e-5, 1.0)
    ratio = ax1 / ax0
    ok = (abs(ax0 - 10.82) <= 0.005 and abs(ax1 - 19.56) <= 0.005
          and 1.7 <= ratio <= 2.0)
    announce(capsys, "range doubling at S=1", ok,
             f"alpha_x(N=0) = {ax0:.4f}, alpha_x(N=1) = {ax1:.4f}, "
             f"ratio = {ratio:.4f}")
    assert abs(ax0 - 10.82) <= 0.005
    assert abs(ax1 - 19.56) <= 0.005
    assert 1.7 <= ratio <= 2.0


def test_criterion_06_range_enhancement_envelope(capsys):
    r = range_enhancement(1, 0.5, 1e-5, 1.0)
    head_ok = abs(r.approx - 1.82) <= 0.005
    worst = 0.0
    for pd, s in ((1e-5, 1.0), (1e-5, 10.0), (1e-6, 100.0), (1e-4, 1.0),
                  (1e-8, 1e4), (1e-7, 1e3)):
        for n in (1, 2, 3, 4, 6, 8):
            rr = range_enhancement(n, 0.5, pd, s)
            worst = max(worst,
                        abs(rr.approx - rr.first_order) / rr.first_order)
    ok = head_ok and worst < 0.05
    announce(capsys, "range enhancement closed form", ok,
             f"R(N=1) approx = {r.approx:.4f} "
             f"(first-order {r.first_order:.4f}), "
             f"envelope worst rel dev {worst:.4f} over p_dark*S <= 1e-4, "
             f"N <= 8")
    assert head_ok
    assert worst < 0.05


def test_criterion_07_raw_rate(capsys):
    rate = raw_rate(1e11, 25.0)
    ok = abs(rate - 1.39) <= 0.005 and 0.1 <= rate <= 10.0
    announce(capsys, "raw rate sanity", ok,
             f"raw_rate(1e11 Hz, alpha_x=25) = {rate:.6f} bit/s, "
             f"order of magnitude 1")
    assert rate == pytest.approx(1.388794386496402, rel=1e-12)
    assert 0.1 <= rate <= 10.0


def test_criterion_08_throughput_shape(capsys):
    t0 = time.perf_counter()
    plateau_exact = key_fraction(0.0) == 1.0
    cuts = []
    plateau_vals = []
    zero_beyond = True
    for n in range(4):
        cut = cutoff_alpha_x(n, 0.5, 1e-5)
        cuts.append(cut)
        pts = throughput_curve([0.0, cut * 0.5, cut * 1.01, cut + 5.0], n,
                               0.5, 1e-5)
        plateau_vals.append(pts[0].t_n)
        zero_beyond &= pts[2].t_n == 0.0 and pts[3].t_n == 0.0
        zero_beyond &= pts[1].t_n > 0.0
    increasing = all(a < b for a, b in zip(cuts, cuts[1:]))
    elapsed = time.perf_counter() - t0
    ok = (plateau_exact and all(v > 0.99 for v in plateau_vals)
          and zero_beyond and increasing and elapsed < 10.0)
    announce(capsys, "throughput shape", ok,
             f"plateau tau(0) = 1.0 exact: {plateau_exact}, t_n(0) = "
             + "/".join(f"{v:.4f}" for v in plateau_vals)
             + ", zero beyond cutoff: " + str(zero_beyond)
             + ", cutoffs " + "/".join(f"{c:.3f}" for c in cuts)
             + f" strictly increasing: {increasing}, {elapsed:.2f} s")
    assert plateau_exact
    assert all(v > 0.99 for v in plateau_vals)
    assert zero_beyond
    assert increasing
    assert elapsed < 10.0


def test_criterion_09_stochastic_validation(capsys):
    t0 = time.perf_counter()
    # 1e10 slots see about 23,200 noise events (1e7 saw 23.2, where one
    # exact stream in 200 already lands past |z| = 3); the O(N) sampler
    # draws them at the cost of 1e7
    cfg = ChainConfig(distance_km=100.0, n_relays=1)
    n = 10**10
    exact = run_chain(cfg)
    got = sample_chain(cfg, n, seed=20260815)
    again = sample_chain(cfg, n, seed=20260815)
    z_s = (got.p_s - exact.p_s) / math.sqrt(exact.p_s * (1 - exact.p_s) / n)
    z_n = (got.p_n - exact.p_n) / math.sqrt(exact.p_n * (1 - exact.p_n) / n)
    same_bytes = (json.dumps(got._asdict(), sort_keys=True)
                  == json.dumps(again._asdict(), sort_keys=True))
    elapsed = time.perf_counter() - t0
    ok = abs(z_s) < 3.0 and abs(z_n) < 3.0 and same_bytes and elapsed < 60.0
    announce(capsys, "stochastic validation (1e10 trials)", ok,
             f"z(p_s) = {z_s:+.3f}, z(p_n) = {z_n:+.3f}, repeat run "
             f"byte-identical: {same_bytes}, {elapsed:.2f} s")
    assert abs(z_s) < 3.0
    assert abs(z_n) < 3.0
    assert got == again
    assert same_bytes
    assert elapsed < 60.0


def test_criterion_10_engine_matches_dense_oracle(capsys):
    basis = ModeBasis(("p", "q", "r"))
    modes = basis.modes
    n_modes = len(modes)
    configs = list(configs_up_to(n_modes, 3))
    rng = np.random.default_rng(99)

    mats = []
    mats.append(("F/S rotation", basis_rotate_fs(basis, "p")))
    mats.append(("double rotation", basis_rotate_fs(basis, "q")
                 .then(basis_rotate_fs(basis, "r"))))
    u1 = LinearModeTransform(basis, haar_unitary(n_modes, rng))
    u2 = LinearModeTransform(basis, haar_unitary(n_modes, rng))
    mats.append(("random unitary", u1))
    mats.append(("composition", u1.then(u2)))

    worst = 0.0
    checked = 0
    for label, tr in mats:
        for cfg in configs:
            state = PhotonicState(basis, {cfg: 1.0})
            got = apply_transform(state, tr)
            want = dense_apply(tr.matrix, {cfg: 1.0})
            keys = set(got.amps) | set(want)
            for k in keys:
                diff = abs(got.amps.get(k, 0.0) - want.get(k, 0.0))
                worst = max(worst, diff)
            checked += 1
    ok = worst <= 1e-12
    announce(capsys, "sparse engine vs dense oracle", ok,
             f"{checked} transform/input pairs over {len(configs)} "
             f"occupation configs (<= 3 photons, {n_modes} modes), max "
             f"amplitude deviation {worst:.2e}")
    assert ok


# |alpha x_1 - alpha x - Delta| over alpha x_1, in machine epsilons: 5 is
# four times the largest, 1.16 (N = 4, S = 100), rounded up
GAP_BOUND = 5


def test_criterion_11_range_gap_at_all_orders(capsys):
    # the first-order range alpha x_1 (solve_range_alpha_x) overstates the
    # all-orders one alpha x (the inverse behind the throughput cutoffs) by
    # the binomial tail: in the interior both are the one inverse at their
    # own u, so alpha x_1 - alpha x = Delta(N, S) = (N+1) ln(u_1/u), with
    # u_1 = 1/((N+1) S) and u = expm1(log1p(1/S)/(N+1)), here in Decimal
    eta, p_dark = 0.5, 1e-5
    details, worst, bad = [], 0.0, []
    for n in (1, 4, 16):
        cells = []
        for s in (1.0, 10.0, 100.0):
            ax_1 = solve_range_alpha_x(n, eta, p_dark, s)
            ax = _alpha_x_at_snr(s, n, eta, p_dark)
            cells.append(f"S={s:g} {ax_1:.4f}/{ax:.4f} "
                         f"(+{100 * (ax_1 / ax - 1):.2f}%)")
            if ax <= -math.log(eta):    # clamped: no shared u
                continue
            with localcontext() as ctx:
                ctx.prec = 50
                m, big_s = n + 1, Decimal(s)
                u = ((1 + 1 / big_s).ln() / m).exp() - 1
                delta = m * ((1 / (m * big_s)).ln() - u.ln())
            dev = float(abs(Decimal(ax_1) - Decimal(ax) - delta)) / (
                sys.float_info.epsilon * ax_1)
            worst = max(worst, dev)
            if dev > GAP_BOUND:
                bad.append((n, s, ax_1, ax, float(delta)))
        details.append(f"N={n}: " + ", ".join(cells))
    ok = not bad
    announce(capsys, "range gap at all orders (eta = 1/2, p_d = 1e-5, "
             "first-order/all-orders alpha_x)", ok,
             "; ".join(details) + f"; gap = Delta(N, S) within "
             f"{worst:.2f} eps * alpha_x_1")
    assert not bad, bad
