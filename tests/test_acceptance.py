"""Acceptance suite: twelve numbered criteria, one test and one printed
PASS/FAIL line per criterion (run with -s to see the lines).

Expected values marked as goldens were computed ahead of the implementation
with 50-digit arithmetic; the oracles coded here (bisection on the modular
equation, dense grid scans) are independent of the library code paths they
check.

Known red: criterion 9's second clause asserts shift-e norm <= shift-e0
norm.  That inequality is backwards.  log(e + t) >= log(e - 1 + t) for all
t >= 0, so the shift-e integrand dominates pointwise, the shift-e modular
is larger at every lambda, and the shift-e norm is therefore the LARGER of
the two (strictly, whenever f is nonzero and q > 0; e.g. for a unit-mass
indicator at p = q = 1 the norms are 1.2568 vs 1.0).  The clause is asserted
as stated and fails; the equivalence-band clause, which is the actual
content of B ~ B-bar, passes.
"""

import math
from functools import cache

import numpy as np
import pytest

from orlicz import (
    DiscreteMeasure,
    SampledFunction,
    YoungFunction,
    char_norm_closed_form,
    check_young,
    classical_p_sweep,
    default_grid,
    delta_relation_check,
    equivalence_norm_check,
    ess_sup,
    indicator,
    liminf_bound_check,
    limit_sweep,
    luxemburg_norm,
    p_norm,
    truncation_sweep,
    upper_bound_threshold,
)
from orlicz.cli import build_preset, main
from conftest import atoms, random_instance

E0 = math.e - 1.0
Q_SCHEDULE = [100.0, 1000.0, 10000.0, 100000.0]
SEED_INSTANCES = 20260810
SEED_EQUIVALENCE = 424242


def _criterion(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def oracle_char_norm(m: float, p: float, q: float) -> float:
    """Independent root of the indicator modular equation
    lam^(-p) * ln(e0 + 1/lam)^q = 1/m, written in the log domain and
    bisected with plain math calls (no library code)."""

    def h(lam):
        return -p * math.log(lam) + q * math.log(math.log(E0 + 1.0 / lam)) + math.log(m)

    lo, hi = 1e-8, 1.0  # for m < 1 the root lies below 1, where h is defined
    assert h(lo) > 0.0 > h(hi) or h(hi) == 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_grid_scan_q100() -> float:
    """1e-7-step scan of (1/lam) * ln(e0 + 1/lam)^100 = 2 on [0.9, 1.0]."""
    lam = np.arange(0.9, 1.0, 1e-7)
    vals = (1.0 / lam) * np.log(E0 + 1.0 / lam) ** 100
    idx = int(np.argmax(vals < 2.0))  # vals decrease through 2 inside the window
    return float(0.5 * (lam[idx - 1] + lam[idx]))


@cache
def instances_100():
    rng = np.random.default_rng(SEED_INSTANCES)
    return [random_instance(rng) for _ in range(100)]


def test_criterion_01_theorem_sweep_against_oracle():
    """Norms of the mass-1/2 indicator match the independent oracle to 1e-7,
    gaps to the sup strictly decrease, terminal gap <= 1e-4."""
    mu, f = atoms([1.0], [0.5])
    report = limit_sweep(f, mu, 1.0, Q_SCHEDULE)

    oracle = [oracle_char_norm(0.5, 1.0, q) for q in Q_SCHEDULE]
    match = all(abs(n - o) <= 1e-7 for n, o in zip(report.norms, oracle))
    scan = oracle_grid_scan_q100()
    cross = abs(report.norms[0] - scan) <= 1e-7
    decreasing = all(b < a for a, b in zip(report.gaps, report.gaps[1:]))
    terminal = abs(report.norms[-1] - 1.0) <= 1e-4
    _criterion(
        1,
        match and cross and decreasing and terminal,
        f"terminal gap {report.gaps[-1]:.3e}",
    )


def test_criterion_02_liminf_lower_bound_grid():
    """The explicit lower bound 1/(exp(1 + 1/(m q)) - e0) holds strictly for
    every (m, p, q) in the grid; zero violations."""
    violations = []
    for m in (0.1, 0.5, 0.9):
        for p in (1.0, 2.0, 3.0):
            for q in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5):
                rec = liminf_bound_check(m, p, q)
                if rec.vacuous or not rec.passed:
                    violations.append((m, p, q))
    _criterion(2, not violations, f"{54 - len(violations)}/54 combinations")


def test_criterion_03_limsup_threshold():
    """For the geometric ratio-1/2 function with 8 levels, eps = 0.1 yields a
    finite threshold q* <= 200 past which every norm stays below 1.1 sup."""
    mu, f = build_preset("geometric:0.5:8")
    rec = upper_bound_threshold(f, mu, 1.0, 0.1, [float(q) for q in range(1, 201)])
    ok = rec.found and rec.q_star <= 200.0 and rec.domination_ok and rec.passed
    _criterion(3, ok, f"q* = {rec.q_star}")


def test_criterion_04_closed_form_vs_solver():
    """Closed-form indicator norm agrees with the bisection solver to 1e-8
    relative across the full (p, q, m) grid."""
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        for q in (0.5, 1.0, 5.0, 50.0, 1000.0):
            A = YoungFunction.log_bump(p, q)
            for m in (0.1, 0.5, 1.0, 2.0, 10.0):
                # split the mass so the solver bisects instead of collapsing
                mu = DiscreteMeasure([0.0, 1.0, 2.0], [m / 3.0, 2.0 * m / 3.0, 1.0])
                chi = indicator(mu, {0, 1})
                solver = luxemburg_norm(A, chi, mu).value
                closed = char_norm_closed_form(A, m)
                worst = max(worst, abs(solver - closed) / closed)
    _criterion(4, worst <= 1e-8, f"worst rel err {worst:.2e}")


def test_criterion_05_lp_consistency():
    """On 100 seeded random instances the Luxemburg norm of the pure power
    family equals the weighted p-norm to 1e-10 relative."""
    worst = 0.0
    for mu, f in instances_100():
        for p in (1.0, 2.0, 3.5, 10.0):
            lux = luxemburg_norm(YoungFunction.power(p), f, mu, tol=1e-12).value
            ref = p_norm(f, mu, p)
            worst = max(worst, abs(lux - ref) / ref)
    _criterion(5, worst <= 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_06_homogeneity():
    """||c f|| = |c| ||f|| to 1e-9 relative for c in {1e-3, 7, 1e6}, both
    families, on the same 100 instances."""
    families = (YoungFunction.power(2), YoungFunction.log_bump(2, 3))
    worst = 0.0
    for mu, f in instances_100():
        for A in families:
            base = luxemburg_norm(A, f, mu, tol=1e-12).value
            for c in (0.001, 7.0, 1e6):
                scaled = luxemburg_norm(
                    A, SampledFunction(c * f.values), mu, tol=1e-12
                ).value
                worst = max(worst, abs(scaled - c * base) / (c * base))
    _criterion(6, worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_07_classical_p_limit():
    """p-norms of {1,2,3} with weights {.1,.2,.7} approach the sup: weakly
    decreasing gaps on the final half, terminal gap <= 1% of the sup."""
    mu, f = atoms([1.0, 2.0, 3.0], [0.1, 0.2, 0.7])
    schedule = [float(2**k) for k in range(11)]  # log-spaced 1 .. 1024
    report = classical_p_sweep(f, mu, schedule)
    ok = report.passed and report.gaps[-1] <= 0.01 * report.reference
    _criterion(7, ok, f"terminal gap {report.gaps[-1]:.3e}")


def test_criterion_08_delta_relation_identity():
    """lam^(-p) ln(e0 + 1/lam)^q = (e^(1+d) - e0)^p (1+d)^q to 1e-9 relative,
    with the exact chain >= 1 + q d > q d, across the full grid."""
    ok = True
    worst = 0.0
    for lam in np.arange(0.1, 0.95, 0.1):
        for p in (1.0, 2.0, 3.0):
            for q in (1.0, 10.0, 100.0):
                rec = delta_relation_check(float(lam), p, q)
                worst = max(worst, rec.identity_rel_err)
                ok = ok and rec.passed and rec.delta > 0.0
    _criterion(8, ok and worst <= 1e-9, f"worst identity err {worst:.2e}")


def test_criterion_09_shift_equivalence():
    """Both clauses as stated: (a) the e0/e norm ratio sits inside the
    grid-certified band [1/C, C]; (b) shift-e norm <= shift-e0 norm + 1e-10.

    Clause (b) is unattainable: the shift-e integrand dominates pointwise,
    so its norm is strictly larger for every nonzero f with q > 0 (see the
    module docstring).  It is asserted anyway and this criterion fails.
    """
    rng = np.random.default_rng(SEED_EQUIVALENCE)
    in_band = True
    domination_as_stated = True
    worst_excess = 0.0
    for _ in range(20):
        mu, f = random_instance(rng, n_lo=5, n_hi=30)
        p = float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(0.5, 4.0))
        rec = equivalence_norm_check(f, mu, p, q)
        in_band = in_band and rec.passed
        if not rec.norm_e <= rec.norm_e0 + 1e-10:
            domination_as_stated = False
            worst_excess = max(worst_excess, rec.norm_e - rec.norm_e0)
    _criterion(
        9,
        in_band and domination_as_stated,
        "band clause "
        + ("holds" if in_band else "fails")
        + "; stated inequality shift_e <= shift_e0 is reversed in reality "
        + f"(shift-e norm exceeds by up to {worst_excess:.3g})",
    )


def test_criterion_10_young_axiom_suite():
    """Axioms pass on the default grid for the whole (p, q) grid, and the
    pure power p = 1 is correctly flagged as not superlinear."""
    ok = True
    for p in (1.0, 1.5, 2.0, 4.0):
        for q in (0.5, 1.0, 5.0, 50.0, 1000.0):
            ok = ok and check_young(YoungFunction.log_bump(p, q), default_grid()).all_passed
    linear = check_young(YoungFunction.power(1), default_grid())
    ok = ok and not linear.superlinear.passed
    ok = ok and linear.zero_at_zero.passed and linear.strictly_increasing.passed
    _criterion(10, ok)


def test_criterion_11_truncation():
    """Each truncated sweep lands within 1e-3 of min(100, N) at q = 1e4.

    The tolerance is relative to the target: the q = 1e4 norm of the N = 10
    truncation is 10.0018839 (50-digit oracle), an absolute gap of 1.88e-3,
    so an absolute 1e-3 reading is unattainable by the mathematics itself.
    """
    mu, f = atoms([1.0, 10.0, 100.0], [1.0, 1.0, 1.0])
    rep = truncation_sweep(f, mu, 1.0, [1.0, 10.0, 50.0], [100.0, 1000.0, 10000.0])
    details = ", ".join(
        f"N={e.N:g}: |{e.terminal_norm:.6f} - {e.target:g}|" for e in rep.entries
    )
    _criterion(11, rep.passed, details)


def test_criterion_12_cli_determinism(tmp_path):
    """The criterion-1 sweep command, run twice, writes byte-identical CSV."""
    args = [
        "sweep", "--preset", "indicator:0.5", "--p", "1",
        "--q-grid", "100:100000:4:log",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().splitlines()
    _criterion(12, identical and len(rows) == 5, f"{len(out1.read_bytes())} bytes")
