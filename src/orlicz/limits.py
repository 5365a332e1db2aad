"""Convergence experiments for the norm limit and its proof inequalities.

The central fact being exercised: with the log-bump family at fixed power p
and shift e-1, the Luxemburg norm tends to the essential supremum as the
log exponent q grows.  The sweeps here measure that convergence and check
every inequality the argument rests on: the characteristic-function lower
bound, the delta substitution chain, the pointwise domination that powers
the upper bound, truncation, and the e-shift equivalence.

Everything is a pure function of its inputs; reports are deterministic and
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InputError, NumericError
from .measure import DiscreteMeasure, SampledFunction, ess_sup, truncate
from .norm import DEFAULT_TOL, luxemburg_norm, char_norm_closed_form, modular, p_norm
from .young import E0, E, YoungFunction, _validate_grid

__all__ = [
    "ConvergenceReport",
    "LiminfBoundRecord",
    "DeltaRelationRecord",
    "ThresholdRecord",
    "TruncationReport",
    "EquivalenceRecord",
    "LogRatioRecord",
    "limit_sweep",
    "classical_p_sweep",
    "liminf_bound_check",
    "delta_relation_check",
    "upper_bound_threshold",
    "truncation_sweep",
    "log_ratio_bound_check",
    "equivalence_norm_check",
]

# Desk-scale surrogate for the liminf half: once q reaches this size the
# norm must sit within LIMINF_MARGIN of the reference.  Calibrated from the
# ~e*ln(1/m)/q gap scaling of characteristic functions.
LIMINF_Q_MIN = 1e4
LIMINF_MARGIN = 1e-3

_WEAK_SLACK = 1e-12  # relative slack when testing weak decrease (gaps, modulars)


def _solved_rtol(p: float) -> float:
    """Relative slack for comparing norms solved to DEFAULT_TOL at power p.

    Each such norm lies within about DEFAULT_TOL / p relative of the exact
    one, since |modular - 1| <= DEFAULT_TOL and d log modular / d log lam
    <= -p; a pair of them lies within twice that of each other.
    """
    return 2.0 * DEFAULT_TOL / p


@dataclass(frozen=True)
class ConvergenceReport:
    """Norms along an exponent schedule with gaps to the reference sup.

    liminf_floor holds limit_sweep's floor verdict for each schedule entry,
    and is empty for classical_p_sweep.
    """

    schedule: tuple[float, ...]
    norms: tuple[float, ...]
    reference: float
    gaps: tuple[float, ...]
    liminf_floor: tuple[bool, ...]
    passed: bool


def _nonzero_sup(f: SampledFunction, mu: DiscreteMeasure) -> float:
    """ess_sup(f, mu); DomainError when f is identically zero."""
    top = ess_sup(f, mu)
    if top == 0.0:
        raise DomainError("the test function must not be identically zero")
    return top


def _gaps_weakly_decreasing(gaps: list[float]) -> bool:
    tail = gaps[len(gaps) // 2 :]
    return all(
        b <= a * (1.0 + _WEAK_SLACK) + 1e-15 for a, b in zip(tail, tail[1:])
    )


def _finish_report(schedule, norms, reference, liminf_floor=()) -> ConvergenceReport:
    gaps = [abs(n - reference) for n in norms]
    passed = all(liminf_floor) and gaps[-1] <= gaps[0] and _gaps_weakly_decreasing(gaps)
    return ConvergenceReport(
        tuple(schedule), tuple(norms), reference, tuple(gaps), tuple(liminf_floor), passed
    )


def limit_sweep(
    f: SampledFunction,
    mu: DiscreteMeasure,
    p: float,
    q_schedule,
    tol: float = DEFAULT_TOL,
) -> ConvergenceReport:
    """Norms under the shift-(e-1) log-bump family along a q schedule.

    Each entry carries a liminf_floor verdict: once q >= 1e4 the norm must
    be at least (1 - 1e-3) times the reference sup (vacuously True below
    that).  The report passes when every verdict holds, the last gap does
    not exceed the first, and gaps decrease weakly over the final half.
    """
    qs = _validate_grid(q_schedule, "q_schedule", min_len=3)
    reference = _nonzero_sup(f, mu)
    norms = []
    for q in qs:
        A = YoungFunction.log_bump(p, q)
        try:
            value = luxemburg_norm(A, f, mu, tol).value
        except NumericError as exc:
            raise NumericError(f"norm solver failed at q={q}: {exc}") from exc
        norms.append(value)
    floor = (1.0 - LIMINF_MARGIN) * reference
    liminf_floor = [q < LIMINF_Q_MIN or n >= floor for q, n in zip(qs, norms)]
    return _finish_report(qs, norms, reference, liminf_floor)


def classical_p_sweep(f: SampledFunction, mu: DiscreteMeasure, p_schedule) -> ConvergenceReport:
    """Weighted p-norms along a p schedule, converging to the sup."""
    ps = _validate_grid(p_schedule, "p_schedule")
    if any(p < 1.0 for p in ps):
        raise InputError("p_schedule entries must be >= 1")
    reference = _nonzero_sup(f, mu)
    return _finish_report(ps, [p_norm(f, mu, p) for p in ps], reference)


def _exp_or_inf(x: float) -> float:
    """exp(x), or math.inf where it exceeds the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LiminfBoundRecord:
    """Characteristic-function lower bound from the delta substitution.

    For mass m the norm lam of the indicator satisfies
    lam > 1 / (exp(1 + (1/m)/q) - e0) whenever lam < 1; for lam >= 1 the
    bound is vacuous.  Requires q >= 1, the Bernoulli-inequality regime.
    """

    m: float
    p: float
    q: float
    norm_value: float
    lower_bound: float
    vacuous: bool
    passed: bool


def liminf_bound_check(m: float, p: float, q: float) -> LiminfBoundRecord:
    if not m > 0.0:
        raise DomainError(f"mass must be positive, got {m}")
    if not q >= 1.0:
        raise DomainError(f"bound checks need q >= 1 (Bernoulli regime), got {q}")
    lam = char_norm_closed_form(YoungFunction.log_bump(p, q), m)
    bound = 1.0 / (_exp_or_inf(1.0 + 1.0 / (m * q)) - E0)
    if lam >= 1.0:
        return LiminfBoundRecord(m, p, q, lam, bound, True, True)
    return LiminfBoundRecord(m, p, q, lam, bound, False, lam > bound)


@dataclass(frozen=True)
class DeltaRelationRecord:
    """The substitution log(e0 + 1/lam) = 1 + delta and its bound chain.

    For 0 < lam < 1 the identity
        lam^(-p) * log(e0 + 1/lam)^q = (e^(1+delta) - e0)^p * (1+delta)^q
    holds exactly, and the right side dominates 1 + q*delta > q*delta.
    identity_ok (the sides agree to relative 1e-9) and bernoulli_ok compare
    logarithms, so they hold at any q.
    tail_ok decides 1 + q*delta > q*delta exactly, not in rounded doubles:
    it is True whenever q*delta is finite.  direct and substituted are the
    two sides, math.inf where they exceed the double range.
    """

    lam: float
    p: float
    q: float
    delta: float
    direct: float
    substituted: float
    identity_rel_err: float
    identity_ok: bool
    bernoulli_ok: bool
    tail_ok: bool
    passed: bool


def delta_relation_check(lam: float, p: float, q: float) -> DeltaRelationRecord:
    if not 0.0 < lam < 1.0:
        raise DomainError(f"delta relation needs 0 < lam < 1, got {lam}")
    if not q >= 1.0:
        raise DomainError(f"bound checks need q >= 1 (Bernoulli regime), got {q}")
    inv = 1.0 / lam
    delta = math.log(E0 + inv) - 1.0
    # both sides compared in logs: at large q they leave the double range
    log_direct = -p * math.log(lam) + q * math.log(math.log(E0 + inv))
    log_substituted = p * math.log(math.exp(1.0 + delta) - E0) + q * math.log1p(delta)
    diff = log_direct - log_substituted  # rounding at large q can set them 709+ apart
    rel_err = abs(math.expm1(diff)) if diff < 709.0 else _exp_or_inf(diff)
    identity_ok = rel_err <= 1e-9
    bernoulli_ok = log_substituted >= math.log1p(q * delta)
    tail_ok = math.isfinite(q * delta)
    passed = delta > 0.0 and identity_ok and bernoulli_ok and tail_ok
    return DeltaRelationRecord(
        lam, p, q, delta, _exp_or_inf(log_direct), _exp_or_inf(log_substituted), rel_err,
        identity_ok, bernoulli_ok, tail_ok, passed,
    )


@dataclass(frozen=True)
class ThresholdEntry:
    q: float
    modular_value: float
    norm_value: float | None
    norm_ok: bool | None


@dataclass(frozen=True)
class ThresholdRecord:
    """Upper-bound certificate at lam = (1 + eps) * ess sup.

    q_star is the first schedule entry whose modular at lam is <= 1; past
    it every norm must stay below lam.  norm_ok tests value <= lam * (1 +
    _solved_rtol(p)), a relative slack, so the verdict does not depend on
    the scale of f.
    domination_ok checks the paper's domination step on the recorded data:
    every |f_i|/lam is below 1, where log(e0 + t) <= 1, so from q_star on
    every modular_value is at most the one at q_star (within relative slack
    _WEAK_SLACK).  It is vacuously True when q_star is not found.
    """

    lam: float
    eps: float
    q_star: float | None
    found: bool
    entries: tuple[ThresholdEntry, ...]
    domination_ok: bool
    passed: bool


def upper_bound_threshold(
    f: SampledFunction, mu: DiscreteMeasure, p: float, eps: float, q_schedule
) -> ThresholdRecord:
    qs = _validate_grid(q_schedule, "q_schedule")
    top = _nonzero_sup(f, mu)
    lam = (1.0 + eps) * top
    if not (eps > 0.0 and lam < math.inf):  # an infinite lam certifies nothing
        raise DomainError(f"eps must be positive with (1 + eps) * ess sup finite, got {eps}")

    q_star = None
    entries = []
    for q in qs:
        A = YoungFunction.log_bump(p, q)
        mv = modular(A, f, mu, lam)
        if q_star is None and mv <= 1.0:
            q_star = q
        if q_star is None:
            entries.append(ThresholdEntry(q, mv, None, None))
        else:
            value = luxemburg_norm(A, f, mu).value
            entries.append(ThresholdEntry(q, mv, value, value <= lam * (1.0 + _solved_rtol(p))))

    tail = [e.modular_value for e in entries if e.norm_value is not None]
    domination_ok = all(mv <= tail[0] * (1.0 + _WEAK_SLACK) for mv in tail[1:])

    found = q_star is not None
    norm_checks = [e.norm_ok for e in entries if e.norm_ok is not None]
    passed = found and domination_ok and all(norm_checks)
    return ThresholdRecord(lam, eps, q_star, found, tuple(entries), domination_ok, passed)


@dataclass(frozen=True)
class TruncationEntry:
    N: float
    target: float
    terminal_norm: float
    converged: bool
    dominated_ok: bool
    sweep: ConvergenceReport


@dataclass(frozen=True)
class TruncationReport:
    """Sweeps of min(|f|, N) for each truncation level N.

    Each truncated sweep must converge to min(ess sup |f|, N), to within
    1e-3 relative to that target, and the untruncated terminal norm must
    dominate every truncated one because min(|f|, N) <= |f| pointwise.
    Every norm is solved to DEFAULT_TOL.  dominated_ok tests terminal_norm
    <= f_terminal_norm * (1 + _solved_rtol(p)), a relative slack, so the
    verdict does not depend on the scale of f.
    """

    f_terminal_norm: float
    entries: tuple[TruncationEntry, ...]
    passed: bool


def truncation_sweep(
    f: SampledFunction, mu: DiscreteMeasure, p: float, N_schedule, q_schedule
) -> TruncationReport:
    Ns = _validate_grid(N_schedule, "N_schedule")
    qs = _validate_grid(q_schedule, "q_schedule", min_len=3)
    top = _nonzero_sup(f, mu)
    q_top = qs[-1]
    f_terminal = luxemburg_norm(YoungFunction.log_bump(p, q_top), f, mu).value

    entries = []
    for N in Ns:
        fN = truncate(f, N)
        sweep = limit_sweep(fN, mu, p, qs)
        terminal = sweep.norms[-1]
        target = min(top, N)
        converged = abs(terminal - target) <= 1e-3 * target
        dominated_ok = terminal <= f_terminal * (1.0 + _solved_rtol(p))
        entries.append(TruncationEntry(N, target, terminal, converged, dominated_ok, sweep))

    passed = all(e.converged and e.dominated_ok for e in entries)
    return TruncationReport(f_terminal, tuple(entries), passed)


@dataclass(frozen=True)
class LogRatioRecord:
    """Grid range of log(e0 + t) / log(e0 + c*t), which stays bounded and
    bounded away from zero for every fixed c > 0."""

    c: float
    inf_ratio: float
    sup_ratio: float
    passed: bool


def log_ratio_bound_check(c: float, grid) -> LogRatioRecord:
    if not c > 0.0 or not math.isfinite(c):
        raise DomainError(f"scale c must be finite and positive, got {c}")
    pts = _validate_grid(grid, require_sorted=False)
    ratios = [math.log(E0 + t) / math.log(E0 + c * t) for t in pts]
    lo, hi = min(ratios), max(ratios)
    return LogRatioRecord(c, lo, hi, lo > 0.0 and math.isfinite(hi))


@dataclass(frozen=True)
class EquivalenceRecord:
    """Norms under shifts e-1 and e, checked against the closed-form band.

    c_e0_in_e = 1 is the smallest constant with B_e0(t) <= B_e(c t) for all
    t > 0, and c_e_in_e0 = log(e0)^(-q/p) the smallest with B_e(t) <=
    B_e0(c t) for all t > 0 (equivalence_norm_check proves both).  The norm
    ratio norm_e0 / norm_e must lie in [1/C, C] with C = band, the larger of
    the two, widened by the relative slack _solved_rtol(p) of two solved
    norms.  Because the shift-e integrand dominates pointwise, norm_e >=
    norm_e0 always; the tight band is therefore [1/c_e_in_e0, c_e0_in_e].
    """

    p: float
    q: float
    norm_e0: float
    norm_e: float
    ratio: float
    c_e0_in_e: float
    c_e_in_e0: float
    band: float
    passed: bool


def equivalence_norm_check(
    f: SampledFunction, mu: DiscreteMeasure, p: float, q: float
) -> EquivalenceRecord:
    """Norms of f under the shifts e0 = e-1 and e, each solved to
    DEFAULT_TOL, and the closed-form band.

    Both constants hold for all t > 0.  B_e0(t) <= B_e(t) since log(e0 + t)
    <= log(e + t), with c_e0_in_e = 1 tight as t -> inf.  For the reverse,
    let L = log(e0) < 1 and c = L^(-q/p) >= 1, tight as t -> 0.  Then
    B_e(t) <= B_e0(c t) is equivalent to L log(e + t) <= log(e0 + c t).  The
    difference h(t) = log(e0 + c t) - L log(e + t) has h(0) = 0 and
    h'(t) = c / (e0 + c t) - L / (e + t) > 0, because c (e + t) > L (e0 + c t)
    follows from c > L, c t >= L c t and e > e0; so h >= 0 for t >= 0.
    c_e_in_e0 is computed as exp(-(q/p) log L), reads inf past the double
    range, and is rounded up by 4 eps (1 + |log c|) relative, a bound on the
    rounding of that exp/log chain, so the returned double satisfies the
    inequality on its own; q = 0 gives exactly 1.
    """
    _nonzero_sup(f, mu)
    A_e0, A_e = YoungFunction(p, q, E0), YoungFunction(p, q, E)
    norm_e0 = luxemburg_norm(A_e0, f, mu).value
    norm_e = luxemburg_norm(A_e, f, mu).value
    c_e0_in_e = 1.0
    log_c = -q / p * math.log(math.log(E0))
    rounding = 4.0 * math.ulp(1.0) * (1.0 + abs(log_c))
    c_e_in_e0 = _exp_or_inf(log_c) * (1.0 + rounding) if q > 0.0 else 1.0
    band = max(c_e0_in_e, c_e_in_e0)
    ratio = norm_e0 / norm_e
    slack = _solved_rtol(p)
    passed = (1.0 - slack) / band <= ratio <= band * (1.0 + slack)
    return EquivalenceRecord(
        p, q, norm_e0, norm_e, ratio, c_e0_in_e, c_e_in_e0, band, passed
    )


def convergence_rows(report: ConvergenceReport, key: str) -> list[dict]:
    """Flatten a ConvergenceReport to one dict per schedule entry.

    Columns: the exponent under `key`, norm, gap, the liminf_floor verdict
    when the report has one (1 passed / 0 failed, vacuous passes count as
    1), then a row-level pass flag.
    """
    verdicts = report.liminf_floor or (True,) * len(report.schedule)
    rows = []
    for x, n, g, ok in zip(report.schedule, report.norms, report.gaps, verdicts):
        row = {key: x, "norm": n, "gap": g}
        if report.liminf_floor:
            row["liminf_floor"] = int(ok)
        row["pass"] = int(ok)
        rows.append(row)
    return rows
