"""The error contract: every public call returns or raises an OrliczError.

A seeded grid over the extremes of the double range, in values, weights, p,
q and shift, drives the public entry points and `orlicz` itself.  A bare
ValueError, an OverflowError or a numpy warning (an error under this suite's
filterwarnings) is an escape, and fails the test with its traceback.
"""

import math
import sys

import numpy as np
import pytest

from orlicz import (
    E0,
    DiscreteMeasure,
    E,
    OrliczError,
    SampledFunction,
    YoungFunction,
    char_norm_closed_form,
    luxemburg_norm,
    modular,
    p_norm,
)
from orlicz.cli import main

DBL_MAX = sys.float_info.max
PS = [1.0, 1.5, 2.0, 1e3, 1e10, 1e12, 1e300]
QS = [0.0, 0.5, 1.0, 1e3, 1e8, 1e15, 1e100, 1e300]
SHIFTS = [E0, E, 1.5, 100.0]
INPUTS = 3000


def extreme(rng):
    """0, a subnormal, a small normal, or a magnitude across the double range."""
    kind = int(rng.integers(6))
    if kind == 3:
        return float(rng.uniform()) * 1e-300
    if kind == 4:
        return 10.0 ** float(rng.uniform(-300.0, 300.0))
    return (0.0, 5e-324, 1e-310, None, None, 1.7e308)[kind]


def returns_or_raises_orlicz_error(call):
    """call(), or None where it raised an OrliczError; anything else raised escapes."""
    try:
        return call()
    except OrliczError:
        return None


def test_public_calls_return_or_raise_orlicz_error():
    rng = np.random.default_rng(2024)
    outcomes = {"returned": 0, "raised": 0}
    for _ in range(INPUTS):
        n = int(rng.integers(1, 6))
        values = [extreme(rng) * (-1.0 if rng.uniform() < 0.3 else 1.0) for _ in range(n)]
        weights = [extreme(rng) for _ in range(n)]
        p, q, shift = (float(rng.choice(grid)) for grid in (PS, QS, SHIFTS))
        lam, t, y = extreme(rng), extreme(rng), extreme(rng)

        A = returns_or_raises_orlicz_error(lambda: YoungFunction(p, q, shift))
        mu = returns_or_raises_orlicz_error(
            lambda: DiscreteMeasure(np.arange(n, dtype=float), weights)
        )
        f = SampledFunction(values)
        calls = [lambda: p_norm(f, mu, p)] if mu is not None else []
        if A is not None:
            calls += [
                lambda: A.inverse(y),
                lambda: A.value(t),
                lambda: A.value_array(np.abs(values)),
                lambda: A.log_value(t),
                lambda: char_norm_closed_form(A, weights[0]),
            ]
            if mu is not None:
                calls += [lambda: luxemburg_norm(A, f, mu), lambda: modular(A, f, mu, lam)]
        for call in calls:
            result = returns_or_raises_orlicz_error(call)
            outcomes["raised" if result is None else "returned"] += 1
            value = getattr(result, "value", result)
            if isinstance(value, float):
                assert not math.isnan(value), (values, weights, p, q, shift)
    assert min(outcomes.values()) > 0, outcomes


def write_csv(tmp_path, name, rows, header="x,weight,value"):
    path = tmp_path / name
    path.write_text("\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n")
    return str(path)


@pytest.fixture
def extreme_sources(tmp_path):
    """--preset and --input sources at the ends of the double range."""
    csvs = {
        "past_largest": [(0.0, 2.0, DBL_MAX), (1.0, 1.0, 1.0)],
        "nan_lower_end": [
            (0.0, 8.564272808475038e-301, 8.398933194753675e-301),
            (1.0, 1.7e308, 2.472773251102138e117),
            (2.0, 9.986175856376279e-301, -12.154619078757218),
        ],
        "subnormal": [(0.0, 5e-324, -5e-324), (1.0, 1e-310, 0.0)],
        "signed_spread": [(0.0, 1e-300, -1e300), (1.0, 1e300, 1e-300), (2.0, 1.0, 0.0)],
        "zero_weight": [(0.0, 0.0, 1.0)],
    }
    sources = [["--input", write_csv(tmp_path, f"{name}.csv", rows)] for name, rows in csvs.items()]
    sources.append(["--input", write_csv(tmp_path, "samples.csv", [(0.0, -1e308), (1e-300, 1e308)],
                                         header="x,value")])
    presets = ["indicator:5e-309", "indicator:1.7e308", "geometric:1e-300:2", "step:3", "ramp:2"]
    return sources + [["--preset", preset] for preset in presets]


def test_cli_exits_0_1_or_2(extreme_sources, capsys):
    argvs = []
    for source in extreme_sources:
        for p, q, shift in [("1", "0", "e0"), ("1e300", "1", "e"), ("1.5", "1e100", "e"),
                            ("1e12", "1e300", "e0")]:
            argvs.append(["norm", *source, "--p", p, "--q", q, "--shift", shift])
        argvs.append(["sweep", *source, "--p", "2", "--q-grid", "1:1e300:3:log"])
        argvs.append(["classical", *source, "--p-grid", "1:1e300:3:log"])
    for p, q in [("1", "1e300"), ("1e300", "0"), ("1e12", "1e15")]:
        argvs.append(["bounds", "--m", "5e-324", "--p", p, "--q-grid", "1:1e300:3:log"])
        argvs.append(["check-young", "--p", p, "--q", q])
        argvs.append(["compare", "--p", p, "--q", q])
    codes = set()
    for argv in argvs:
        code = main(argv)
        assert code in (0, 1, 2), argv
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 1, 2}
