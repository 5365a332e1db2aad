import numpy as np

from orlicz import DiscreteMeasure, SampledFunction


def atoms(values, weights):
    """Measure/function pair over consecutive integer coordinates."""
    values = np.asarray(values, dtype=float)
    mu = DiscreteMeasure(np.arange(len(values), dtype=float), weights)
    return mu, SampledFunction(values)


def random_instance(rng, n_lo=5, n_hi=50, value_scale=10.0, weight_scale=5.0):
    """Random discrete instance: values in [-s, s], weights in (0, w]."""
    n = int(rng.integers(n_lo, n_hi + 1))
    values = rng.uniform(-value_scale, value_scale, n)
    weights = weight_scale * (1.0 - rng.random(n))
    return atoms(values, weights)


def modular_longdouble(A, values, weights, lam):
    """sum_i w_i A(|f_i|/lam) in np.longdouble: an oracle apart from the
    library's kernel.  Each term exp(log w_i + p log t_i + q log log(shift +
    t_i)), with t_i = |f_i|/lam, is formed per atom and the terms are summed,
    all in long double, whose range holds every term A(t_i) of a double."""
    ld = np.longdouble
    t = np.abs(np.asarray(values, dtype=ld)) / ld(lam)
    with np.errstate(divide="ignore", under="ignore"):
        logs = np.log(np.asarray(weights, dtype=ld)) + ld(A.p) * np.log(t)
        if A.q > 0.0:
            logs += ld(A.q) * np.log(np.log(ld(A.shift) + t))
        return np.exp(logs).sum()
