"""Finitely many weighted atoms standing in for a measure space.

Every quantity the norm machinery needs (modular integrals, level sets,
essential suprema) is computed exactly in this model.  Continuous examples
enter through trapezoid quadrature, in which case ess_sup approximates the
continuous essential supremum from below.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError

__all__ = [
    "DiscreteMeasure",
    "SampledFunction",
    "ess_sup",
    "level_set_measure",
    "truncate",
    "indicator",
    "quadrature_from_samples",
    "load_csv",
]

_CHUNK = 1 << 12  # values per chunk of a SampledFunction's extrema


def _as_readonly_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Ordered atoms (coordinate label, positive weight) and their total weight."""

    coordinates: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False, repr=False)

    def __post_init__(self):
        coords = _as_readonly_1d(self.coordinates, "coordinates")
        weights = _as_readonly_1d(self.weights, "weights")
        if len(coords) != len(weights):
            raise InputError(
                f"coordinate/weight length mismatch: {len(coords)} vs {len(weights)}"
            )
        if len(weights) < 1:
            raise InputError("a measure needs at least one atom")
        if not np.all(np.isfinite(coords)):
            raise InputError("coordinates must be finite")
        if not np.all(np.isfinite(weights)) or not np.all(weights > 0.0):
            raise InputError("weights must be finite and strictly positive")
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not np.isfinite(total):
            raise InputError("the total weight overflows the double range")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total_mass", float(total))

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """One real value per atom of an associated DiscreteMeasure, and the read-only max and
    min of each chunk values[k * _CHUNK : (k + 1) * _CHUNK], which validate them."""

    values: np.ndarray
    _chunk_max: np.ndarray = field(init=False, repr=False)
    _chunk_min: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vals = _as_readonly_1d(self.values, "values")
        if len(vals) < 1:
            raise InputError("a sampled function needs at least one value")
        starts = np.arange(0, len(vals), _CHUNK)
        hi, lo = np.maximum.reduceat(vals, starts), np.minimum.reduceat(vals, starts)
        if not all(map(math.isfinite, hi.tolist() + lo.tolist())):  # nan and +-inf reach them
            raise InputError("function values must be finite")
        hi.flags.writeable = lo.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_chunk_max", hi)
        object.__setattr__(self, "_chunk_min", lo)

    def __len__(self) -> int:
        return len(self.values)


def check_aligned(f: SampledFunction, mu: DiscreteMeasure) -> None:
    if len(f) != len(mu):
        raise InputError(
            f"function has {len(f)} values but measure has {len(mu)} atoms"
        )


def ess_sup(f: SampledFunction, mu: DiscreteMeasure) -> float:
    """Essential supremum of |f|, all atoms of positive weight: max(0.0, max f, -min f) from
    f's chunk extrema, exactly max |f_i|, +0.0 where every f_i is a zero of either sign."""
    check_aligned(f, mu)
    return max(0.0, float(f._chunk_max.max()), -float(f._chunk_min.min()))


def level_set_measure(f: SampledFunction, mu: DiscreteMeasure, lam: float) -> float:
    """Measure of the level set {|f| > lam} (strict inequality)."""
    check_aligned(f, mu)
    if not lam >= 0.0:
        raise DomainError(f"level requires lam >= 0, got {lam}")
    return float(mu.weights[np.abs(f.values) > lam].sum())


def truncate(f: SampledFunction, N: float) -> SampledFunction:
    """Pointwise min(|f|, N); the result is nonnegative."""
    if not N > 0.0:
        raise DomainError(f"truncation level must be positive, got {N}")
    return SampledFunction(np.minimum(np.abs(f.values), N))


def indicator(mu: DiscreteMeasure, subset) -> SampledFunction:
    """Characteristic function of a set of atom indices (integers)."""
    values = np.zeros(len(mu))
    idx = list(subset)
    for i in idx:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise InputError(f"atom indices must be integers, got {i!r}")
    idx = np.asarray(idx, dtype=int)
    if idx.size:
        if idx.min() < 0 or idx.max() >= len(mu):
            raise InputError(f"atom index out of range for {len(mu)} atoms")
        values[idx] = 1.0
    return SampledFunction(values)


def quadrature_from_samples(xs, ys) -> tuple[DiscreteMeasure, SampledFunction]:
    """Trapezoid-rule atoms for samples of a function on an interval.

    Interior weights are (x[i+1] - x[i-1]) / 2 with half-intervals at the
    ends, so total mass equals the interval length.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise InputError("xs and ys must be one-dimensional and equally long")
    if len(x) < 2:
        raise InputError("quadrature needs at least two sample points")
    if not math.isfinite(float(x.max()) - float(x.min())):  # before np.diff can overflow
        raise InputError("xs must span a finite interval")
    if not np.all(np.diff(x) > 0.0):
        raise InputError("xs must be strictly increasing")
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    if len(x) > 2:
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return DiscreteMeasure(x, w), SampledFunction(y)


def load_csv(path) -> tuple[DiscreteMeasure, SampledFunction]:
    """Read a measure and function from CSV.

    Header `x,weight,value` gives explicit atoms; header `x,value` gives
    samples whose weights are synthesized by trapezoid quadrature.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
    body = [r for r in rows[1:] if r and any(c.strip() for c in r)]
    if not body:
        raise InputError(f"{path}: no data rows")

    def parse(row, n):
        if len(row) != n:
            raise InputError(f"{path}: expected {n} columns, got row {row!r}")
        try:
            return [float(c) for c in row]
        except ValueError as exc:
            raise InputError(f"{path}: non-numeric cell in row {row!r}") from exc

    if header == ["x", "weight", "value"]:
        cols = np.asarray([parse(r, 3) for r in body], dtype=float)
        mu = DiscreteMeasure(cols[:, 0], cols[:, 1])
        return mu, SampledFunction(cols[:, 2])
    if header == ["x", "value"]:
        cols = np.asarray([parse(r, 2) for r in body], dtype=float)
        if not np.isfinite(cols[:, 0]).all():
            raise InputError(f"{path}: non-finite x values")
        return quadrature_from_samples(cols[:, 0], cols[:, 1])
    raise InputError(
        f"{path}: header must be 'x,weight,value' or 'x,value', got {rows[0]!r}"
    )
