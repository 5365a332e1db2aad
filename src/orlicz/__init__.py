"""Numerical toolkit for Orlicz spaces generated by the log-bump family
t**p * log(shift + t)**q, including Luxemburg norm computation and
convergence experiments for the q -> infinity limit toward the sup norm.

Each module's __all__ is its public API; the package re-exports them."""

from . import errors, young, measure, norm, limits
from .errors import *
from .young import *
from .measure import *
from .norm import *
from .limits import *

__version__ = "0.1.0"

__all__ = errors.__all__ + young.__all__ + measure.__all__ + norm.__all__ + limits.__all__
