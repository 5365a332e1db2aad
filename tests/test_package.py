import dataclasses
import importlib
import inspect

import pytest

import orlicz
from orlicz import errors, limits, measure, norm, young

MODULES = (errors, young, measure, norm, limits)

# The package's public names, written out so that a name lost or gained in a
# module's __all__ fails here.
PUBLIC = {
    "OrliczError", "DomainError", "InputError", "NumericError",
    "E", "E0", "YoungFunction", "YoungAxiomReport", "ComparisonResult",
    "check_young", "compare", "default_grid",
    "DiscreteMeasure", "SampledFunction", "ess_sup", "indicator",
    "level_set_measure", "load_csv", "quadrature_from_samples", "truncate",
    "NormResult", "NormStatus", "modular", "luxemburg_norm",
    "char_norm_closed_form", "p_norm",
    "ConvergenceReport", "LiminfBoundRecord", "DeltaRelationRecord",
    "ThresholdRecord", "TruncationReport", "EquivalenceRecord", "LogRatioRecord",
    "limit_sweep", "classical_p_sweep", "liminf_bound_check", "delta_relation_check",
    "upper_bound_threshold", "truncation_sweep", "log_ratio_bound_check",
    "equivalence_norm_check",
}

# Public in their modules but not re-exported by the package.
MODULE_ONLY = {
    "young": ["AxiomCheck"],
    "measure": ["check_aligned"],
    "limits": ["ThresholdEntry", "TruncationEntry", "convergence_rows"],
}


# Every optional parameter of a public callable, so that an option is added
# or removed only together with this table.  The census covers each function
# in orlicz.__all__ or MODULE_ONLY, each public method of a class there, and
# the constructor of each dataclass there.  The four options each have a
# caller that sets them: the CLI's --q, --shift and --tol.
OPTIONS = {
    "YoungFunction": ("q", "shift"),
    "luxemburg_norm": ("tol",),
    "limit_sweep": ("tol",),
}
# Field defaults of the records the library builds and returns; no caller
# constructs these, so their defaults are not options.
RECORD_DEFAULTS = {
    "AxiomCheck": ("violation_t",),
    "NormResult": ("pruned_mass", "pruned_bound"),
}


def optional_parameters():
    found = {}

    def record(name, fn):
        params = inspect.signature(fn).parameters.values()
        optional = tuple(p.name for p in params if p.default is not p.empty)
        if optional:
            found[name] = optional

    public = [(name, getattr(orlicz, name)) for name in orlicz.__all__]
    public += [
        (name, getattr(importlib.import_module(f"orlicz.{module}"), name))
        for module, names in MODULE_ONLY.items()
        for name in names
    ]
    for name, obj in public:
        if inspect.isfunction(obj):
            record(name, obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                record(name, obj)
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and not attr.startswith("_"):
                    record(f"{name}.{attr}", member)
    return found


def test_optional_parameters_are_pinned():
    assert optional_parameters() == {**OPTIONS, **RECORD_DEFAULTS}
    assert sum(len(names) for names in OPTIONS.values()) == 4


def test_young_function_is_not_callable():
    # A(t) has one spelling, A.value(t)
    assert not callable(orlicz.YoungFunction.power(2))


def test_all_holds_the_public_names_once():
    assert len(PUBLIC) == 41
    assert sorted(orlicz.__all__) == sorted(PUBLIC)
    assert len(orlicz.__all__) == len(set(orlicz.__all__))


def test_all_concatenates_the_module_lists():
    assert orlicz.__all__ == [name for m in MODULES for name in m.__all__]


def test_every_name_resolves_to_its_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(orlicz, name) is getattr(m, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from orlicz import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


@pytest.mark.parametrize("module, names", MODULE_ONLY.items())
def test_module_only_names_import_from_their_module(module, names):
    mod = importlib.import_module(f"orlicz.{module}")
    for name in names:
        assert name not in orlicz.__all__
        assert getattr(mod, name).__module__ == mod.__name__
