import importlib

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
    "BoundCheck", "ConvergenceReport", "LiminfBoundRecord", "DeltaRelationRecord",
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


def test_all_holds_the_public_names_once():
    assert len(PUBLIC) == 42
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
