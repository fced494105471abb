"""The top-level names of the package, and where they come from."""

import schurvar
from schurvar import domains, errors, polynomials, quadrature, regions, schur

PUBLIC = [
    "__version__",
    "SchurvarError",
    "ContractViolation",
    "DegenerateDenominator",
    "QuadratureNonConvergence",
    "GeometryDegenerate",
    "BranchCutHit",
    "CaratheodoryData",
    "ToleranceConfig",
    "SchurClassification",
    "Interior",
    "Boundary",
    "Exterior",
    "ExteriorReason",
    "schur_parameters",
    "data_from_parameters",
    "SchurPolynomialSet",
    "build_polynomials",
    "identity_residuals",
    "DomainMap",
    "half_plane",
    "disk",
    "strip",
    "parse_domain",
    "RegionRequest",
    "RegionResult",
    "Empty",
    "SinglePoint",
    "Jordan",
    "OracleSample",
    "region",
    "oracle_samples",
    "contains",
    "containment_depths",
]
MODULES = (errors, schur, polynomials, domains, quadrature, regions)


def test_top_level_surface_is_pinned():
    assert len(set(PUBLIC)) == 34
    assert schurvar.__all__ == PUBLIC


def test_top_level_is_the_union_of_the_module_surfaces():
    union = set().union(*(module.__all__ for module in MODULES))
    assert sum(len(module.__all__) for module in MODULES) == len(union)
    assert set(schurvar.__all__) == {"__version__"} | union


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(schurvar, name) is getattr(module, name), name
    assert isinstance(schurvar.__version__, str)


def test_internals_stay_importable_from_their_modules():
    for module, name in (
        (quadrature, "integrate_segment"),
        (regions, "integrand"),
        (regions, "q_value"),
        (regions, "boundary_curve"),
        (polynomials, "lift"),
        (polynomials, "eval_poly"),
        (schur, "schur_step"),
    ):
        assert callable(getattr(module, name))
        assert not hasattr(schurvar, name)


def test_resolved_names_follow_their_module_attribute(monkeypatch):
    # the package resolves a name on each use and keeps none: the benchmark's
    # tracer swaps module attributes, and a name resolved while one was
    # swapped must not keep the swapped object once it is put back
    original = regions.region
    monkeypatch.setattr(regions, "region", len)
    assert schurvar.region is len
    monkeypatch.undo()
    assert schurvar.region is original
    assert "region" not in vars(schurvar)
