"""The package's public surface is the union of its layers' ``__all__``."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import kreinalg

LAYERS = ("errors", "matrices", "spaces", "tensors", "eigen", "unitary", "indefinite")

# The 89 names the package exported before it re-exported each layer's __all__;
# each must keep resolving to its layer's own object.
LISTED = {
    "errors": (
        "CompatibilityError", "ConvergenceError", "DegenerateFormError", "DependentSetError",
        "FieldError", "KreinAlgError", "ParseError", "SchemaError", "ShapeError",
        "SingularBasisError", "SpaceError", "SymmetryError", "VarianceError",
    ),
    "matrices": (
        "COMPLEX", "REAL", "classify", "determinant", "determinant_permutation_sum",
        "elementary_projector", "hermitian_conjugate", "identity", "kronecker_product", "matmul",
        "natural_bra", "natural_ket",
    ),
    "spaces": (
        "Basis", "CovectorInBasis", "LinearMapRep", "VectorInBasis", "VectorSpace",
        "canonical_form_bases", "change_of_basis", "conjugate_representation", "dual_basis",
        "kernel_dimension", "natural_basis", "operator_determinant", "rank", "rep_covector",
        "rep_vector", "represent_map",
    ),
    "tensors": (
        "DOWN", "UP", "Tensor", "contract", "full_trace", "kron_flatten", "kron_unflatten",
        "scalar_tensor", "sort_slots", "tensor_from_bra", "tensor_from_ket", "tensor_from_operator",
        "tensor_product", "transform_tensor",
    ),
    "eigen": (
        "SpectralDecomposition", "charpoly_eigenvalues", "eigen_hermitian", "jacobi_hermitian",
    ),
    "unitary": (
        "InnerProduct", "adjoint", "inner_product", "is_selfadjoint", "is_unitary_wrt", "norm",
        "orthonormalize", "riesz_inverse", "riesz_map", "spectral_representation",
        "standard_inner_product",
    ),
    "indefinite": (
        "DiracSpectralDecomposition", "HForm", "HOrthonormalBasis", "MetricStructure",
        "canonical_projectors", "compatible_structure_from_hform", "dirac_adjoint_covector",
        "dirac_adjoint_operator", "dirac_adjoint_vector", "dirac_spectral", "h_orthonormal_basis",
        "hform_value", "is_dirac_selfadjoint", "is_orthogonal", "is_pseudo_orthogonal",
        "is_pseudo_unitary", "metric_structure_from", "minkowski_structure", "raise_lower_index",
    ),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_name_is_the_layers_object(layer):
    module = importlib.import_module(f"kreinalg.{layer}")
    assert module.__all__
    assert [name for name in module.__all__ if getattr(kreinalg, name) is not getattr(module, name)] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_formerly_listed_names_still_resolve(layer):
    module = importlib.import_module(f"kreinalg.{layer}")
    assert [name for name in LISTED[layer] if getattr(kreinalg, name) is not getattr(module, name)] == []


def test_star_import_binds_every_layer_name_to_the_layers_object():
    namespace = {}
    exec("from kreinalg import *", namespace)
    del namespace["__builtins__"]
    expected = {}
    for layer in LAYERS:
        module = importlib.import_module(f"kreinalg.{layer}")
        expected.update((name, getattr(module, name)) for name in module.__all__)
    assert namespace.keys() == expected.keys()
    assert [name for name, obj in expected.items() if namespace[name] is not obj] == []


def test_dir_lists_every_layer_name_and_submodule():
    names = set(dir(kreinalg))
    assert set(kreinalg.__all__) <= names
    assert {*LAYERS, "policy", "io", "generators", "lemmas"} <= names


# Imports the package in a fresh interpreter and prints the JSON list of
# source files whose module bodies ran, as seen by the "exec" audit event.
_IMPORT_ONLY = """
import json, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
import kreinalg
print(json.dumps(ran))
"""


def test_import_runs_no_layer_body_but_errors():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ran = [pathlib.Path(p) for p in json.loads(proc.stdout)]
    assert sorted(p.stem for p in ran if p.parent == src / "kreinalg") == ["__init__", "errors"]
