"""Batch command line front end.

Matrices travel as JSON documents (see :mod:`kreinalg.io`); results are
compact JSON on standard output (or the ``--out`` file).  Exit codes:
0 on success, 1 on a domain error (bad mathematics in the input), 2 on a
usage error.  All output is deterministic: identical inputs and seeds
produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import KreinAlgError, ShapeError
from .eigen import eigen_hermitian
from .indefinite import (
    canonical_projectors,
    compatible_structure_from_hform,
    dirac_adjoint_covector,
    dirac_adjoint_operator,
    dirac_adjoint_vector,
    dirac_spectral,
    h_orthonormal_basis,
    is_dirac_selfadjoint,
    is_orthogonal,
    is_pseudo_orthogonal,
    is_pseudo_unitary,
    metric_structure_from,
)
from .io import dumps, matrix_document, parse_matrix_document, scalar_pair
from .lemmas import DEFAULT_DIMS, run_lemma_suite
from .matrices import classify, determinant, kronecker_product
from .spaces import Basis, LinearMapRep, VectorSpace, change_of_basis, conjugate_representation
from .tensors import (
    contract,
    kron_flatten,
    sort_slots,
    tensor_from_bra,
    tensor_from_ket,
    tensor_from_operator,
    tensor_product,
)
from .matrices import field_of
from .unitary import InnerProduct, adjoint, is_selfadjoint, is_unitary_wrt
from .unitary import spectral_representation, standard_inner_product

__all__ = ["main", "run_subcommand", "OPERATION_COVERAGE", "SUBCOMMANDS"]

SUBCOMMANDS = (
    "det",
    "eig",
    "spectral",
    "adjoint",
    "dirac-adjoint",
    "signature",
    "canonical-basis",
    "projectors",
    "tensor-product",
    "contract",
    "kron",
    "change-basis",
    "check",
    "verify",
)

CHECK_KINDS = (
    "hermitian",
    "unitary",
    "orthogonal",
    "selfadjoint",
    "dirac-selfadjoint",
    "pseudo-unitary",
    "pseudo-orthogonal",
)

# Designated subcommand for every public library operation.  "verify"
# entries are exercised by the lemma suite; the registry test asserts the
# mapping is total and one-to-one over the public operation inventory.
OPERATION_COVERAGE = {
    "matmul": "verify",
    "hermitian_conjugate": "verify",
    "determinant": "det",
    "determinant_permutation_sum": "verify",
    "kronecker_product": "kron",
    "classify": "check",
    "dual_basis": "verify",
    "rep_vector": "verify",
    "rep_covector": "verify",
    "change_of_basis": "change-basis",
    "represent_map": "verify",
    "conjugate_representation": "change-basis",
    "operator_determinant": "verify",
    "tensor_product": "tensor-product",
    "contract": "contract",
    "transform_tensor": "verify",
    "sort_slots": "tensor-product",
    "kron_flatten": "tensor-product",
    "kron_unflatten": "verify",
    "inner_product": "verify",
    "norm": "verify",
    "riesz_map": "verify",
    "orthonormalize": "verify",
    "adjoint": "adjoint",
    "eigen_hermitian": "eig",
    "spectral_representation": "spectral",
    "is_selfadjoint": "check",
    "is_unitary_wrt": "check",
    "metric_structure_from": "signature",
    "compatible_structure_from_hform": "signature",
    "canonical_projectors": "projectors",
    "h_orthonormal_basis": "canonical-basis",
    "dirac_adjoint_vector": "dirac-adjoint",
    "dirac_adjoint_covector": "dirac-adjoint",
    "dirac_adjoint_operator": "dirac-adjoint",
    "is_dirac_selfadjoint": "check",
    "is_pseudo_unitary": "check",
    "dirac_spectral": "spectral",
    "raise_lower_index": "verify",
    "is_orthogonal": "check",
    "is_pseudo_orthogonal": "check",
    "run_lemma_suite": "verify",
    "parse_matrix_document": "det",
}


class _UsageError(Exception):
    """Flag combination that argparse alone cannot reject."""


def _load(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        return parse_matrix_document(handle.read())


def _one_input(args) -> np.ndarray:
    if len(args.infile) != 1:
        raise _UsageError(f"{args.command} takes exactly one --in document")
    return _load(args.infile[0])


def _structure(args):
    k = _load(args.hform)
    if getattr(args, "gram", None):
        return metric_structure_from(_load(args.gram), k)
    return compatible_structure_from_hform(k)


def _inner_product(args, matrix: np.ndarray) -> InnerProduct:
    n = matrix.shape[0]
    if getattr(args, "gram", None):
        g = _load(args.gram)
        return InnerProduct(VectorSpace(g.shape[0], field_of(g), "V"), g)
    return standard_inner_product(VectorSpace(n, field_of(matrix), "V"))


def _decomposition_result(dec) -> dict:
    return {
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": [int(m) for m in dec.multiplicities],
        "projectors": [matrix_document(p) for p in dec.projectors],
    }


def _cmd_det(args) -> dict:
    return {"det": scalar_pair(determinant(_one_input(args)))}


def _cmd_eig(args) -> dict:
    return _decomposition_result(eigen_hermitian(_one_input(args)))


def _cmd_spectral(args) -> dict:
    f = _one_input(args)
    if args.hform:
        ms = _structure(args)
        dec = dirac_spectral(f, ms)
        out = _decomposition_result(dec)
        out["metric"] = matrix_document(dec.metric)
        return out
    return _decomposition_result(spectral_representation(f, _inner_product(args, f)))


def _cmd_adjoint(args) -> dict:
    f = _one_input(args)
    return {"matrix": matrix_document(adjoint(f, _inner_product(args, f)))}


def _cmd_dirac_adjoint(args) -> dict:
    x = _one_input(args)
    ms = _structure(args)
    if x.shape == (ms.space.dim, 1):
        return {"bra": matrix_document(dirac_adjoint_vector(x, ms))}
    if x.shape == (1, ms.space.dim):
        return {"ket": matrix_document(dirac_adjoint_covector(x, ms))}
    return {"matrix": matrix_document(dirac_adjoint_operator(x, ms))}


def _cmd_signature(args) -> dict:
    n_plus, n_minus = _structure(args).signature
    return {"n_plus": n_plus, "n_minus": n_minus}


def _cmd_canonical_basis(args) -> dict:
    hb = h_orthonormal_basis(_structure(args))
    return {
        "basis": matrix_document(hb.basis.matrix),
        "eta": [int(e) for e in hb.eta_diag],
    }


def _cmd_projectors(args) -> dict:
    p_plus, p_minus = canonical_projectors(_structure(args))
    return {"p_plus": matrix_document(p_plus), "p_minus": matrix_document(p_minus)}


def _as_tensor(matrix: np.ndarray, dim: int):
    if matrix.shape == (dim, 1):
        return tensor_from_ket(VectorSpace(dim, field_of(matrix), "V"), matrix)
    if matrix.shape == (1, dim):
        return tensor_from_bra(VectorSpace(dim, field_of(matrix), "V"), matrix)
    if matrix.shape == (dim, dim):
        return tensor_from_operator(VectorSpace(dim, field_of(matrix), "V"), matrix)
    raise ShapeError(
        f"cannot interpret a {matrix.shape} document as a tensor over dimension {dim}"
    )


def _tensor_dim(matrix: np.ndarray) -> int:
    rows, cols = matrix.shape
    if rows == 1 or cols == 1:
        return max(rows, cols)
    if rows == cols:
        return rows
    raise ShapeError(f"a {matrix.shape} document is not a ket, bra, or square operator")


def _cmd_tensor_product(args) -> dict:
    if len(args.infile) != 2:
        raise ShapeError("tensor-product needs exactly two --in documents")
    a = _load(args.infile[0])
    b = _load(args.infile[1])
    dim = _tensor_dim(a)
    product = tensor_product(_as_tensor(a, dim), _as_tensor(b, dim))
    sorted_tensor, permutation = sort_slots(product)
    return {
        "result": matrix_document(kron_flatten(sorted_tensor)),
        "signature": list(sorted_tensor.variance),
        "slot_permutation": list(permutation),
    }


def _cmd_contract(args) -> dict:
    f = _one_input(args)
    t = _as_tensor(f, _tensor_dim(f))
    if t.rank != 2:
        raise ShapeError("contract expects a square operator document")
    return {"result": scalar_pair(contract(t, 1, 2).components[()])}


def _cmd_kron(args) -> dict:
    if len(args.infile) != 2:
        raise ShapeError("kron needs exactly two --in documents")
    return {
        "matrix": matrix_document(
            kronecker_product(_load(args.infile[0]), _load(args.infile[1]))
        )
    }


def _cmd_change_basis(args) -> dict:
    if len(args.infile) not in (2, 3):
        raise ShapeError(
            "change-basis needs two --in documents (old and new basis), "
            "plus an optional operator document"
        )
    old_m = _load(args.infile[0])
    new_m = _load(args.infile[1])
    space = VectorSpace(old_m.shape[0], field_of(old_m), "V")
    old = Basis(space, old_m)
    new = Basis(space, new_m)
    out = {"matrix": matrix_document(change_of_basis(old, new))}
    if len(args.infile) == 3:
        f = _load(args.infile[2])
        rep = LinearMapRep(old, old, f)
        out["operator"] = matrix_document(conjugate_representation(rep, new).matrix)
    return out


def _cmd_check(args) -> dict:
    f = _one_input(args)
    kind = args.kind
    if kind in ("dirac-selfadjoint", "pseudo-unitary", "pseudo-orthogonal") and not args.hform:
        raise _UsageError(f"check --kind {kind} requires --hform")
    if kind == "hermitian":
        return {"result": "hermitian" in classify(f)}
    if kind == "unitary":
        if args.gram:
            result = is_unitary_wrt(f, _inner_product(args, f))
        else:
            result = "unitary" in classify(f)
        return {"result": bool(result), "det": scalar_pair(determinant(f))}
    if kind == "orthogonal":
        return {"result": is_orthogonal(f), "det": scalar_pair(determinant(f))}
    if kind == "selfadjoint":
        return {"result": is_selfadjoint(f, _inner_product(args, f))}
    ms = _structure(args)
    if kind == "dirac-selfadjoint":
        return {"result": is_dirac_selfadjoint(f, ms)}
    if kind == "pseudo-unitary":
        return {"result": is_pseudo_unitary(f, ms)}
    return {
        "result": is_pseudo_orthogonal(f, ms),
        "det": scalar_pair(determinant(f)),
    }


def _cmd_verify(args) -> dict:
    dims = tuple(args.dims) if args.dims else DEFAULT_DIMS
    reports = run_lemma_suite(args.seed, dims=dims, instances=args.instances)
    return {
        "seed": args.seed,
        "dims": list(dims),
        "instances": args.instances,
        "status": "pass" if all(r.status == "pass" for r in reports) else "fail",
        "reports": [r.to_dict() for r in reports],
    }


def _dims_list(text: str):
    try:
        dims = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims list {text!r}")
    if not dims or any(d < 1 or d > 12 for d in dims):
        raise argparse.ArgumentTypeError("dims must be a comma list within 1..12")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinalg",
        description="Linear algebra over definite and indefinite inner products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext, *, infiles=0, gram=False, hform=False, hform_required=False):
        p = sub.add_parser(name, help=helptext)
        if infiles:
            p.add_argument(
                "--in",
                dest="infile",
                action="append",
                required=True,
                metavar="DOC.json",
                help="input matrix document (repeat for multi-input commands)",
            )
        if gram:
            p.add_argument("--gram", metavar="G.json", help="Gram matrix of the inner product")
        if hform:
            p.add_argument(
                "--hform",
                metavar="K.json",
                required=hform_required,
                help="Gram matrix of the indefinite form",
            )
        p.add_argument("--out", metavar="PATH", help="write the JSON result to a file")
        p.set_defaults(func=handler)
        return p

    add("det", _cmd_det, "determinant of a square document", infiles=1)
    add("eig", _cmd_eig, "spectral decomposition of a Hermitian document", infiles=1)
    add(
        "spectral",
        _cmd_spectral,
        "spectral decomposition w.r.t. a Gram matrix (or Dirac-spectral with --hform)",
        infiles=1,
        gram=True,
        hform=True,
    )
    add("adjoint", _cmd_adjoint, "adjoint w.r.t. a Gram matrix", infiles=1, gram=True)
    add(
        "dirac-adjoint",
        _cmd_dirac_adjoint,
        "Dirac adjoint of a ket, bra, or operator document",
        infiles=1,
        gram=True,
        hform=True,
        hform_required=True,
    )
    add("signature", _cmd_signature, "signature of an indefinite form", gram=True, hform=True, hform_required=True)
    add(
        "canonical-basis",
        _cmd_canonical_basis,
        "basis bringing the form to diag(+1.., -1..)",
        gram=True,
        hform=True,
        hform_required=True,
    )
    add(
        "projectors",
        _cmd_projectors,
        "projectors onto the positive/negative metric subspaces",
        gram=True,
        hform=True,
        hform_required=True,
    )
    add(
        "tensor-product",
        _cmd_tensor_product,
        "tensor product of two documents, slot-sorted and flattened",
        infiles=1,
    )
    add("contract", _cmd_contract, "trace contraction of an operator document", infiles=1)
    add("kron", _cmd_kron, "Kronecker product of two documents", infiles=1)
    add(
        "change-basis",
        _cmd_change_basis,
        "change-of-basis matrix (and optional operator conjugation)",
        infiles=1,
    )
    check = add("check", _cmd_check, "membership/structure predicates", infiles=1, gram=True, hform=True)
    check.add_argument("--kind", choices=CHECK_KINDS, required=True)

    verify = sub.add_parser("verify", help="run the seeded lemma verification suite")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--dims", type=_dims_list, default=None, metavar="1,2,3")
    verify.add_argument("--instances", type=_positive_int, default=5)
    verify.add_argument("--out", metavar="PATH")
    verify.set_defaults(func=_cmd_verify)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def run_subcommand(argv) -> int:
    """Parse argv, run the handler, and emit JSON; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2
    except KreinAlgError as exc:
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(dumps({"error": "IOError", "message": str(exc)}))
        return 1
    text = dumps(result)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.command == "verify" and result["status"] != "pass":
        return 1
    return 0


def main(argv=None) -> int:
    code = run_subcommand(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
