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
from typing import NamedTuple

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
from .matrices import classify, determinant, field_of, kronecker_product
from .spaces import Basis, LinearMapRep, VectorSpace, change_of_basis, conjugate_representation
from .tensors import contract, kron_flatten, sort_slots, tensor_product
from .tensors import tensor_from_bra, tensor_from_ket, tensor_from_operator
from .unitary import InnerProduct, adjoint, is_selfadjoint, is_unitary_wrt
from .unitary import spectral_representation, standard_inner_product

__all__ = ["main", "OPERATION_COVERAGE", "SUBCOMMANDS"]


class _Command(NamedTuple):
    """A subcommand's help text and flags.  Its handler ``_cmd_<name>`` is
    called as ``(args, *documents)`` and looked up when the command runs,
    so a rebinding of the module attribute (a span tracer's) takes effect."""

    help: str
    documents: tuple = (0,)  # the accepted numbers of --in documents
    gram: bool = False
    hform: str = ""  # "optional" or "required" when the command takes --hform


_COMMANDS = {
    "det": _Command("determinant of a square document", (1,)),
    "eig": _Command("spectral decomposition of a Hermitian document", (1,)),
    "spectral": _Command(
        "spectral decomposition w.r.t. a Gram matrix (or Dirac-spectral with --hform)",
        (1,), gram=True, hform="optional",
    ),
    "adjoint": _Command("adjoint w.r.t. a Gram matrix", (1,), gram=True),
    "dirac-adjoint": _Command(
        "Dirac adjoint of a ket, bra, or operator document", (1,), gram=True, hform="required"
    ),
    "signature": _Command("signature of an indefinite form", gram=True, hform="required"),
    "canonical-basis": _Command(
        "basis bringing the form to diag(+1.., -1..)", gram=True, hform="required"
    ),
    "projectors": _Command(
        "projectors onto the positive/negative metric subspaces", gram=True, hform="required"
    ),
    "tensor-product": _Command("tensor product of two documents, slot-sorted and flattened", (2,)),
    "contract": _Command("trace contraction of an operator document", (1,)),
    "kron": _Command("Kronecker product of two documents", (2,)),
    "change-basis": _Command("change-of-basis matrix (and optional operator conjugation)", (2, 3)),
    "check": _Command("membership/structure predicates", (1,), gram=True, hform="optional"),
    "verify": _Command("run the seeded lemma verification suite"),
}

SUBCOMMANDS = tuple(_COMMANDS)

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
    """A usage error that argparse alone cannot reject; exits 2 like one."""


def _load(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        return parse_matrix_document(handle.read())


def _structure(args):
    k = _load(args.hform)
    if args.gram:
        return metric_structure_from(_load(args.gram), k)
    return compatible_structure_from_hform(k)


def _inner_product(args, matrix: np.ndarray) -> InnerProduct:
    n = matrix.shape[0]
    if args.gram:
        g = _load(args.gram)
        return InnerProduct(VectorSpace(g.shape[0], field_of(g), "V"), g)
    return standard_inner_product(VectorSpace(n, field_of(matrix), "V"))


def _decomposition_result(dec) -> dict:
    return {
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": [int(m) for m in dec.multiplicities],
        "projectors": [matrix_document(p) for p in dec.projectors],
    }


def _cmd_det(args, matrix) -> dict:
    return {"det": scalar_pair(determinant(matrix))}


def _cmd_eig(args, matrix) -> dict:
    return _decomposition_result(eigen_hermitian(matrix))


def _cmd_spectral(args, f) -> dict:
    if args.hform:
        dec = dirac_spectral(f, _structure(args))
        out = _decomposition_result(dec)
        out["metric"] = matrix_document(dec.metric)
        return out
    return _decomposition_result(spectral_representation(f, _inner_product(args, f)))


def _cmd_adjoint(args, f) -> dict:
    return {"matrix": matrix_document(adjoint(f, _inner_product(args, f)))}


def _cmd_dirac_adjoint(args, x) -> dict:
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
    return {"basis": matrix_document(hb.basis.matrix), "eta": [int(e) for e in hb.eta_diag]}


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


def _cmd_tensor_product(args, a, b) -> dict:
    dim = _tensor_dim(a)
    product = tensor_product(_as_tensor(a, dim), _as_tensor(b, dim))
    sorted_tensor, permutation = sort_slots(product)
    return {
        "result": matrix_document(kron_flatten(sorted_tensor)),
        "signature": list(sorted_tensor.variance),
        "slot_permutation": list(permutation),
    }


def _cmd_contract(args, f) -> dict:
    t = _as_tensor(f, _tensor_dim(f))
    if t.rank != 2:
        raise ShapeError("contract expects a square operator document")
    return {"result": scalar_pair(contract(t, 1, 2).components[()])}


def _cmd_kron(args, a, b) -> dict:
    return {"matrix": matrix_document(kronecker_product(a, b))}


def _cmd_change_basis(args, old_m, new_m, f=None) -> dict:
    space = VectorSpace(old_m.shape[0], field_of(old_m), "V")
    old = Basis(space, old_m)
    new = Basis(space, new_m)
    out = {"matrix": matrix_document(change_of_basis(old, new))}
    if f is not None:
        rep = LinearMapRep(old, old, f)
        out["operator"] = matrix_document(conjugate_representation(rep, new).matrix)
    return out


def _cmd_check(args, f) -> dict:
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
    return {"result": is_pseudo_orthogonal(f, ms), "det": scalar_pair(determinant(f))}


def _cmd_verify(args) -> dict:
    dims = DEFAULT_DIMS if args.dims is None else args.dims
    try:
        reports = run_lemma_suite(args.seed, dims=dims, instances=args.instances)
    except ValueError as exc:  # the suite's own range checks on dims and instances
        raise _UsageError(str(exc)) from None
    return {
        "seed": args.seed,
        "dims": list(dims),
        "instances": args.instances,
        "status": "pass" if all(r.status == "pass" for r in reports) else "fail",
        "reports": [r.to_dict() for r in reports],
    }


def _dims_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinalg",
        description="Linear algebra over definite and indefinite inner products.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        if max(command.documents):
            p.add_argument("--in", dest="infile", action="append", default=[], metavar="DOC.json",
                           help="input matrix document (repeat for multi-input commands)")
        if command.gram:
            p.add_argument("--gram", metavar="G.json", help="Gram matrix of the inner product")
        if command.hform:
            p.add_argument("--hform", metavar="K.json", required=command.hform == "required",
                           help="Gram matrix of the indefinite form")
        p.add_argument("--out", metavar="PATH", help="write the JSON result to a file")
    sub.choices["check"].add_argument("--kind", choices=CHECK_KINDS, required=True)
    verify = sub.choices["verify"]
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--dims", type=_dims_list, default=None, metavar="1,2,3")
    verify.add_argument("--instances", type=int, default=5)
    return parser


def main(argv=None) -> int:
    """Parse argv (``sys.argv[1:]`` when None), run the subcommand, and emit
    JSON; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    paths = getattr(args, "infile", [])
    counts = _COMMANDS[args.command].documents
    try:
        if len(paths) not in counts:
            raise _UsageError(
                f"{args.command} takes {' or '.join(map(str, counts))} --in document(s), "
                f"got {len(paths)}"
            )
        documents = [_load(path) for path in paths]
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        result = handler(args, *documents)
        text = dumps(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2
    except KreinAlgError as exc:
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(dumps({"error": "IOError", "message": str(exc)}))
        return 1
    return 1 if result.get("status") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
