"""Batch command line front end.

Matrices travel as JSON documents (see :mod:`kreinalg.io`); results are
compact JSON on standard output (or the ``--out`` file).  Exit codes:
0 on success, 1 on a domain error (bad mathematics in the input), 2 on a
usage error.  All output is deterministic: identical inputs and seeds
produce byte-identical documents.

Only ``errors``, ``io`` and ``matrices`` run at import.  The other layers
are bound as modules and read by the handlers at request time, so each
request runs the bodies of the layers its subcommand uses, and a rebinding
of a layer's attribute (a span tracer's) is the one that runs.

A request process runs without the cyclic garbage collector: ``python -m
kreinalg.cli`` turns it off before this module imports numpy and the
layers, and the process entry :func:`run` (the installed ``kreinalg``
command) turns it off, runs :func:`main` and freezes the heap before it
exits, so the interpreter's exit collection has nothing to scan.
``import kreinalg.cli`` and in-process ``main(argv)`` leave the collector
as they found it.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()

import argparse
import sys
from typing import NamedTuple

import numpy as np

from . import eigen, indefinite, lemmas, spaces, tensors, unitary
from .errors import KreinAlgError, ShapeError
from .io import dumps, matrix_document, parse_matrix_document, scalar_pair
from .matrices import classify, determinant, field_of, kronecker_product

__all__ = ["main", "run", "OPERATION_COVERAGE", "SUBCOMMANDS"]


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
        return indefinite.metric_structure_from(_load(args.gram), k)
    return indefinite.compatible_structure_from_hform(k)


def _inner_product(args, matrix: np.ndarray) -> unitary.InnerProduct:
    n = matrix.shape[0]
    if args.gram:
        g = _load(args.gram)
        return unitary.InnerProduct(spaces.VectorSpace(g.shape[0], field_of(g), "V"), g)
    return unitary.standard_inner_product(spaces.VectorSpace(n, field_of(matrix), "V"))


def _decomposition_result(dec) -> dict:
    return {
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": [int(m) for m in dec.multiplicities],
        "projectors": [matrix_document(p) for p in dec.projectors],
    }


def _cmd_det(args, matrix) -> dict:
    return {"det": scalar_pair(determinant(matrix))}


def _cmd_eig(args, matrix) -> dict:
    return _decomposition_result(eigen.eigen_hermitian(matrix))


def _cmd_spectral(args, f) -> dict:
    if args.hform:
        dec = indefinite.dirac_spectral(f, _structure(args))
        out = _decomposition_result(dec)
        out["metric"] = matrix_document(dec.metric)
        return out
    return _decomposition_result(unitary.spectral_representation(f, _inner_product(args, f)))


def _cmd_adjoint(args, f) -> dict:
    return {"matrix": matrix_document(unitary.adjoint(f, _inner_product(args, f)))}


def _cmd_dirac_adjoint(args, x) -> dict:
    ms = _structure(args)
    if x.shape == (ms.space.dim, 1):
        return {"bra": matrix_document(indefinite.dirac_adjoint_vector(x, ms))}
    if x.shape == (1, ms.space.dim):
        return {"ket": matrix_document(indefinite.dirac_adjoint_covector(x, ms))}
    return {"matrix": matrix_document(indefinite.dirac_adjoint_operator(x, ms))}


def _cmd_signature(args) -> dict:
    n_plus, n_minus = _structure(args).signature
    return {"n_plus": n_plus, "n_minus": n_minus}


def _cmd_canonical_basis(args) -> dict:
    hb = indefinite.h_orthonormal_basis(_structure(args))
    return {"basis": matrix_document(hb.basis.matrix), "eta": [int(e) for e in hb.eta_diag]}


def _cmd_projectors(args) -> dict:
    p_plus, p_minus = indefinite.canonical_projectors(_structure(args))
    return {"p_plus": matrix_document(p_plus), "p_minus": matrix_document(p_minus)}


def _as_tensor(matrix: np.ndarray, dim: int):
    space = spaces.VectorSpace(dim, field_of(matrix), "V")
    if matrix.shape == (dim, 1):
        return tensors.tensor_from_ket(space, matrix)
    if matrix.shape == (1, dim):
        return tensors.tensor_from_bra(space, matrix)
    if matrix.shape == (dim, dim):
        return tensors.tensor_from_operator(space, matrix)
    raise ShapeError(f"cannot interpret a {matrix.shape} document as a tensor over dimension {dim}")


def _tensor_dim(matrix: np.ndarray) -> int:
    rows, cols = matrix.shape
    if rows == 1 or cols == 1:
        return max(rows, cols)
    if rows == cols:
        return rows
    raise ShapeError(f"a {matrix.shape} document is not a ket, bra, or square operator")


def _cmd_tensor_product(args, a, b) -> dict:
    dim = _tensor_dim(a)
    product = tensors.tensor_product(_as_tensor(a, dim), _as_tensor(b, dim))
    sorted_tensor, permutation = tensors.sort_slots(product)
    return {
        "result": matrix_document(tensors.kron_flatten(sorted_tensor)),
        "signature": list(sorted_tensor.variance),
        "slot_permutation": list(permutation),
    }


def _cmd_contract(args, f) -> dict:
    t = tensors.tensor_from_operator(spaces.VectorSpace(f.shape[0], field_of(f), "V"), f)
    return {"result": scalar_pair(tensors.contract(t, 1, 2).components[()])}


def _cmd_kron(args, a, b) -> dict:
    return {"matrix": matrix_document(kronecker_product(a, b))}


def _cmd_change_basis(args, old_m, new_m, f=None) -> dict:
    space = spaces.VectorSpace(old_m.shape[0], field_of(old_m), "V")
    old = spaces.Basis(space, old_m)
    new = spaces.Basis(space, new_m)
    out = {"matrix": matrix_document(spaces.change_of_basis(old, new))}
    if f is not None:
        rep = spaces.LinearMapRep(old, old, f)
        out["operator"] = matrix_document(spaces.conjugate_representation(rep, new).matrix)
    return out


def _cmd_check(args, f) -> dict:
    kind = args.kind
    if kind in ("dirac-selfadjoint", "pseudo-unitary", "pseudo-orthogonal") and not args.hform:
        raise _UsageError(f"check --kind {kind} requires --hform")
    if kind == "hermitian":
        return {"result": "hermitian" in classify(f)}
    if kind == "unitary":
        if args.gram:
            result = unitary.is_unitary_wrt(f, _inner_product(args, f))
        else:
            result = "unitary" in classify(f)
        return {"result": bool(result), "det": scalar_pair(determinant(f))}
    if kind == "orthogonal":
        return {"result": indefinite.is_orthogonal(f), "det": scalar_pair(determinant(f))}
    if kind == "selfadjoint":
        return {"result": unitary.is_selfadjoint(f, _inner_product(args, f))}
    ms = _structure(args)
    if kind == "dirac-selfadjoint":
        return {"result": indefinite.is_dirac_selfadjoint(f, ms)}
    if kind == "pseudo-unitary":
        return {"result": indefinite.is_pseudo_unitary(f, ms)}
    return {"result": indefinite.is_pseudo_orthogonal(f, ms), "det": scalar_pair(determinant(f))}


def _cmd_verify(args) -> dict:
    dims = lemmas.DEFAULT_DIMS if args.dims is None else args.dims
    try:
        reports = lemmas.run_lemma_suite(args.seed, dims=dims, instances=args.instances)
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


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: every subcommand's, or only ``only``'s if it names one.

    A request names its subcommand first, so :func:`main` builds just that
    subparser.  The usage line then spells out every choice itself, so each
    message has the bytes the full parser would give it.
    """
    parser = argparse.ArgumentParser(
        prog="kreinalg",
        description="Linear algebra over definite and indefinite inner products.",
        allow_abbrev=False,
    )
    names = list(_COMMANDS)
    if only in _COMMANDS:
        metavar = "{" + ",".join(names) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = [only]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        command = _COMMANDS[name]
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
        if name == "check":
            p.add_argument("--kind", choices=CHECK_KINDS, required=True)
        elif name == "verify":
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--dims", type=_dims_list, default=None, metavar="1,2,3")
            p.add_argument("--instances", type=int, default=5)
    return parser


def main(argv=None) -> int:
    """Parse argv (``sys.argv[1:]`` when None), run the subcommand, and emit
    JSON; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
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
        # A result outside the double range is answered by dumps' SchemaError.
        with np.errstate(over="ignore", invalid="ignore"):
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


def run() -> None:
    """The process entry: :func:`main` on ``sys.argv``, then exit with its code.

    A request makes no reference cycles worth collecting, so the cyclic
    collector stays off, and every object is frozen before the exit, so
    the interpreter's final collection has nothing left to scan.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
