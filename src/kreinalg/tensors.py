"""Variance-tagged tensors over a single space and its dual.

A tensor holds one dense axis per slot, each of extent ``dim``, plus a
variance tag ("up" for vector slots, "down" for covector slots).  Slot
indices are 1-based in the public API.  Slot order is significant and is
never permuted implicitly; :func:`sort_slots` performs the reordering
explicitly and reports the permutation it applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .errors import ShapeError, SingularBasisError, SpaceError, VarianceError
from .matrices import _on_field
from .spaces import VectorSpace

__all__ = [
    "UP",
    "DOWN",
    "Tensor",
    "scalar_tensor",
    "tensor_from_ket",
    "tensor_from_bra",
    "tensor_from_operator",
    "tensor_product",
    "contract",
    "full_trace",
    "transform_tensor",
    "sort_slots",
    "kron_flatten",
    "kron_unflatten",
]

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class Tensor:
    """Dense components with one up/down-tagged axis per slot.

    The components are cast to the space's field by the rule of
    :func:`kreinalg.matrices.as_matrix`: complex data on a real space
    raises FieldError.
    """

    space: VectorSpace
    variance: tuple  # tuple of UP/DOWN, one entry per slot
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _on_field(self.components, self.space.field))
        expected = (self.space.dim,) * len(self.variance)
        if self.components.shape != expected:
            raise ShapeError(
                f"component shape {self.components.shape} does not match "
                f"{len(self.variance)} slots of extent {self.space.dim}"
            )
        for tag in self.variance:
            if tag not in (UP, DOWN):
                raise VarianceError(f"unknown variance tag {tag!r}")

    @property
    def rank(self) -> int:
        return len(self.variance)

    def slot(self, k: int) -> str:
        """Variance tag of the k-th slot (1-based)."""
        if not 1 <= k <= self.rank:
            raise ShapeError(f"slot index {k} out of range 1..{self.rank}")
        return self.variance[k - 1]


def scalar_tensor(space: VectorSpace, value) -> Tensor:
    """Rank-0 tensor holding a single scalar."""
    return Tensor(space, (), value)


def tensor_from_ket(space: VectorSpace, ket) -> Tensor:
    """Rank-(1,0) tensor from an (n, 1) column."""
    return Tensor(space, (UP,), space.ket(ket).reshape(-1))


def tensor_from_bra(space: VectorSpace, bra) -> Tensor:
    """Rank-(0,1) tensor from a (1, n) row."""
    return Tensor(space, (DOWN,), space.bra(bra).reshape(-1))


def tensor_from_operator(space: VectorSpace, matrix) -> Tensor:
    """Rank-(1,1) tensor from a square operator matrix."""
    return Tensor(space, (UP, DOWN), space.operator(matrix))


def tensor_product(t1: Tensor, t2: Tensor) -> Tensor:
    """Outer product; the result's slots are t1's followed by t2's."""
    if t1.space != t2.space:
        raise SpaceError("tensor product requires tensors over the same space")
    # multiply.outer forms each entry with a single scalar multiplication,
    # so flattening reproduces the Kronecker product bit for bit.
    components = np.multiply.outer(t1.components, t2.components)
    return Tensor(t1.space, t1.variance + t2.variance, components)


def contract(t: Tensor, k: int, l: int) -> Tensor:
    """Sum the diagonal of slots k and l (1-based, opposite variance)."""
    if k == l:
        raise ShapeError("contraction slots must differ")
    tag_k, tag_l = t.slot(k), t.slot(l)
    if tag_k == tag_l:
        raise VarianceError(
            f"cannot contract two {tag_k} slots; one must be up and one down"
        )
    components = np.trace(t.components, axis1=k - 1, axis2=l - 1)
    variance = tuple(tag for i, tag in enumerate(t.variance) if i not in (k - 1, l - 1))
    return Tensor(t.space, variance, components)


def full_trace(t: Tensor):
    """Contract the i-th up slot with the i-th down slot, repeatedly, to a scalar."""
    current = t
    while current.rank:
        ups = [i + 1 for i, tag in enumerate(current.variance) if tag == UP]
        downs = [i + 1 for i, tag in enumerate(current.variance) if tag == DOWN]
        if not ups or not downs:
            raise VarianceError("full trace requires equally many up and down slots")
        current = contract(current, ups[0], downs[0])
    return current.components[()]


def transform_tensor(t: Tensor, m) -> Tensor:
    """Apply a component transformation: up slots by M, down slots by M^{-1}.

    ``m`` is the change-of-components matrix; new up components are
    ``M @ old`` along each up axis, new down components contract the old
    axis with the first index of ``M^{-1}``.
    """
    m = np.asarray(m)
    n = t.space.dim
    if m.shape != (n, n):
        raise ShapeError(f"transformation matrix must be {n}x{n}, got {m.shape}")
    if policy.is_singular(m):
        raise SingularBasisError("transformation matrix is numerically singular")
    m_inv = np.linalg.inv(m)
    components = t.components
    for axis, tag in enumerate(t.variance):
        if tag == UP:
            components = np.moveaxis(
                np.tensordot(m, components, axes=(1, axis)), 0, axis
            )
        else:
            components = np.moveaxis(
                np.tensordot(m_inv, components, axes=(0, axis)), 0, axis
            )
    if components.ndim:
        components = np.ascontiguousarray(components)
    return Tensor(t.space, t.variance, components)


def sort_slots(t: Tensor):
    """Stable-reorder slots so all up slots precede all down slots.

    Returns ``(sorted_tensor, permutation)`` where ``permutation[i]`` is
    the 1-based old position of the i-th new slot.  This is the explicit
    step required before flattening a mixed tensor.
    """
    order = [i for i, tag in enumerate(t.variance) if tag == UP]
    order += [i for i, tag in enumerate(t.variance) if tag == DOWN]
    components = np.ascontiguousarray(np.transpose(t.components, order))
    variance = tuple(t.variance[i] for i in order)
    return Tensor(t.space, variance, components), tuple(i + 1 for i in order)


def kron_flatten(t: Tensor) -> np.ndarray:
    """Flatten to the Kronecker matrix form.

    All-up tensors become kets of length dim^k, all-down tensors become
    bras, and an up-block followed by a down-block becomes a
    dim^k-by-dim^l matrix.  Flattening is row-major: the leftmost slot is
    the slowest index.  Mixed slot orders must be sorted explicitly with
    :func:`sort_slots` first.
    """
    n_up = sum(1 for tag in t.variance if tag == UP)
    if t.variance != (UP,) * n_up + (DOWN,) * (t.rank - n_up):
        raise VarianceError(
            "flattening requires all up slots before all down slots; "
            "call sort_slots first"
        )
    dim = t.space.dim
    return t.components.reshape(dim**n_up, dim ** (t.rank - n_up)).copy()


def kron_unflatten(flat, space: VectorSpace, variance) -> Tensor:
    """Inverse of :func:`kron_flatten` for the given slot signature."""
    variance = tuple(variance)
    n_up = sum(1 for tag in variance if tag == UP)
    if variance != (UP,) * n_up + (DOWN,) * (len(variance) - n_up):
        raise VarianceError("signature must be an up block followed by a down block")
    flat = np.asarray(flat)
    dim = space.dim
    expected = (dim**n_up, dim ** (len(variance) - n_up))
    if flat.shape != expected:
        raise ShapeError(f"flat shape {flat.shape} does not match {expected}")
    return Tensor(space, variance, flat.reshape((dim,) * len(variance)))
