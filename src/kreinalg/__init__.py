"""Finite-dimensional linear algebra over definite and indefinite inner products.

The package is layered bottom-up:

* :mod:`kreinalg.policy` - every tolerance and the rules that apply it;
* :mod:`kreinalg.matrices` - dense matrices, conjugation, determinants,
  Kronecker products, classification predicates;
* :mod:`kreinalg.spaces` - bases, dual bases, and matrix representations;
* :mod:`kreinalg.tensors` - variance-tagged tensors, contractions, and
  the flattening isomorphism onto Kronecker form;
* :mod:`kreinalg.eigen` / :mod:`kreinalg.unitary` - the Hermitian
  eigensolver (LAPACK ``eigh`` behind one seam, cyclic Jacobi kept as the
  reference oracle), inner products, Riesz maps, adjoints, and spectral
  decompositions;
* :mod:`kreinalg.indefinite` - H-forms, metric operators, signatures,
  Dirac conjugation, and pseudo-unitary membership;
* :mod:`kreinalg.lemmas` / :mod:`kreinalg.cli` - the seeded theorem
  verification suite and the JSON command line front end.

Each layer's ``__all__`` is its public surface.  The package's ``__all__``
is the union of those of ``errors`` through ``indefinite``, and
``kreinalg.<name>`` is read from the first of those layers whose ``__all__``
lists it, so it is the layer's own object and no name is declared twice.
The suite's ``LemmaReport`` and ``run_lemma_suite`` are read from
:mod:`kreinalg.lemmas`.

Every submodule but ``errors`` and ``cli`` is bound lazily: ``import
kreinalg`` puts it in ``sys.modules`` and on the package, but runs its body
only when one of its attributes is first read.  A command line request thus
compiles and runs only the layers its subcommand uses.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"


def _bind_lazily(name: str):
    """Bind submodule ``name``; its body runs when an attribute is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule but ``cli`` (``python -m kreinalg.cli`` runs it as ``__main__``)
# is bound here, so a layer's ``from . import policy`` never reaches __getattr__.
policy = _bind_lazily("policy")
matrices = _bind_lazily("matrices")
spaces = _bind_lazily("spaces")
tensors = _bind_lazily("tensors")
eigen = _bind_lazily("eigen")
unitary = _bind_lazily("unitary")
indefinite = _bind_lazily("indefinite")
io = _bind_lazily("io")
generators = _bind_lazily("generators")
lemmas = _bind_lazily("lemmas")

# The layers whose public names the package exports, in lookup order.
_LAYERS = (errors, matrices, spaces, tensors, eigen, unitary, indefinite)


def __getattr__(name: str):
    """A public name of the first layer that lists it, loading layers in order."""
    if name == "__all__":
        return [n for layer in _LAYERS for n in layer.__all__]
    for layer in _LAYERS:
        if name in layer.__all__:
            return getattr(layer, name)
    if name in ("LemmaReport", "run_lemma_suite"):
        return getattr(lemmas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
