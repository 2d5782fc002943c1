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

Each layer's ``__all__`` is its public surface; the package re-exports
the union of those of ``errors`` through ``indefinite``.

:mod:`kreinalg.lemmas` and :mod:`kreinalg.generators` serve only the suite
and the tests.  ``import kreinalg`` binds both, in ``sys.modules`` and on
the package, but runs neither until one of its attributes is first read,
so a command line request other than ``verify`` never compiles them.
"""

import importlib.util
import sys

from .errors import *
from .matrices import *
from .spaces import *
from .tensors import *
from .eigen import *
from .unitary import *
from .indefinite import *

__version__ = "0.1.0"


def _bind_lazily(name: str):
    """Bind submodule ``name``; its body runs when an attribute is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


generators = _bind_lazily("generators")
lemmas = _bind_lazily("lemmas")


def __getattr__(name: str):
    """The suite's names exported by the package, read from the lazily bound module."""
    if name in ("LemmaReport", "run_lemma_suite"):
        return getattr(lemmas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
