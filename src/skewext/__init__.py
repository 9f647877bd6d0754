"""Extension theory of skew-symmetric operators on exact desk-scale substrates.

Two substrates are provided: finite-dimensional linear relations on C^n
(graphs as subspaces, numpy-backed) and an exact rational model of the
derivative operator on the half line, which realizes unequal deficiency
indices.  On top of them sit boundary systems, boundary triplets, the
conversions between the two notions, and the parametrizations of
skew-self-adjoint and maximal dissipative extensions.

Submodules load on first use: ``import skewext`` loads none of them, and
``skewext.boundary`` imports ``boundary`` (and numpy) when it is first
read, so the half-line model runs without the numeric substrate.
"""

import importlib

from .errors import SkewextError

__all__ = [
    "boundary",
    "extensions",
    "formats",
    "halfline",
    "linalg",
    "relation",
    "subspace",
    "SkewextError",
]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: called only for names not yet set on the package; importing
    # a submodule sets it, so each one is imported here at most once
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
