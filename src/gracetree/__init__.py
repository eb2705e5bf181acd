"""Graceful labellings of rooted symmetric trees.

Construct graceful labellings in closed form, move the 0 label onto
chosen vertices, decide 0-rotatability with an exhaustive search
oracle, and sweep whole tree families.

The package exports the names the README's library example uses; every
other name is imported from the submodule that defines it.
"""

from .construct import ZeroAtRequest, theorem1_label, zero_at
from .labelling import is_graceful
from .model import GeneralTree, build
from .search import SearchConstraints, find_graceful, is_zero_rotatable
from .sweep import evaluate_sequence

__version__ = "0.1.0"

__all__ = [
    "GeneralTree",
    "SearchConstraints",
    "ZeroAtRequest",
    "build",
    "evaluate_sequence",
    "find_graceful",
    "is_graceful",
    "is_zero_rotatable",
    "theorem1_label",
    "zero_at",
]
