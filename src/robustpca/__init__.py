"""Robust PCA toolkit: low-rank plus sparse decomposition via factored ALM solvers."""

__version__ = "0.1.0"

# each module's __all__ is its public API, republished here unchanged
from .linalg import *
from .solvers import *
from .datagen import *
from .analysis import *
from .dataio import *

__all__ = [name for name in dir() if not name.startswith("_")]
