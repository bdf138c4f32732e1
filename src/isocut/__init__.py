"""isocut: nontrivial minimizers of symmetric submodular functions.

A randomized driver reduces global minimization to polylog-many calls to a
submodular-minimization blackbox via isolating sets; the hypergraph min-cut
application answers those calls with an exact in-package max-flow solver.
"""

from . import core, driver, generate, hypergraph, isolating, sfm
from ._kernels import BACKEND
from .core import *
from .driver import *
from .generate import *
from .hypergraph import *
from .isolating import *
from .sfm import *

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = ["BACKEND", *core.__all__, *driver.__all__, *generate.__all__,
           *hypergraph.__all__, *isolating.__all__, *sfm.__all__]
