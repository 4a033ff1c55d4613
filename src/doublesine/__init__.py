"""Numerical toolkit for double sine series with generalized-monotone coefficients.

The package provides:

* coefficient sequences (builtin presets, expressions, tables) and their
  forward differences,
* window / block-sup majorant families used to define the coefficient
  classes, with certified tail bounds for power-decay sequences,
* conjugate Dirichlet kernels, summation by parts for rectangle partial
  sums, and the kernel envelope check,
* convergence diagnostics: weighted-tail quantities, uniform-tail
  rectangle probes, threshold (eta) searches with a closed-form envelope
  comparison, and a divergence witness for the residue-modulated preset,
* deterministic JSON / CSV report writers and a command line interface.
"""

from . import convergence, differences, kernels, majorants, membership, reports, sequences, summing
from .convergence import *  # noqa: F401,F403
from .differences import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .majorants import *  # noqa: F401,F403
from .membership import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .summing import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (sequences, differences, majorants, membership, kernels, convergence, reports, summing)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
