"""Phase distributions of entangled two-mode coherent states.

catphase evaluates the s-ordered characteristic function, quasi-probability
distribution, and the phase-sum, phase-difference and one-mode phase
distributions of two-mode Schrödinger-cat (quasi-Bell) states, together with
independent quadrature and Fock-basis oracles that validate every analytic
formula numerically.
"""

from . import errors, oracle, phasedist, quasiprob, specfun, states
from .errors import *
from .oracle import *
from .phasedist import *
from .quasiprob import *
from .specfun import *
from .states import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *oracle.__all__,
    *phasedist.__all__,
    *quasiprob.__all__,
    *specfun.__all__,
    *states.__all__,
    "__version__",
]
