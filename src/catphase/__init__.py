"""Phase distributions of entangled two-mode coherent states.

catphase evaluates the s-ordered characteristic function, quasi-probability
distribution, and the phase-sum, phase-difference and one-mode phase
distributions of two-mode Schrödinger-cat (quasi-Bell) states, together with
independent quadrature and Fock-basis oracles that validate every analytic
formula numerically.

Importing catphase does not import NumPy: the array functions load it on
first use, and the oracle's names, whose module needs NumPy, are bound on
first access (PEP 562).
"""

from . import errors, phasedist, quasiprob, specfun, states
from .errors import *
from .phasedist import *
from .quasiprob import *
from .specfun import *
from .states import *

__version__ = "0.1.0"

# catphase.oracle's __all__, which it must equal (tests/test_api.py checks).
_ORACLE_NAMES = (
    "QuadratureSpec",
    "quadrature_phase_dist",
    "quadrature_normalization",
    "quadrature_one_mode",
    "fock_chi_oracle",
)

__all__ = [
    *errors.__all__,
    *_ORACLE_NAMES,
    *phasedist.__all__,
    *quasiprob.__all__,
    *specfun.__all__,
    *states.__all__,
    "__version__",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
