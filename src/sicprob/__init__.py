"""Quantum states, measurements, channels and dynamics as probability vectors.

A reference SIC measurement (a maximal set of equiangular rank-1 effects)
turns every density matrix into an ordinary probability vector, every channel
into a quasi-stochastic matrix and every master-equation generator into a
Kolmogorov-like rate matrix.  This package builds such frames, converts
objects back and forth, splits generators into unitary and dissipative parts,
scores how non-classical or non-Markovian an evolution is, and reconstructs
processes from measured counts.
"""

from . import _optim, channels, dynamics, errors, linalg, measures, sic, states, tomography
from ._optim import *
from .channels import *
from .dynamics import *
from .errors import *
from .linalg import *
from .measures import *
from .sic import *
from .states import *
from .tomography import *

__version__ = "0.1.0"

__all__ = [
    *_optim.__all__,
    *channels.__all__,
    *dynamics.__all__,
    *errors.__all__,
    *linalg.__all__,
    *measures.__all__,
    *sic.__all__,
    *states.__all__,
    *tomography.__all__,
    "__version__",
]
