"""Closed-form risk predictions for kernel ridge regression.

Solve the effective-regularization fixed point of a kernel spectrum,
evaluate the closed-form test/train/GCV predictions, and verify them against
empirical KRR on synthetic data (Gaussian features and inner-product kernels
on the sphere).

Each module's ``__all__`` is the one list of its public names; the names of
the modules imported below can all be imported from the package root.
"""

from .config import *
from .deteq import *
from .estimation import *
from .functionals import *
from .harness import *
from .krr import *
from .spectrum import *
from .sphere import *

__version__ = "0.1.0"
