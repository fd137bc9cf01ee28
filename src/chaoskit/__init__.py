"""chaoskit: finite-dimensional Wiener chaos algebra and verification.

Dense symmetric tensor contractions over R^d, exact chaos-expansion
arithmetic (products, Malliavin derivatives, divergence, pointwise
Hermite evaluation), closed-form expected determinants of iterated
Malliavin matrices for a pair of multiple integrals, the covariance
determinant inequality, a density/degeneracy checker, and a reproducible
Monte Carlo layer.
"""

from . import chaos, malliavin, mc, tensor
from .chaos import *  # noqa: F401,F403
from .malliavin import *  # noqa: F401,F403
from .mc import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [*tensor.__all__, *chaos.__all__, *malliavin.__all__, *mc.__all__, "__version__"]
