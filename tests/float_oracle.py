"""Float oracle of the tests: the matrix exponential of a ``CMatrix``.

The package decides exponentials exactly (``exp_exact_nilpotent``); the
tests check that against SciPy's scaling-and-squaring on the float casts.
"""

import numpy as np
import scipy.linalg

from weakcomm.numeric import CMatrix


def expm(m):
    """Matrix exponential by scaling-and-squaring; overflow raises."""
    out = scipy.linalg.expm(m.array)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise OverflowError("matrix exponential overflowed")
    return CMatrix(out)
