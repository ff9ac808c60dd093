"""Heavy dependencies, each imported on its first call.

Importing scipy.linalg and scipy.optimize takes most of the wall time of a
fresh CLI process, and no data command needs them: every eigenvalue comes
from numpy's `eigvals` (spectra, the deformed mu3 roots, the colleague
matrices of the general-coeffs solver).  scipy stands only behind the
independent routes: `expm` for the exp(ad) oracle and `eta_matrix`, and
`minimize`/`least_squares` for the multistart oracle, which `verify`
runs.  Each wrapper here imports the function it stands for when it is
called, so a process pays only for what its command uses.

Callers bind a wrapper under the real name (``from .lazy import expm``),
so ``models.minimize``, ``dyson.expm`` and ``cli.ProcessPoolExecutor``
stay module attributes: a test or tracer that replaces one of them still
catches every call.  A bare import inside the calling function would
bypass such a replacement.
"""


def expm(a):
    """scipy.linalg.expm."""
    from scipy.linalg import expm as f
    return f(a)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize."""
    from scipy.optimize import minimize as f
    return f(*args, **kwargs)


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares."""
    from scipy.optimize import least_squares as f
    return f(*args, **kwargs)


def ProcessPoolExecutor(*args, **kwargs):  # noqa: N802 (stands in for the class)
    """concurrent.futures.ProcessPoolExecutor."""
    from concurrent.futures import ProcessPoolExecutor as cls
    return cls(*args, **kwargs)
