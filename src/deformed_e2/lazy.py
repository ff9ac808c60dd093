"""Heavy dependencies, each imported on its first call.

Importing scipy.linalg and scipy.optimize takes most of the wall time of a
fresh CLI process, and few runs need them: a fock or planar `spectrum`
needs scipy.linalg for `eig`, and `verify` needs both.  `classify`, `ep`
and `hermitize` need neither (the deformed mu3 roots are eigenvalues from
numpy, the general-coeffs solver eliminates without an optimizer).  Each
wrapper here imports the function it stands for when it is called, so a
process pays only for what its command uses.

Callers bind a wrapper under the real name (``from .lazy import eig``), so
``models.minimize``, ``representations.eig`` and ``cli.ProcessPoolExecutor``
stay module attributes: a test or tracer that replaces one of them still
catches every call.  A bare import inside the calling function would
bypass such a replacement.
"""


def expm(a):
    """scipy.linalg.expm."""
    from scipy.linalg import expm as f
    return f(a)


def eig(a, *args, **kwargs):
    """scipy.linalg.eig."""
    from scipy.linalg import eig as f
    return f(a, *args, **kwargs)


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
