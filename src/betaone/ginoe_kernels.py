"""The real Ginibre correlation as a real number, kept while bench/units.py
reads ginoe_kernels.ginoe_rho by name; no library module imports it.  The
kernels are kernels.kernel_bundle("ginoe", N), the closed form ginibre's.
"""

from .kernels import rho


def ginoe_rho(bundle, config):
    """Correlation of n1 real and n2 complex points as a real number.

    The assembled Pfaffian is real up to roundoff; the imaginary
    residue is returned alongside for audit.
    """
    value = rho(bundle, config)
    if isinstance(value, complex):
        return value.real, abs(value.imag)
    return float(value), 0.0
