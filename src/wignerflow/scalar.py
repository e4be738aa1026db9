"""Scalar numerics on the ``math`` module alone: the modified Bessel
functions K0 and K1, bracketing bisection and a float ``linspace``.

Nothing here imports numpy, so the thermodynamic ensemble, whose closed
forms need only these, runs in a process that never loads it.  ``specfun``
still resolves ``bessel_k`` and ``bisect`` by name.
"""

import math
from functools import lru_cache

from .errors import DomainError, UsageError


def linspace(start, stop, num):
    """``numpy.linspace(start, stop, num)`` of two floats as a list of
    floats, bit for bit: numpy's own sequence of operations, including its
    division before scaling where the step underflows to 0, and its
    ``start`` alone for ``num == 1``."""
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [i * delta + start for i in range(num)]
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def bisect(below, lo, hi):
    """Shrink a bracket with below(lo) true and below(hi) false to adjacent
    floats: the midpoint replaces lo where below holds and hi elsewhere,
    until it equals one of the ends.  Returns (lo, hi)."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


# ---------------------------------------------------------------------------
# modified Bessel K_0, K_1
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329
_LN2 = math.log(2.0)


@lru_cache(maxsize=4)
def _bessel_k01(x):
    """(K0(x), K1(x)) for x > 0: the ``bessik`` scheme of Numerical Recipes
    (after N. M. Temme, J. Comput. Phys. 19, 324 (1975)) at order nu = 0.

    Callers ask for both orders at the same two arguments in a row (Z_ST
    needs K0 and K1 at beta and at a beta), so the last results are kept."""
    if x < 2.0:
        # Temme's series; ln(x/2) is taken as ln x - ln 2 because x/2
        # underflows to 0 for the smallest subnormal x
        ff = -_EULER_GAMMA - (math.log(x) - _LN2)
        p = 0.5  # p = q = 1/2 at nu = 0, and both shrink by 1/i per term
        c = 1.0
        d = 0.25 * x * x
        k0, k1 = ff, p
        i = 1
        while True:
            ff = (i * ff + 2.0 * p) / (i * i)
            c *= d / i
            p /= i
            term = c * ff
            k0 += term
            k1 += c * (p - i * ff)
            if abs(term) < 1e-16 * abs(k0):
                return k0, 2.0 * k1 / x
            i += 1
    if x > 746.0:  # e^-x is 0; CF2 would loop on the overflow past 9e307
        return 0.0, 0.0
    # Steed's continued fraction CF2 with the series for the normalisation s
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = 0.25
    a = -0.25
    s = 1.0 + q * delh
    i = 2
    while True:
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 1e-16 * abs(s):
            break
        i += 1
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    return k0, k0 * (x + 0.5 - 0.25 * h) / x


def bessel_k(order, arg):
    """Modified Bessel function of the second kind, order 0 or 1.

    Temme's series below x = 2 and Steed's continued fraction CF2 from there
    on, which give both orders at once; relative error about 1e-15 against
    30-digit mpmath on [1e-4, 60].  A value beyond the float range (K1 of an
    argument below about 5.6e-309) raises DomainError; K0 and K1 underflow
    to 0 beyond x of about 745.
    """
    if order not in (0, 1):
        raise UsageError("bessel_k supports orders 0 and 1 only")
    if not (isinstance(arg, (int, float)) and math.isfinite(arg)):
        raise DomainError("bessel_k argument must be a finite real")
    if arg <= 0.0:
        raise DomainError("bessel_k requires a positive argument")
    value = _bessel_k01(float(arg))[order]
    if not math.isfinite(value):
        raise DomainError(f"K{order}({arg!r}) exceeds the float range")
    return value
