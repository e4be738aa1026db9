"""Bracketing bisection to adjacent floats, on plain floats alone.

Its own module, so that the numpy-free ``thermo`` (beta*), ``classical``
(crossing times) and ``gaussian`` (kernel zeros) share one loop without
any of them loading another's numerics.
"""


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
