"""Shared scalar root-finding helpers.

Both the reflection kernel and the sine-constraint root of the case-iii
oracle need the root of a strictly increasing scalar function, located to
an absolute tolerance on x. Bisection is used throughout: the functions
involved are monotone by assumption, and machine-precision brackets keep
the root error negligible next to the Monte Carlo error of the surrounding
computation.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NoConvergence, NonFiniteBracket, RootBracketFailure

#: Absolute tolerance on the root location.
DEFAULT_TOL_X = 1e-12

#: Iteration cap; 200 halvings resolve any double-precision bracket.
DEFAULT_MAX_ITER = 200


def bisect_increasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol_x: float = DEFAULT_TOL_X,
) -> float:
    """Root of an increasing function ``f`` on a bracketing interval.

    Requires ``f(lo) <= 0 <= f(hi)``. Returns a point within ``tol_x`` of
    the root. Raises :class:`NoConvergence` if the bracket does not actually
    bracket a root or the iteration budget runs out.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteBracket(f"bracket [{lo}, {hi}] is not finite")
    if lo > hi:
        lo, hi = hi, lo
    flo = f(lo)
    fhi = f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise NoConvergence(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(DEFAULT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol_x or mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid < 0.0:
            lo = mid
        elif fmid > 0.0:
            hi = mid
        else:
            return mid
    raise NoConvergence(
        f"bisection did not reach tol_x={tol_x} in {DEFAULT_MAX_ITER} iterations"
    )


def expand_bracket(
    f: Callable[[float], float],
    lo: float = -1.0,
    hi: float = 1.0,
) -> tuple[float, float]:
    """Grow ``[lo, hi]`` geometrically until ``f`` changes sign on it.

    Used when no Lipschitz bounds are available to place the bracket
    directly. Raises :class:`RootBracketFailure` if no sign change is found
    within 64 doublings.
    """
    flo = f(lo)
    fhi = f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NonFiniteBracket(f"f non-finite on initial bracket [{lo}, {hi}]")
    for _ in range(64):  # grows a unit bracket past 1e19
        if flo <= 0.0 <= fhi:
            return lo, hi
        if flo > 0.0:
            lo *= 2.0
            flo = f(lo)
        if fhi < 0.0:
            hi *= 2.0
            fhi = f(hi)
    raise RootBracketFailure(
        f"no sign change within [{lo}, {hi}] after 64 doublings"
    )
