"""Special functions behind the closed-form dispersion and normalization laws.

Three functions are exposed:

* :func:`gamma_fn` -- the gamma function with explicit pole detection, at
  finite x,
* :func:`kummer_phi` -- Kummer's confluent hypergeometric function
  ``Phi(a; b; z)`` on the domain its callers evaluate, finite a and b,
  b > 0, a < b and z <= 0, stable for strongly negative arguments,
* :func:`decade_panels` -- the binomial dispersion integral
  ``int ds / (1 + (s/lstar)^power)`` over ``[upper * 10^-decades, upper]``,
  by a fixed 16-node Gauss-Legendre rule in ln s per decade, for one upper
  or a whole array of them.  The nodes of a decade are its lower edge times
  fixed factors, so a block of uppers takes one power per decade edge, not
  one per node.

Kummer's function has one engine, the private ``_kummer_phi_array``: it
refuses every argument outside that domain and sums each branch's series
for all its arguments together, term block by term block.  The blocks are
term-major: one row per term index and one column per argument, written
into work arrays of ``_SERIES_BLOCK`` rows that each series makes once per
call, so a block allocates nothing of its size.  The heat-kernel trace
calls it on whole arrays of quadrature nodes; ``kummer_phi`` is a
one-element call of it.  The scalar loops it replaced are kept in the
tests as its oracle.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = ["gamma_fn", "kummer_phi", "decade_panels"]

# |z| above which the confluent series is abandoned for the large-|z| expansion.
_PHI_ASYMPTOTIC_CUT = 30.0
# ln of the largest relative size of the e^z term that the large-|z|
# expansion may drop: its own truncation-floor bound, 1e-8.
_LOG_DROPPED_MAX = math.log(1e-8)
# Truncation of both series of Phi: a term below _REL_TOL of its sum stops
# it, and no series sums more than _MAX_TERMS terms.
_REL_TOL = 1e-14
_MAX_TERMS = 10_000
# Terms generated per step by the array series of Phi (_term_block).
_SERIES_BLOCK = 32
# Gauss-Legendre order in ln s of every decade panel (decade_panels): 16
# nodes are within 1.6e-17 of the integral at |power| up to 0.999, 10 would
# be 1.4e-15 off (tests/test_removable_poles.py).
_PANEL_ORDER = 16
# Uppers whose panels decade_panels sums in one array: 96 x 18 decades x 16
# nodes is about 27k nodes, a 220 KB float64 work array, small enough for cache.
_PANEL_BLOCK = 96


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= tol


def gamma_fn(x: float) -> float:
    """Gamma function with an explicit :class:`PoleError` at 0, -1, -2, ...;
    a non-finite x, nan included, is a :class:`DomainError` before any work."""
    if not math.isfinite(x):
        raise DomainError(f"gamma is evaluated only at a finite x, got x = {x}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise ConvergenceError(f"gamma overflows at x = {x}") from exc


def _term_block(
    coeff: np.ndarray, x: np.ndarray, n: np.ndarray, term: np.ndarray, total: np.ndarray,
    terms: np.ndarray, sums: np.ndarray,
) -> None:
    """Terms n of a sum with term ratio coeff_n x / (n + 1), and its partial sums.

    Writes one row per term index in ``n`` and one column per element of
    ``x`` into ``terms`` and ``sums``, views of the caller's work arrays;
    ``term`` and ``total`` are each element's last term and sum before the
    block.  The running products and sums go row by row: each element gets
    the multiplications and additions of a term-by-term loop, in its order,
    and each row is one array operation over all the elements.
    """
    np.multiply(coeff[:, None], x, out=terms)
    terms /= (n + 1.0)[:, None]
    terms[0] *= term
    np.add(terms[0], total, out=sums[0])
    t, s = list(terms), list(sums)
    for i in range(1, n.size):
        np.multiply(t[i], t[i - 1], out=t[i])
        np.add(s[i - 1], t[i], out=s[i])


def _work_arrays(size: int, floats: int, bools: int) -> tuple[np.ndarray, ...]:
    """``floats`` float and ``bools`` bool (:data:`_SERIES_BLOCK`, size) work
    arrays of a term-major series: one row per term of a block, one column
    per element, each block in their leading columns.

    They are cut from two allocations, one per dtype, each rounded up to a
    power of two of elements per row, so that calls of about the same size
    ask for the same two blocks: glibc's malloc then hands the freed blocks
    to the next call instead of returning them to the system, to be faulted
    in again page by page.  The arrays keep rows of ``size`` elements: a
    power-of-two row stride made the series about 20% slower.
    """
    block = _SERIES_BLOCK << (size - 1).bit_length()
    values, flags = np.empty((floats, block)), np.empty((bools, block), dtype=bool)
    return tuple(w[: _SERIES_BLOCK * size].reshape(_SERIES_BLOCK, size) for w in (*values, *flags))


def _series_1f1_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Taylor sum of Phi(a;b;x) for every element of ``x``, at a, b, x > 0.

    Sums 1 + t_1 + t_2 + ... with t_(n+1) = t_n (a+n)/(b+n) x/(n+1), every
    term positive, :data:`_SERIES_BLOCK` terms at a time for every
    unfinished element.  An element stops once two consecutive terms past
    t_1 fall below :data:`_REL_TOL` of its sum while the terms decrease.

    The blocks are term-major: three float and three bool work arrays
    (:func:`_work_arrays`), made once per call, hold one row per term and
    one column per element, and every block writes into their leading
    columns, one per unfinished element.  What a block hands the next (last
    term, sum and small flag) is copied out of the work arrays, which the
    next block overwrites.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    term = np.ones_like(x)
    total = np.ones_like(x)
    was_small = np.zeros(x.shape, dtype=bool)
    work = _work_arrays(x.size, floats=3, bools=3)
    for start in range(0, _MAX_TERMS, _SERIES_BLOCK):
        n = np.arange(start, min(start + _SERIES_BLOCK, _MAX_TERMS))
        terms, sums, bar, settled, small, done = (w[: n.size, : x.size] for w in work)
        _term_block((a + n) / (b + n), x, n, term, total, terms, sums)
        # a stop is trusted from t_2 on, once the terms decrease
        np.less_equal(terms[0], term, out=settled[0])
        np.less_equal(terms[1:], terms[:-1], out=settled[1:])
        settled[n == 0] = False
        np.multiply(sums, _REL_TOL, out=bar)
        np.less_equal(terms, bar, out=small)
        small &= settled
        # two small terms in a row end the sum
        np.logical_and(small[0], was_small, out=done[0])
        np.logical_and(small[1:], small[:-1], out=done[1:])
        hit = done.any(axis=0)
        if hit.any():
            ended = np.flatnonzero(hit)
            out[live[ended]] = sums[done[:, ended].argmax(axis=0), ended]
            if hit.all():
                return out
        keep = ~hit  # a boolean index copies the carried state out of the work arrays
        live, x = live[keep], x[keep]
        term, total, was_small = (v[-1, keep] for v in (terms, sums, small))
    raise ConvergenceError(
        f"Phi({a};{b};{float(x[0])}) series did not converge within {_MAX_TERMS} terms"
    )


def _asymptotic_1f1_negative_array(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Phi(a;b;z) for z -> -inf:  Gamma(b)/Gamma(b-a) (-z)^(-a) [1 + O(1/z)], per element of ``z``.

    The correction series sum_k (a)_k (a-b+1)_k / (k! (-z)^k) is summed to its
    smallest term, :data:`_SERIES_BLOCK` terms at a time for every unfinished
    element; at |z| >= 30 and moderate parameters the truncation floor is far
    below every tolerance used in this package, and every element must
    certify about 8 digits.  The blocks are term-major, as in
    :func:`_series_1f1_array`: four float and two bool work arrays
    (:func:`_work_arrays`), made once per call, hold one row per term and
    one column per unfinished element.
    """
    inv = 1.0 / (-z)
    sums_at = np.empty_like(z)
    floors = np.empty_like(z)
    live = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.full_like(z, math.inf)
    work = _work_arrays(z.size, floats=4, bools=2)
    for start in range(0, _MAX_TERMS, _SERIES_BLOCK):
        k = np.arange(start, min(start + _SERIES_BLOCK, _MAX_TERMS))
        terms, sums, mags, bar, diverged, stop = (w[: k.size, : inv.size] for w in work)
        _term_block((a + k) * (a - b + 1.0 + k), inv, k, term, total, terms, sums)
        np.abs(terms, out=mags)
        # divergent tail reached: stop at the smallest term, without adding this one
        np.greater_equal(mags[0], prev, out=diverged[0])
        np.greater_equal(mags[1:], mags[:-1], out=diverged[1:])
        np.abs(sums, out=bar)
        bar *= _REL_TOL
        np.less_equal(mags, bar, out=stop)
        stop |= diverged
        hit = stop.any(axis=0)
        ended = np.flatnonzero(hit)
        row = stop[:, ended].argmax(axis=0)
        div = diverged[row, ended]
        before = np.where(row > 0, sums[row - 1, ended], total[ended])
        below = np.where(row > 0, mags[row - 1, ended], prev[ended])
        sums_at[live[ended]] = np.where(div, before, sums[row, ended])
        floors[live[ended]] = np.where(div, below, mags[row, ended])
        keep = ~hit
        if not keep.any():
            break
        live, inv = live[keep], inv[keep]
        term, total, prev = (v[-1, keep] for v in (terms, sums, mags))
    else:
        sums_at[live] = total
        floors[live] = prev
    coarse = floors > 1e-8 * np.abs(sums_at)
    if coarse.any():
        i = int(np.argmax(coarse))
        raise ConvergenceError(
            f"Phi({a};{b};{float(z[i])}) asymptotic truncation floor {floors[i]:.2e} is too "
            "coarse; argument not deep enough for these parameters"
        )
    return gamma_fn(b) / gamma_fn(b - a) * (-z) ** (-a) * sums_at


@np.errstate(over="ignore", invalid="ignore")  # a value off the double range is refused below
def _kummer_phi_array(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Kummer's Phi(a;b;z) = sum (a)_n/(b)_n z^n/n! for every element of ``z``.

    The domain is finite a and b, b > 0, a < b and z <= 0: any other
    argument, nan included, is a :class:`DomainError` before any work,
    naming the call's arguments.  Branches, element by element: Phi = 1 at
    z = 0 or a = 0; for -30 < z < 0 the reflection
    Phi(a;b;z) = e^z Phi(b-a;b;-z) (DLMF 13.2.39), whose series terms are
    all positive; for z <= -30 the large-|z| expansion
    ~ Gamma(b)/Gamma(b-a) (-z)^(-a), refused where its truncation floor is
    too coarse.  That expansion is a :class:`DomainError` naming the edge
    within 1e-12 of b = 0 or of b - a = 0, where gamma_fn takes b or b - a
    for the pole at 0; at the b - a edge the e^z term of DLMF 13.7.2 that
    the expansion drops is no longer small either.  Near that edge the
    dropped term, Gamma(b-a)/Gamma(a) e^z (-z)^(2a-b) of the leading one,
    is estimated once per call, at the largest z <= -30, and a
    :class:`ConvergenceError` is raised where it exceeds the 1e-8 of the
    truncation floor.  A value off the double range, which only extreme
    parameters reach, is refused too.  The elements of each branch are
    summed together, and each element gets the bits it gets alone.
    """
    z = np.asarray(z, dtype=float)
    outside = ~(z <= 0.0)
    if not (-math.inf < a < b < math.inf and b > 0.0) or outside.any():
        at = float(z[outside][0]) if outside.any() else float(z.flat[0]) if z.size == 1 else "z"
        raise DomainError(f"Phi({a};{b};{at}) is evaluated only at finite a and b, b > 0, a < b, z <= 0")
    out = np.ones_like(z)
    if a == 0.0:
        return out
    deep = z <= -_PHI_ASYMPTOTIC_CUT
    for edge, value in (("b", b), ("b - a", b - a)):
        if _is_nonpositive_integer(value) and deep.any():
            raise DomainError(
                f"Phi({a};{b};{float(z[deep][0])}) at z <= -{_PHI_ASYMPTOTIC_CUT:g} is not "
                f"evaluated at the edge {edge} -> 0 ({edge} = {value})"
            )
    if deep.any() and not _is_nonpositive_integer(a):
        # the e^z term of DLMF 13.7.2 that the expansion drops, relative to
        # its leading term: Gamma(b-a)/Gamma(a) e^z (-z)^(2a-b), largest at
        # the largest deep z; it is 0 at a nonpositive integer a
        top = float(z[deep].max())
        log_dropped = math.lgamma(b - a) - math.lgamma(a) + top + (2.0 * a - b) * math.log(-top)
        if log_dropped > _LOG_DROPPED_MAX:
            raise ConvergenceError(
                f"Phi({a};{b};{top}) drops an e^z term of relative size "
                f"{math.exp(min(log_dropped, 700.0)):.2e} at z <= -{_PHI_ASYMPTOTIC_CUT:g}"
            )
    mid = (z < 0.0) & ~deep
    if mid.any():
        out[mid] = np.exp(z[mid]) * _series_1f1_array(b - a, b, -z[mid])
    if deep.any():
        out[deep] = _asymptotic_1f1_negative_array(a, b, z[deep])
    off = ~np.isfinite(out)
    if off.any():
        raise ConvergenceError(f"Phi({a};{b};{float(z[off][0])}) is off the double range")
    return out


def kummer_phi(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function Phi(a;b;z) at one argument.

    Phi = 1 at z = 0 or a = 0 inside the domain b > 0, a < b, z <= 0 is
    returned at once; every other argument is a one-element call of
    :func:`_kummer_phi_array`, which refuses those outside and takes the
    branch.
    """
    if (z == 0.0 or a == 0.0) and -math.inf < a < b < math.inf and b > 0.0 and z <= 0.0:
        return 1.0
    return float(_kummer_phi_array(a, b, np.array([z], dtype=float))[0])


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_(n-1)(x) and P_n(x) by the three-term recurrence, in the dtype of ``x``."""
    below, at = np.ones_like(x), x
    for k in range(2, n + 1):
        below, at = at, ((2 * k - 1) * x * at - (k - 1) * below) / k
    return below, at


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """The node factors c_j and weights of one decade [1, 10] in ln s.

    Gauss-Legendre in tau = ln s: the nodes x_j of [-1, 1] map to
    c_j = 10^((1 + x_j)/2), and ds = s dtau gives the weights
    (ln 10 / 2) w_j c_j.  The decade [L, 10L] has its nodes at L c_j and
    its weights L times these.  numpy's weights are up to 63 units of 2^-53
    off at 16 nodes, enough to put the rule 5e-16 from the integral; so
    one Newton step refines its nodes in ``np.longdouble``, the weights are
    2 (1 - x^2) / (n P_(n-1)(x))^2 there, and each c_j and weight is
    rounded to a float once.  Where ``np.longdouble`` has 64 bits of
    mantissa (x86-64) that puts them within about half a unit.
    """
    n = _PANEL_ORDER
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    below, at = _legendre(n, x)
    x = x - at * (1 - x * x) / (n * (below - x * at))
    below, _ = _legendre(n, x)
    factors = np.longdouble(10) ** ((1 + x) / 2)
    weights = np.log(np.longdouble(10)) * (1 - x * x) / (n * below) ** 2 * factors
    return factors.astype(float), weights.astype(float)


def decade_panels(
    power: float, lstar: float, upper: float | np.ndarray, decades: int
) -> float | np.ndarray:
    """int of 1/(1 + (s/lstar)^power) over [upper * 10^-decades, upper].

    One Gauss-Legendre rule in ln s per decade [L, 10L], L = upper / 10^k
    (:func:`_panel_rule`): its nodes are s = L c_j, c_j = 10^((1 + x_j)/2),
    so (s/lstar)^power = (L/lstar)^power c_j^power.  c_j^power is taken
    once per call and (L/lstar)^power once per decade edge, and the
    integrand of every node is the product of the two.

    ``upper`` is a float or a 1-d array of uppers; a float gives a float,
    an array an array of the same length.  The uppers are summed
    :data:`_PANEL_BLOCK` at a time, the integrand of a block written into
    one (block, decades, order) work array made once per call, so the
    working set stays in cache whatever the number of uppers.  Each upper's
    panel sums are added by ``math.fsum``, in the same operations and order
    for every block size, so an upper gets the same bits alone as in any
    array.  In tau = ln s the integrand times ds/dtau is
    e^tau / (1 + (L/lstar)^power e^(power tau)), analytic in a strip of
    half-width pi/|power| >= pi about each decade for |power| < 1: the
    branch point at s = 0 is at tau = -inf.  So the rule converges like
    5.6^(-2n) at n nodes; at 16, with its rounded tables and summed
    exactly, it is within 1.6e-17 of the integral at |power| up to 0.999.
    """
    factors, weights = _panel_rule()
    node_powers = factors ** power
    # 10^k is exact up to k = 22: each lower edge upper / 10^k rounds once
    tens = 10.0 ** np.arange(decades, 0, -1, dtype=float)
    uppers = np.asarray(upper, dtype=float)
    flat = uppers.reshape(-1)
    work = np.empty((min(flat.size, _PANEL_BLOCK), decades, _PANEL_ORDER))
    sums = []
    for start in range(0, flat.size, _PANEL_BLOCK):
        lo = flat[start: start + _PANEL_BLOCK, None] / tens
        f = work[: lo.shape[0]]
        np.multiply(((lo / lstar) ** power)[..., None], node_powers, out=f)
        f += 1.0
        np.divide(1.0, f, out=f)
        sums.extend(map(math.fsum, (lo * (f @ weights)).tolist()))
    return sums[0] if uppers.ndim == 0 else np.array(sums)
