"""Special functions behind the closed-form dispersion and normalization laws.

Three functions are exposed:

* :func:`gamma_fn` -- the gamma function with explicit pole detection,
* :func:`kummer_phi` -- Kummer's confluent hypergeometric function
  ``Phi(a; b; z)``, stable for strongly negative arguments,
* :func:`decade_panels` -- the binomial dispersion integral
  ``int ds / (1 + (s/lstar)^power)`` over ``[upper * 10^-decades, upper]``,
  by a fixed Gauss-Legendre rule per decade, for one upper or a whole array
  of them.  The nodes of a decade are its lower edge times fixed factors, so
  a block of uppers takes one power per decade edge, not one per node.

Kummer's function has one engine, the private ``_kummer_phi_array``: it
takes every branch of ``Phi`` and sums each branch's series for all its
arguments together, term block by term block.  The blocks are term-major:
one row per term index and one column per argument, written into work
arrays of ``_SERIES_BLOCK`` rows that each series makes once per call, so a
block allocates nothing of its size.  The heat-kernel trace calls it on
whole arrays of quadrature nodes; ``kummer_phi`` is a one-element call of
it.  The scalar loops it replaced are kept in the tests as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "gamma_fn",
    "kummer_phi",
    "decade_panels",
]

# |z| above which the confluent series is abandoned for the large-|z| expansion.
_PHI_ASYMPTOTIC_CUT = 30.0
# Terms generated per step by the array series of Phi (_term_block).
_SERIES_BLOCK = 32
# Gauss-Legendre order of every decade panel (decade_panels).
_PANEL_ORDER = 48
# Uppers whose panels decade_panels sums in one array: 32 x 18 decades x 48
# nodes is about 27k nodes, a 220 KB float64 work array, small enough for cache.
_PANEL_BLOCK = 32


def _CANCELLATION_BAR(ctl: "SeriesControl") -> float:
    """Largest tolerated roundoff-floor-to-result ratio before a series
    evaluation is refused instead of silently degraded."""
    return max(1e-6, ctl.rel_tol)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for hypergeometric series.

    At least one of ``abs_tol`` and ``rel_tol`` must be positive; a series is
    accepted once two consecutive terms fall below the combined threshold.
    """

    max_terms: int = 10_000
    abs_tol: float = 0.0
    rel_tol: float = 1e-14

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("at least one of abs_tol, rel_tol must be positive")


DEFAULT_CONTROL = SeriesControl()


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= tol


def gamma_fn(x: float) -> float:
    """Gamma function with an explicit :class:`PoleError` at 0, -1, -2, ..."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise ConvergenceError(f"gamma overflows at x = {x}") from exc
    except ValueError as exc:  # pragma: no cover - guarded above
        raise PoleError(f"gamma evaluation failed at x = {x}") from exc


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


def _work_arrays(size: int, bools: int) -> tuple[np.ndarray, ...]:
    """Four float and ``bools`` bool (:data:`_SERIES_BLOCK`, size) work arrays
    of a term-major series: one row per term of a block, one column per
    element, each block in their leading columns.

    They are cut from two allocations, one per dtype, each rounded up to a
    power of two of elements per row, so that calls of about the same size
    ask for the same two blocks: glibc's malloc then hands the freed blocks
    to the next call instead of returning them to the system, to be faulted
    in again page by page.  The arrays keep rows of ``size`` elements: a
    power-of-two row stride made the series about 20% slower.
    """
    block = _SERIES_BLOCK << (size - 1).bit_length()
    floats, flags = np.empty((4, block)), np.empty((bools, block), dtype=bool)
    return tuple(w[: _SERIES_BLOCK * size].reshape(_SERIES_BLOCK, size) for w in (*floats, *flags))


def _refuse_overflow(a: float, b: float, z: np.ndarray, sums: np.ndarray) -> None:
    over = ~np.isfinite(sums)
    if over.any():
        raise ConvergenceError(
            f"Phi({a};{b};{float(z[over][0])}) series sum is not finite"
        )


@np.errstate(over="ignore", invalid="ignore")  # a sum off the double range is refused below
def _series_1f1_array(a: float, b: float, z: np.ndarray, ctl: SeriesControl) -> np.ndarray:
    """Direct Taylor sum of Phi(a;b;z) for every element of ``z``; caller guarantees b has no pole.

    Sums 1 + t_1 + t_2 + ... with t_(n+1) = t_n (a+n)/(b+n) z/(n+1),
    :data:`_SERIES_BLOCK` terms at a time for every unfinished element.  An
    element stops once two consecutive terms fall below the tolerance while
    magnitudes decrease.  The largest intermediate term is tracked: for
    alternating sums whose result is far below the peak term, the roundoff
    floor can exceed the requested tolerance, and pretending otherwise would
    return garbage.

    A negative (non-integer) b makes the denominators pass close to zero
    near n = -b: the terms dip through a deep valley and resurge on the
    other side.  Stops are suppressed until that point is passed, otherwise
    the resurgent contribution (which can dominate the sum) would be
    silently dropped.

    A sum that leaves the double range (terms growing like z^(a-b) e^z for
    large positive z) is refused as soon as its partial sum does.

    The blocks are term-major: four float and three bool work arrays
    (:func:`_work_arrays`), made once per call, hold one row per term and
    one column per element, and every block writes into their leading
    columns, one per unfinished element.  The peak carried from
    block to block is the largest magnitude so far.  An element that stops
    in a block is checked against it, and a refusal is re-checked with the
    peak up to the stopping term, which a term-by-term loop checks.  What a
    block hands the next (last term, sum, magnitude, small flag and peak) is
    copied out of the work arrays, which the next block overwrites.
    """
    crossing = -b if b < 0.0 else 0.0
    if crossing >= ctl.max_terms:
        raise ConvergenceError(
            f"Phi({a};{b};{float(z[0])}) needs more than max_terms={ctl.max_terms} "
            "terms to clear the denominator zero crossing"
        )
    out = np.empty_like(z)
    live = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    peak = np.ones_like(z)
    prev_abs = np.ones_like(z)
    was_small = np.zeros(z.shape, dtype=bool)
    work = _work_arrays(z.size, bools=3)
    for start in range(0, ctl.max_terms, _SERIES_BLOCK):
        n = np.arange(start, min(start + _SERIES_BLOCK, ctl.max_terms))
        terms, sums, mags, bar, settled, small, done = (w[: n.size, : z.size] for w in work)
        _term_block((a + n) / (b + n), z, n, term, total, terms, sums)
        np.abs(terms, out=mags)
        # a stop is trusted past the crossing, once magnitudes decrease
        np.less_equal(mags[0], prev_abs, out=settled[0])
        np.less_equal(mags[1:], mags[:-1], out=settled[1:])
        settled[n <= crossing] = False
        np.abs(sums, out=bar)
        bar *= ctl.rel_tol
        np.maximum(bar, ctl.abs_tol, out=bar)
        np.less_equal(mags, bar, out=small)
        small &= settled
        # two small terms in a row end the sum
        np.logical_and(small[0], was_small, out=done[0])
        np.logical_and(small[1:], small[:-1], out=done[1:])
        hit = done.any(axis=0)
        block_peak = np.maximum(peak, mags.max(axis=0))
        if hit.any():
            ended = np.flatnonzero(hit)
            stop = done[:, ended].argmax(axis=0)
            at = sums[stop, ended]
            _refuse_overflow(a, b, z[ended], at)
            bar_at = _CANCELLATION_BAR(ctl) * np.abs(at)
            suspect = np.flatnonzero(5e-16 * block_peak[ended] > bar_at)
            if suspect.size:
                # terms past an element's stop can only raise its peak: a refusal
                # is re-checked with the peak up to the stopping term
                cols, upto = ended[suspect], np.arange(n.size)[:, None] <= stop[suspect]
                first = np.maximum.reduce(mags[:, cols], axis=0, where=upto, initial=0.0)
                bad = 5e-16 * np.maximum(peak[cols], first) > bar_at[suspect]
                if bad.any():
                    raise ConvergenceError(
                        f"Phi({a};{b};{float(z[cols[bad][0]])}) series cancellation: fewer than "
                        "six significant digits are achievable in double precision"
                    )
            out[live[ended]] = at
            if hit.all():
                return out
        keep = ~hit  # a boolean index copies the carried state out of the work arrays
        live, z, peak = live[keep], z[keep], block_peak[keep]
        term, total, prev_abs, was_small = (v[-1, keep] for v in (terms, sums, mags, small))
        _refuse_overflow(a, b, z, total)  # a partial sum off the range stays off it
    raise ConvergenceError(
        f"Phi({a};{b};{float(z[0])}) series did not converge within {ctl.max_terms} terms"
    )


def _asymptotic_1f1_negative_array(
    a: float, b: float, z: np.ndarray, ctl: SeriesControl
) -> np.ndarray:
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
    if _is_nonpositive_integer(b - a):
        raise DomainError(
            f"asymptotic branch of Phi undefined for b - a = {b - a} (leading term vanishes)"
        )
    inv = 1.0 / (-z)
    sums_at = np.empty_like(z)
    floors = np.empty_like(z)
    live = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.full_like(z, math.inf)
    work = _work_arrays(z.size, bools=2)
    for start in range(0, ctl.max_terms, _SERIES_BLOCK):
        k = np.arange(start, min(start + _SERIES_BLOCK, ctl.max_terms))
        terms, sums, mags, bar, diverged, stop = (w[: k.size, : inv.size] for w in work)
        _term_block((a + k) * (a - b + 1.0 + k), inv, k, term, total, terms, sums)
        np.abs(terms, out=mags)
        # divergent tail reached: stop at the smallest term, without adding this one
        np.greater_equal(mags[0], prev, out=diverged[0])
        np.greater_equal(mags[1:], mags[:-1], out=diverged[1:])
        np.abs(sums, out=bar)
        bar *= ctl.rel_tol
        np.maximum(bar, ctl.abs_tol, out=bar)
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


def _kummer_phi_array(
    a: float, b: float, z: np.ndarray, ctl: SeriesControl = DEFAULT_CONTROL
) -> np.ndarray:
    """Kummer's Phi(a;b;z) = sum (a)_n/(b)_n z^n/n! for every element of ``z``.

    Branches, element by element: Phi = 1 at z = 0 or a = 0, and e^z at
    a = b (refused where it overflows); the direct series for 0 < z <= 700
    (refused above); the large-|z| expansion ~ Gamma(b)/Gamma(b-a) (-z)^(-a)
    for z <= -30; for -30 < z < 0 the reflection
    Phi(a;b;z) = e^z Phi(b-a;b;-z) when b > 0 and b - a > 0 (all its series
    terms positive, killing cancellation), else the direct series.  The
    elements of each branch are summed together, and each element gets the
    bits it gets alone.
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"Phi pole: b = {b} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    if a == 0.0:
        return np.ones_like(z)
    if a == b:
        with np.errstate(over="ignore"):
            out = np.exp(z)
        over = np.isposinf(out)
        if over.any():
            raise ConvergenceError(f"Phi overflow for z = {float(z[over][0])}")
        return out
    over = z > 700.0
    if over.any():
        raise ConvergenceError(f"Phi overflow for z = {float(z[over][0])}")
    out = np.ones_like(z)
    deep = z <= -_PHI_ASYMPTOTIC_CUT
    direct = z > 0.0
    # -30 < z < 0, and nan, which every series refuses
    mid = ~(deep | direct | (z == 0.0))
    if b > 0.0 and b - a > 0.0:
        if mid.any():
            out[mid] = np.exp(z[mid]) * _series_1f1_array(b - a, b, -z[mid], ctl)
    else:
        direct |= mid
    if direct.any():
        out[direct] = _series_1f1_array(a, b, z[direct], ctl)
    if deep.any():
        out[deep] = _asymptotic_1f1_negative_array(a, b, z[deep], ctl)
    return out


def kummer_phi(a: float, b: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Kummer confluent hypergeometric function Phi(a;b;z) at one argument.

    Phi = 1 at z = 0 or a = 0 is returned at once; every other argument is
    a one-element call of :func:`_kummer_phi_array`, which takes the branch.
    """
    if (z == 0.0 or a == 0.0) and not _is_nonpositive_integer(b):
        return 1.0
    return float(_kummer_phi_array(a, b, np.array([z], dtype=float), ctl)[0])


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_PANEL_ORDER)


def decade_panels(
    power: float, lstar: float, upper: float | np.ndarray, decades: int
) -> float | np.ndarray:
    """int of 1/(1 + (s/lstar)^power) over [upper * 10^-decades, upper].

    One Gauss-Legendre rule per decade [L, 10L], L = upper / 10^k: its
    nodes are s = L c_j, c_j = 5.5 + 4.5 n_j, so (s/lstar)^power =
    (L/lstar)^power c_j^power.  c_j^power is taken once per call and
    (L/lstar)^power once per decade edge, and the integrand of every node
    is the product of the two.

    ``upper`` is a float or a 1-d array of uppers; a float gives a float,
    an array an array of the same length.  The uppers are summed
    :data:`_PANEL_BLOCK` at a time, the integrand of a block written into
    one (block, decades, order) work array made once per call, so the
    working set stays in cache whatever the number of uppers.  Each upper's
    panel sums are added by ``math.fsum``, in the same operations and order
    for every block size, so an upper gets the same bits alone as in any
    array.  The integrand is positive, bounded by 1 and smooth on each
    decade, with its only singularity, a branch point, at s = 0; there a
    48-node rule reaches about 1e-27 of the panel's scale.
    """
    nodes, weights = _panel_rule()
    node_powers = (5.5 + 4.5 * nodes) ** power
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
        sums.extend(map(math.fsum, (4.5 * lo * (f @ weights)).tolist()))
    return sums[0] if uppers.ndim == 0 else np.array(sums)

