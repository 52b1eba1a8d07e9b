"""Special functions behind the closed-form dispersion and normalization laws.

Three scalar functions are exposed:

* :func:`gamma_fn` -- the gamma function with explicit pole detection,
* :func:`kummer_phi` -- Kummer's confluent hypergeometric function
  ``Phi(a; b; z)``, stable for strongly negative arguments,
* :func:`gauss_2f1` -- the Gauss hypergeometric function ``F(a, b; c; z)``,
  summed as a series inside the unit disk and analytically continued for
  ``z < -1`` in the one-parameter pattern ``F(1, b; b+1; z)`` that the
  dispersion integrals of binomial multiscale measures produce.

The heat-kernel trace evaluates ``Phi`` on whole arrays of quadrature nodes
through the private ``_kummer_phi_array``, which takes the scalar branches
and sums their series term for term; the scalar function is its oracle.

The continuation used for that pattern is

    F(1, b; b+1; z) = b/(b-1) * w * F(1, 1; 2-b; w) + Gamma(b+1)Gamma(1-b)(-z)^(-b)

with ``w = 1/(1-z)``.  It holds for every ``z < 0``, but near a positive
integer ``b = k`` both terms grow like ``1/|b-k|`` while their sum stays
finite, so the rounding error of each term is amplified by that factor.
Within :data:`REMOVABLE_POLE_WINDOW` of such an integer the pattern is
therefore taken from Euler's integral instead,

    F(1, b; b+1; z) = b * int_0^1 t^(b-1) / (1 - z t) dt,

whose integrand is positive for ``z < 0``: a fixed decade-panel
Gauss-Legendre rule (:func:`decade_panels`) evaluates it with nothing to
cancel.  Against ``mpmath.hyp2f1`` the window route is within 1e-13 for
``k <= 40``, ``-1e5 <= z <= -0.5`` and every offset ``b - k`` down to 0;
outside the window the continuation (with the exactly reduced
:func:`sinpi`) stays within 1e-9.  The same window selects the panel rule
of ``dispersion.binomial_time_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "SeriesControl",
    "DEFAULT_CONTROL",
    "REMOVABLE_POLE_WINDOW",
    "gamma_fn",
    "kummer_phi",
    "gauss_2f1",
    "sinpi",
    "in_removable_pole_window",
    "decade_panels",
]

# |z| above which the confluent series is abandoned for the large-|z| expansion.
_PHI_ASYMPTOTIC_CUT = 30.0
# |b - k| below which the two O(1/|b-k|) continuation terms are not summed:
# F(1, b; b+1; z) near a positive integer k comes from Euler's integral, and
# the binomial dispersion integral from its panel rule.
REMOVABLE_POLE_WINDOW = 1e-2
# |sin(pi*b)| below which b is treated as sitting on an integer: a pole of
# F(1, b; b+1; z) for negative b, the value F = 1 - b log(1-z) next to b = 0.
_INTEGER_B_SIN = 1e-8
# z at or below which the (1, b; b+1; z) pattern is continued instead of summed.
_F21_CONTINUATION_CUT = -0.5
# Largest growth (-z)^(-b) of the continuation terms accepted inside the disk;
# beyond it their cancellation costs more digits than the 1e-8 contract allows.
_CONTINUATION_GROWTH_MAX = 64.0
# Terms generated per step by the array series of Phi (_term_block).
_SERIES_BLOCK = 32
# Gauss-Legendre order of every decade panel (decade_panels).
_PANEL_ORDER = 48
# Decades of Euler's integral below t = max(1, -z)^-1 covered by panels.
_EULER_DECADES = 18
# largest non-integer b whose continuation valley stays above double precision.
_CONTINUATION_B_MAX = 60.0


def _CANCELLATION_BAR(ctl: "SeriesControl") -> float:
    """Largest tolerated roundoff-floor-to-result ratio before a series
    evaluation is refused instead of silently degraded."""
    return max(1e-6, ctl.rel_tol)

_PATTERN_TOL = 1e-12


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

    def threshold(self, accumulated: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(accumulated))


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


def _series_1f1(a: float, b: float, z: float, ctl: SeriesControl) -> float:
    """Direct Taylor sum of Phi(a;b;z).  Caller guarantees b has no pole.

    Tracks the largest intermediate term: for alternating sums whose result
    is far below the peak term, the roundoff floor can exceed the requested
    tolerance, and pretending otherwise would return garbage.
    """
    total = 1.0
    term = 1.0
    peak = 1.0
    prev_abs = 1.0
    small_runs = 0
    crossing = -b if b < 0.0 else 0.0
    for n in range(ctl.max_terms):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        peak = max(peak, abs(term))
        # negative non-integer b: denominators pass near zero; only trust a
        # stop past the crossing and once magnitudes are decreasing again
        settled = n > crossing and abs(term) <= prev_abs
        prev_abs = abs(term)
        if settled and abs(term) <= ctl.threshold(total):
            small_runs += 1
            if small_runs >= 2:
                if 5e-16 * peak > _CANCELLATION_BAR(ctl) * abs(total):
                    raise ConvergenceError(
                        f"Phi({a};{b};{z}) series cancellation: fewer than six "
                        "significant digits are achievable in double precision"
                    )
                return total
        else:
            small_runs = 0
    raise ConvergenceError(
        f"Phi({a};{b};{z}) series did not converge within {ctl.max_terms} terms"
    )


def _asymptotic_1f1_negative(a: float, b: float, z: float, ctl: SeriesControl) -> float:
    """Phi(a;b;z) for z -> -inf:  Gamma(b)/Gamma(b-a) (-z)^(-a) [1 + O(1/z)].

    The correction series sum_k (a)_k (a-b+1)_k / (k! (-z)^k) is summed to its
    smallest term; at |z| >= 30 and moderate parameters the truncation floor is
    far below every tolerance used in this package.
    """
    if _is_nonpositive_integer(b - a):
        raise DomainError(
            f"asymptotic branch of Phi undefined for b - a = {b - a} (leading term vanishes)"
        )
    inv = 1.0 / (-z)
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(ctl.max_terms):
        term *= (a + k) * (a - b + 1.0 + k) * inv / (k + 1)
        if abs(term) >= prev:  # divergent tail reached: stop at smallest term
            break
        total += term
        prev = abs(term)
        if abs(term) <= ctl.threshold(total):
            break
    if prev > 1e-8 * abs(total):
        # the optimally truncated expansion cannot certify ~8 digits here
        raise ConvergenceError(
            f"Phi({a};{b};{z}) asymptotic truncation floor {prev:.2e} is too "
            "coarse; argument not deep enough for these parameters"
        )
    prefactor = gamma_fn(b) / gamma_fn(b - a) * (-z) ** (-a)
    return prefactor * total


def _term_block(
    coeff: np.ndarray, x: np.ndarray, n: np.ndarray, term: np.ndarray, total: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Terms n of a sum with term ratio coeff_n x / (n + 1), and its partial sums.

    One row per element of ``x``, one column per term index in ``n``;
    ``term`` and ``total`` are each row's last term and sum before the
    block.  Running products and sums along a row perform the scalar loop's
    multiplications and additions in the scalar loop's order.
    """
    terms = coeff * x[:, None] / (n + 1)
    terms[:, 0] *= term
    np.multiply.accumulate(terms, axis=1, out=terms)
    sums = terms.copy()
    sums[:, 0] += total
    np.add.accumulate(sums, axis=1, out=sums)
    return terms, sums


def _series_1f1_array(a: float, b: float, z: np.ndarray, ctl: SeriesControl) -> np.ndarray:
    """:func:`_series_1f1` for every element of ``z`` at once; caller guarantees b > 0.

    Terms come :data:`_SERIES_BLOCK` at a time for every unfinished element.
    Each element stops at the term where the scalar sum stops, with the same
    cancellation test.
    """
    out = np.empty_like(z)
    live = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    peak = np.ones_like(z)
    prev_abs = np.ones_like(z)
    was_small = np.zeros(z.shape, dtype=bool)
    for start in range(0, ctl.max_terms, _SERIES_BLOCK):
        n = np.arange(start, min(start + _SERIES_BLOCK, ctl.max_terms))
        terms, sums = _term_block((a + n) / (b + n), z, n, term, total)
        mags = np.abs(terms)
        peaks = np.maximum.accumulate(mags, axis=1)
        np.maximum(peaks, peak[:, None], out=peaks)
        # a stop is trusted from the second term on, once magnitudes decrease
        settled = np.empty(mags.shape, dtype=bool)
        settled[:, 0] = (mags[:, 0] <= prev_abs) & (start > 0)
        np.less_equal(mags[:, 1:], mags[:, :-1], out=settled[:, 1:])
        small = settled & (mags <= np.maximum(ctl.abs_tol, ctl.rel_tol * np.abs(sums)))
        # two small terms in a row end the sum
        done = small.copy()
        done[:, 0] &= was_small
        done[:, 1:] &= small[:, :-1]
        hit = done.any(axis=1)
        if hit.any():
            rows = np.flatnonzero(hit)
            cols = np.argmax(done[rows], axis=1)
            bad = 5e-16 * peaks[rows, cols] > _CANCELLATION_BAR(ctl) * np.abs(sums[rows, cols])
            if bad.any():
                raise ConvergenceError(
                    f"Phi({a};{b};{float(z[rows[bad][0]])}) series cancellation: fewer than "
                    "six significant digits are achievable in double precision"
                )
            out[live[rows]] = sums[rows, cols]
            if hit.all():
                return out
            keep = ~hit
            live, z = live[keep], z[keep]
        else:
            keep = slice(None)
        term, total, peak, prev_abs, was_small = (
            v[keep, -1] for v in (terms, sums, peaks, mags, small)
        )
    raise ConvergenceError(
        f"Phi({a};{b};{float(z[0])}) series did not converge within {ctl.max_terms} terms"
    )


def _asymptotic_1f1_negative_array(
    a: float, b: float, z: np.ndarray, ctl: SeriesControl
) -> np.ndarray:
    """:func:`_asymptotic_1f1_negative` for every element of ``z`` at once.

    Terms come :data:`_SERIES_BLOCK` at a time for every unfinished element.
    Each element stops its correction series where the scalar sum stops, and
    the same truncation floor is required of every element.
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
    for start in range(0, ctl.max_terms, _SERIES_BLOCK):
        k = np.arange(start, min(start + _SERIES_BLOCK, ctl.max_terms))
        terms, sums = _term_block((a + k) * (a - b + 1.0 + k), inv, k, term, total)
        mags = np.abs(terms)
        prevs = np.empty_like(mags)
        prevs[:, 0] = prev
        prevs[:, 1:] = mags[:, :-1]
        # divergent tail reached: stop at the smallest term, without adding this one
        diverged = mags >= prevs
        stop = diverged | (mags <= np.maximum(ctl.abs_tol, ctl.rel_tol * np.abs(sums)))
        hit = stop.any(axis=1)
        rows = np.flatnonzero(hit)
        cols = np.argmax(stop[rows], axis=1)
        div = diverged[rows, cols]
        before = np.where(cols > 0, sums[rows, cols - 1], total[rows])
        sums_at[live[rows]] = np.where(div, before, sums[rows, cols])
        floors[live[rows]] = np.where(div, prevs[rows, cols], mags[rows, cols])
        keep = ~hit
        if not keep.any():
            break
        live, inv = live[keep], inv[keep]
        term, total, prev = terms[keep, -1], sums[keep, -1], mags[keep, -1]
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
    """:func:`kummer_phi` over an array of arguments ``z``, element by element.

    Each element takes the branch the scalar function takes.  The reflection
    branch (-30 < z < 0 with b > 0 and b - a > 0) and the large-|z| branch
    (z <= -30) are summed for all their elements together, with the scalar
    term recurrences, stopping rules and refusals; every other nonzero
    element goes through :func:`kummer_phi` itself.
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"Phi pole: b = {b} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    if a == 0.0:
        return np.ones_like(z)
    out = np.ones_like(z)
    # a == b is exp(z), which the scalar function returns on every branch
    deep = (z <= -_PHI_ASYMPTOTIC_CUT) & (a != b)
    mid = (z < 0.0) & ~deep & (b > 0.0 and b - a > 0.0)
    if deep.any():
        out[deep] = _asymptotic_1f1_negative_array(a, b, z[deep], ctl)
    if mid.any():
        out[mid] = np.exp(z[mid]) * _series_1f1_array(b - a, b, -z[mid], ctl)
    for i in np.flatnonzero(~(deep | mid | (z == 0.0))):
        out.flat[i] = kummer_phi(a, b, float(z.flat[i]), ctl)
    return out


def kummer_phi(a: float, b: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Kummer confluent hypergeometric function Phi(a;b;z) = sum (a)_n/(b)_n z^n/n!.

    Branches: direct series for z >= 0; the reflection
    Phi(a;b;z) = e^z Phi(b-a;b;-z) for moderately negative z (all series terms
    positive when b > a, killing cancellation); the large-|z| expansion
    ~ Gamma(b)/Gamma(b-a) (-z)^(-a) below ``z = -30``.
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"Phi pole: b = {b} is a non-positive integer")
    if z == 0.0 or a == 0.0:
        return 1.0
    if a == b:
        return math.exp(z)
    if z > 0.0:
        if z > 700.0:
            raise ConvergenceError(f"Phi overflow for z = {z}")
        return _series_1f1(a, b, z, ctl)
    if z <= -_PHI_ASYMPTOTIC_CUT:
        return _asymptotic_1f1_negative(a, b, z, ctl)
    if b > 0.0 and b - a > 0.0:
        return math.exp(z) * _series_1f1(b - a, b, -z, ctl)
    return _series_1f1(a, b, z, ctl)


def _series_2f1(a: float, b: float, c: float, z: float, ctl: SeriesControl) -> float:
    """Direct Taylor sum of F(a,b;c;z); caller guarantees |z| < 1 and valid c.

    A negative (non-integer) c makes the denominators (c)_n pass close to
    zero near n = -c: the terms dip through a deep valley and resurge on the
    other side.  Convergence stops are suppressed until that point is passed,
    otherwise the resurgent contribution (which can dominate the sum) would
    be silently dropped.
    """
    total = 1.0
    term = 1.0
    peak = 1.0
    prev_abs = 1.0
    small_runs = 0
    crossing = -c if c < 0.0 else 0.0
    if crossing >= ctl.max_terms:
        raise ConvergenceError(
            f"F({a},{b};{c};{z}) needs more than max_terms={ctl.max_terms} terms "
            "to clear the denominator zero crossing"
        )
    for n in range(ctl.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        peak = max(peak, abs(term))
        # a stop is only trusted past the crossing and once the resurgent
        # bump (growing magnitudes) is over
        settled = n > crossing and abs(term) <= prev_abs
        prev_abs = abs(term)
        if settled and abs(term) <= ctl.threshold(total):
            small_runs += 1
            if small_runs >= 2:
                if 5e-16 * peak > _CANCELLATION_BAR(ctl) * abs(total):
                    raise ConvergenceError(
                        f"F({a},{b};{c};{z}) series cancellation: fewer than six "
                        "significant digits are achievable in double precision"
                    )
                return total
        else:
            small_runs = 0
    raise ConvergenceError(
        f"F({a},{b};{c};{z}) series did not converge within {ctl.max_terms} terms"
    )


def sinpi(x: float) -> float:
    """sin(pi x) to full relative accuracy, also next to the integers.

    ``math.sin(math.pi * x)`` rounds ``pi * x`` first, an absolute error of
    about 1e-16 |x| that becomes a relative error of 1e-16 |x| / |x - k|
    near an integer k.  Here the integer part is removed exactly first.
    """
    k = round(x)
    s = math.sin(math.pi * (x - k))
    return -s if k % 2 else s


def in_removable_pole_window(b: float) -> bool:
    """True when b lies within :data:`REMOVABLE_POLE_WINDOW` of an integer."""
    return abs(b - round(b)) < REMOVABLE_POLE_WINDOW


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_PANEL_ORDER)


def decade_panels(f: Callable[[np.ndarray], np.ndarray], upper: float, decades: int) -> float:
    """int of f over [upper * 10^-decades, upper], one Gauss-Legendre rule per decade.

    ``f`` takes and returns arrays; it is called once, on the nodes of every
    decade together.  The rule suits integrands that are smooth on each
    decade, with their singularities at or left of 0: a branch point at 0
    limits a 48-node rule to about 1e-27 of the panel's scale.
    """
    nodes, weights = _panel_rule()
    lo = upper * 10.0 ** -np.arange(decades, 0, -1, dtype=float)
    half = 4.5 * lo
    x = (lo + half)[:, None] + half[:, None] * nodes
    return math.fsum(half * (f(x) @ weights))


def _f21_pattern_euler(b: float, z: float) -> float:
    """F(1, b; b+1; z) for b > 0 and z < 0 from Euler's integral.

    F = b int_0^1 t^(b-1) / (1 + c t) dt with c = -z.  The integrand is
    positive and has no pole at integer b, so this route holds its accuracy
    where the continuation cancels.  The panels reach down to
    eps = 10^-D with eps * max(1, c) <= 1e-18; below, the head
    b int_0^eps t^(b-1) / (1 + c t) dt is eps^b to a relative c * eps.
    """
    c = -z
    decades = _EULER_DECADES + max(0, math.ceil(math.log10(c)))
    body = decade_panels(lambda t: t ** (b - 1.0) / (1.0 + c * t), 1.0, decades)
    return 10.0 ** (-decades * b) + b * body


def _f21_pattern_continuation(b: float, z: float, ctl: SeriesControl) -> float:
    """F(1, b; b+1; z) for z < 0 via the w = 1/(1-z) continuation.

    Near a positive integer b the two continuation terms diverge with a
    finite sum; inside :data:`REMOVABLE_POLE_WINDOW` Euler's integral is
    used instead.  Next to b = 0 the first-order value 1 - b log(1-z) is
    returned, and next to a negative integer b the function itself
    diverges (:class:`PoleError`).  For large non-integer b the inner series
    develops a deep valley followed by a resurgent tail (its denominators
    pass close to zero); beyond b ~ 60 the valley undercuts double precision
    and the evaluation is rejected rather than silently degraded.
    """
    k = round(b)
    if abs(sinpi(b)) < _INTEGER_B_SIN:
        if k == 0:
            return 1.0 - b * math.log1p(-z)
        if k < 0:
            raise PoleError(
                f"F(1,b;b+1;z) diverges at negative integer b = {k} (c = b+1 pole)"
            )
    if b > _CONTINUATION_B_MAX:
        raise ConvergenceError(
            f"continuation of F(1,{b};{b + 1};{z}) is unstable for b > "
            f"{_CONTINUATION_B_MAX}: the resurgent part of the inner series "
            "falls below double precision"
        )
    if k >= 1 and in_removable_pole_window(b):
        return _f21_pattern_euler(b, z)
    w = 1.0 / (1.0 - z)
    head = b / (b - 1.0) * w * _series_2f1(1.0, 1.0, 2.0 - b, w, ctl)
    # Gamma(b+1)Gamma(1-b)(-z)^(-b) = pi b/sin(pi b) * (-z)^(-b), assembled in
    # log space: the factors overflow for large |b| while the product is tame.
    sin_pi_b = sinpi(b)
    log_mag = math.log(math.pi * abs(b)) - math.log(abs(sin_pi_b)) - b * math.log(-z)
    if log_mag > 700.0:
        raise ConvergenceError(
            f"F(1,{b};{b + 1};{z}) continuation term overflows (exponent {log_mag:.1f})"
        )
    sign = 1.0 if (b > 0.0) == (sin_pi_b > 0.0) else -1.0
    return head + sign * math.exp(log_mag)


def gauss_2f1(
    a: float, b: float, c: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Gauss hypergeometric F(a,b;c;z) = sum (a)_n (b)_n/(c)_n z^n/n!.

    Supported domain: the Taylor series for |z| < 1 with any parameters, plus
    the analytic continuation to z <= -1 restricted to the pattern
    (1, b; b+1; z).  Other arguments outside the unit disk raise
    :class:`DomainError`; near-negative-integer b in the continuation raises
    :class:`PoleError` (the function itself diverges there).
    """
    if _is_nonpositive_integer(c):
        raise PoleError(f"F pole: c = {c} is a non-positive integer")
    if z == 0.0:
        return 1.0
    if z >= 1.0:
        raise DomainError(f"F(a,b;c;z) not defined for z >= 1 (got z = {z})")
    pattern = abs(a - 1.0) <= _PATTERN_TOL and abs(c - (b + 1.0)) <= _PATTERN_TOL * max(
        1.0, abs(b) + 1.0
    )
    if pattern and z <= _F21_CONTINUATION_CUT:
        # Inside the disk (-1 < z <= -0.5) the continuation converges much
        # faster than the direct series; but its two terms grow like
        # (1/|z|)^b there, so for larger b the cancellation would eat the
        # answer and the direct series (still geometric) is the stable route.
        if z <= -0.95 or (b <= 12.0 and (-z) ** -b <= _CONTINUATION_GROWTH_MAX):
            return _f21_pattern_continuation(b, z, ctl)
        return _series_2f1(a, b, c, z, ctl)
    if abs(z) < 1.0:
        return _series_2f1(a, b, c, z, ctl)
    raise DomainError(
        f"F({a},{b};{c};{z}) is outside the series radius and the (1,b;b+1;z) continuation pattern"
    )
