"""Comparison approximations: piecewise linear and Taylor.

Each gives the output codes of a range of input magnitude codes, computed
column-wise over the range in real arithmetic and rounded only at the
output, which keeps method error separate from rounding error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

# tanh x = x - x^3/3 + 2x^5/15 - 17x^7/315 + ...
_TAYLOR_COEFFS = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0)


@dataclass(frozen=True)
class PwlTable:
    """Piecewise-linear knot table over [0, clamp], odd-extended for x < 0."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for knot in self.knots:
            if not all(map(math.isfinite, knot)):
                raise ValueError(f"knot {knot} is not finite")
        if not self.knots or self.knots[0] != (0.0, 0.0):
            raise ValueError("first knot must be (0, 0)")
        xs = [x for x, _ in self.knots]
        ys = [y for _, y in self.knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot inputs must be strictly ascending")
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("knot values must be nondecreasing")


def _knot_count(spacing: float, clamp: float) -> int:
    """Knots of ``uniform_pwl_table(spacing, clamp)``, counted without building them."""
    for name, v in (("spacing", spacing), ("clamp", clamp)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    n = clamp / spacing
    if not math.isfinite(n):
        raise ValueError(f"spacing {spacing} is too fine to count knots over [0, {clamp}]")
    return math.ceil(n) + 1


def uniform_pwl_table(spacing: float = 0.25, clamp: float = 5.6) -> PwlTable:
    """Uniform tanh knots at the given spacing over [0, clamp]."""
    return PwlTable(tuple((i * spacing, math.tanh(i * spacing)) for i in range(_knot_count(spacing, clamp))))


def _pwl_range(table: PwlTable, ulp: float, scale: int, m0: int, m1: int) -> list[int]:
    """Rounded output codes of linear interpolation between knots at magnitude codes m0..m1-1.

    Walks the knot segments from the one holding ``m0 * ulp``, one list per
    segment; magnitudes at or past the last knot take its value.
    """
    knots, last = table.knots, len(table.knots) - 1
    i = bisect_right(knots, m0 * ulp, key=itemgetter(0)) - 1
    codes = []
    while m0 < m1 and i < last:
        (x0, y0), (x1, y1) = knots[i], knots[i + 1]
        end = min(m1, math.ceil(x1 / ulp))      # first code at or past x1; ulp is a power of two
        dy, dx = y1 - y0, x1 - x0
        codes += [round((y0 + dy * (m * ulp - x0) / dx) * scale) for m in range(m0, end)]
        m0, i = end, i + 1
    return codes + [round(knots[-1][1] * scale)] * (m1 - m0)


def _check_terms(terms: int) -> None:
    if terms < 1:
        raise ValueError("need at least one term")
    if terms > len(_TAYLOR_COEFFS):
        raise ValueError(f"at most {len(_TAYLOR_COEFFS)} terms supported")


def _taylor_range(terms: int, ulp: float, scale: int, m0: int, m1: int) -> list[int]:
    """Rounded output codes of the tanh Taylor partial sum at magnitude codes m0..m1-1.

    The sum is accurate only for small |x|; its error grows rapidly toward
    the radius of convergence and beyond, which is what the comparison is
    meant to show.  It is computed column-wise over the range, and each
    element sees the scalar sum's float operations in its order: acc = x
    (the first term, 0.0 + 1.0 * x), then per term power *= x * x and
    acc += coefficient * power.
    """
    xs = [m * ulp for m in range(m0, m1)]
    sq = [x * x for x in xs]
    acc = power = xs
    for c in _TAYLOR_COEFFS[1:terms]:
        power = [p * s for p, s in zip(power, sq)]
        acc = [a + c * p for a, p in zip(acc, power)]
    return [round(a * scale) for a in acc]


# relative slack per term in _taylor_live; far above the float error of the
# sums there and in _taylor_range, at most about 12 * 2**-53 of the terms' sum
_SLACK = 2.0 ** -40


def _taylor_live(terms: int, ulp: float, stop: int) -> int:
    """First magnitude code m < stop from which every ``_taylor_range`` code is at or beyond ±scale; ``stop`` if none.

    The codes there lie on the side of the last coefficient c: wherever the
    last term outweighs the others, L(x) = |c| x^(2k-1) - sum |c_i| x^(2i-1)
    > 0, the sum has c's sign and magnitude at least L(x).  L(x) / x^(2k-1)
    increases with x, so once L(x) - s T(x) reaches 1, with T the sum of the
    terms' magnitudes and slack s = ``_SLACK``, it stays there.  Half the
    slack covers this test's float error, half that of the rounded sum: its
    magnitude stays at least 1, for any output scale.  Bisects over codes
    below ``stop``.
    """
    *rest, last = (abs(c) for c in _TAYLOR_COEFFS[:terms])

    def clears(m: int) -> bool:
        x = m * ulp
        lower = sum(c * x ** (2 * i + 1) for i, c in enumerate(rest)) * (1.0 + _SLACK)
        return last * x ** (2 * terms - 1) * (1.0 - _SLACK) - lower >= 1.0

    lo, hi = 0, stop                            # clears(lo) fails; any code from hi on clears
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if clears(mid) else (mid, hi)
    return hi
