"""Bit-complexity bounds for memorizing separated point sets on the sphere.

The true packing/covering numbers of the unit sphere are unknown exactly;
every result here substitutes the certified closed-form sandwich

    (1/(4 delta))^(d-1)  <=  C_delta  <=  P_delta  <=  (2/delta)^d

and is therefore a bound on a bound, never the true quantity. All
arithmetic stays in the log domain so no intermediate overflows for any
sane query (d up to 1e4, delta down to 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

@dataclass(frozen=True)
class CapacityQuery:
    n: int
    d: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if not (0 < self.delta <= 2):
            raise ValueError("delta must lie in (0, 2]")


@dataclass(frozen=True)
class PackingBounds:
    """log2 of the packing sandwich; a vacuous (negative) lower bound is
    clamped to zero and flagged rather than reported as negative."""

    lower_log2: float
    upper_log2: float
    lower_clamped: bool


@dataclass(frozen=True)
class BitsResult:
    bits: float
    degenerate: bool


def packing_bounds(d: int, delta: float) -> PackingBounds:
    """Certified log2 bounds on the sphere packing number.

    lower = (d-1) * log2(1/(4 delta)), upper = d * log2(2/delta); the lower
    bound is only informative for delta < 1/4 and clamps to 0 otherwise.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if not (0 < delta <= 2):
        raise ValueError("delta must lie in (0, 2]")
    raw_lower = -(d - 1) * math.log2(4.0 * delta)
    upper = d * math.log2(2.0 / delta)
    if raw_lower < 0:
        return PackingBounds(0.0, upper, True)
    return PackingBounds(raw_lower, upper, False)


def bits_lower_bound(q: CapacityQuery) -> BitsResult:
    """max(n, log2 log2 P) with P replaced by its certified lower bound.

    When the packing bound collapses (log2 P <= 1) the double log is
    meaningless; the result falls back to n and is flagged degenerate.
    """
    pb = packing_bounds(q.d, q.delta)
    if pb.lower_log2 <= 1.0:
        return BitsResult(float(q.n), True)
    return BitsResult(max(float(q.n), math.log2(pb.lower_log2)), False)


def bits_upper_bound(q: CapacityQuery) -> BitsResult:
    """Sufficient bit count n + log2 n + log2 ln(2 C) with C = (4/delta)^d.

    C stands in for the delta/2 covering number via the packing upper bound
    at delta/2. ln(2 C) is expanded as ln 2 + d ln(4/delta) to stay in the
    log domain.
    """
    ln_2c = math.log(2.0) + q.d * math.log(4.0 / q.delta)
    bits = q.n + math.log2(q.n) + math.log2(ln_2c)
    return BitsResult(bits, False)
