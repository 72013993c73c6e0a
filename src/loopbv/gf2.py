"""Small GF(2) linear algebra on int bitsets."""

from __future__ import annotations


def rank(rows: list[int]) -> int:
    """Rank of the span of bitmask rows via Gaussian elimination."""
    work = [r for r in rows if r]
    rk = 0
    while work:
        pivot_row = work.pop()
        rk += 1
        pivot_bit = pivot_row & -pivot_row
        work = [r ^ pivot_row if r & pivot_bit else r for r in work]
        work = [r for r in work if r]
    return rk
