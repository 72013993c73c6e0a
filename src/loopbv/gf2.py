"""Small GF(2) linear algebra on int bitsets."""

from __future__ import annotations


def rank(rows: list[int]) -> int:
    """Rank of the span of bitmask rows by Gaussian elimination: each row is
    reduced by the pivots found so far, keyed by their leading bit, until it
    is zero or leads with a new bit and becomes a pivot."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)
