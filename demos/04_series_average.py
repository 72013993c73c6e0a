"""Exact Poincaré series: closed forms, expansions, and the average Betti number.

All arithmetic is on integer polynomials; the average of the alternating
Betti sums is an exact rational read off the closed form by one polynomial
division, which fails exactly when a multiple pole leaves no average.
"""

from loopbv import (
    NonQuasilinearError,
    average_alternating,
    betti,
    eq_exact,
    expand,
    le_series,
    lg_series,
    total_series,
)

print("Closed form for the non-contractible component and its expansion:")
for n in (1, 2, 3):
    r = lg_series(n)
    coeffs = list(expand(r, 14).coefficients)
    print(f"  n={n}: num={list(r.numerator)} den={list(r.denominator)}")
    print(f"        coefficients through t^14: {coeffs}")

print("\nThe component series sum exactly to the full-space series:")
for n in (1, 2, 3, 4, 5):
    print(f"  n={n}:", eq_exact(le_series(n) + lg_series(n), total_series(n)))

print("\nEquivariant Betti numbers are bounded on the non-contractible side:")
top = max(expand(lg_series(3), 200).coefficients)
print(f"  n=3: largest coefficient through degree 200 is {top}")
print(f"  individual values: b_0={betti(lg_series(3), 0)}, "
      f"b_6={betti(lg_series(3), 6)}, b_8={betti(lg_series(3), 8)}")

print("\nAverage alternating Betti number equals (n+1)/(2n) exactly:")
for n in range(1, 9):
    print(f"  n={n}: {average_alternating(lg_series(n))}")

print("\nThe contractible side has unbounded Betti numbers: no average exists,")
print("and the exact pole check refuses rather than returning a wrong value:")
try:
    average_alternating(total_series(2))
except NonQuasilinearError as exc:
    print(f"  {exc}")
