#!/usr/bin/env python3
"""Twisted counts T_s(y) and the two sign rules that pin the d term.

T_3(y) = q^2 + (q-1)(-c - 9*delta_y*d)/2 for non-cubic y.  The classical
mod-4 rule determines the sign of d over prime fields where 2 is non-cubic;
the exact sign factor delta_y = (+/-)theta covers every field, including the
long-open case of 2 cubic (p = 31 is the first such prime).
"""

from diagcubic import (
    CubicClass,
    count_diagonal,
    count_twisted,
    cubic_data,
    make_field,
    twisted_series,
)
from diagcubic.constants import delta
from diagcubic.ntheory import primes_up_to
from diagcubic.oracle import brute_twisted
from diagcubic.verify import signed_d_mod4, twisted3_closed

print("== the worked case: F_31, where 2 is a cube ==")
f31 = make_field(31)
d31 = cubic_data(f31)
print("constants: c =", d31.c, " d =", d31.d, " r =", (d31.r1, d31.r2), " theta =", d31.theta)
print("delta for the two non-cube classes:", delta(d31, CubicClass.C1), delta(d31, CubicClass.C2))
g = f31.g
for label, y, cls in (("g", g, CubicClass.C1), ("g^2", g * g, CubicClass.C2)):
    print(f"  T_3({label}): closed {twisted3_closed(d31, cls)}, "
          f"recurrence {count_twisted(d31, 3, cls)}, brute {brute_twisted(f31, 3, y)}")

print("\n== the mod-4 rule where it applies (2 non-cubic) ==")
print(f"{'p':>4} {'c':>4} {'d':>2}   signed d by class   -delta*d by class")
for p in primes_up_to(100):
    if p % 3 != 1:
        continue
    field = make_field(p)
    if field.cube_class(field.element([2])) is CubicClass.C0:
        print(f"{p:>4}   2 is cubic: rule not applicable, exact delta still works")
        continue
    data = cubic_data(field)
    mod4 = [signed_d_mod4(field, cls) for cls in (CubicClass.C1, CubicClass.C2)]
    exact = [-delta(data, cls) * data.d for cls in (CubicClass.C1, CubicClass.C2)]
    print(f"{p:>4} {data.c:>4} {data.d:>2}   {mod4!s:>17}   {exact!s:>17}")

print("\n== twisted series from the seeds v_i = w_i + (q-1) u_i(y) ==")
stream = twisted_series(d31, CubicClass.C1, 6)
print("T_s(g) over F_31, s = 2..7:", list(stream))
print("cross-check via T_s = N_{s-1}(0) + (q-1) N_{s-1}(y):",
      [count_diagonal(d31, s - 1, CubicClass.ZERO) + (d31.q - 1) * count_diagonal(d31, s - 1, CubicClass.C1)
       for s in range(2, 8)])
