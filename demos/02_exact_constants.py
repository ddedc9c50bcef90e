#!/usr/bin/env python3
"""The exact constants behind the counting formulas, field by field.

For q = 1 (mod 3) the counts are controlled by the unique (c, d) with
4q = c^2 + 27 d^2 (c = 1 mod 3, d >= 0, gcd(c, p) = 1 when p = 1 mod 3) and
a sign theta.  The sign is carried exactly by the Eisenstein integer
M = G^3/q (the normalized cubed Gauss sum): writing M = A + B*w,
c = 2A - B, d = |B|/3, theta = sgn(B).
"""

from diagcubic import cubic_data, make_field
from diagcubic.eisenstein import jacobi_sum_cubic, r_pair

print("constants across the supported fields:")
print(f"{'q':>4} {'p':>3} {'k':>2} {'c':>4} {'d':>2} {'r1':>4} {'r2':>3} {'theta':>5} {'parity rule':>11}  M = G^3/q")
for p, k in [(2, 2), (7, 1), (13, 1), (2, 4), (19, 1), (5, 2), (31, 1), (37, 1), (43, 1), (7, 2), (61, 1), (2, 6)]:
    data = cubic_data(make_field(p, k))
    r1 = "-" if data.r1 is None else data.r1
    r2 = "-" if data.r2 is None else data.r2
    print(f"{data.q:>4} {data.p:>3} {data.k:>2} {data.c:>4} {data.d:>2} {r1:>4} {r2:>3} "
          f"{data.theta:>5} {data.theta_paper:>11}  {data.gauss_cubed_over_q}")

print("""
note q = 49: the parity rule predicts theta = 0 for even extension degree,
but c = 13 and d = 1 are odd there, so theta = 0 would make the two-variable
counts half-integers.  The exact path gives theta = -1 (for the canonical
generator) and the brute-force oracle confirms it; see demo 03.
""")

print("== the Jacobi sum is the exact carrier ==")
j31 = jacobi_sum_cubic(31, 3)
print("J over F_31 with chi(3) = w:", j31, " norm =", j31.norm())
print("(r1, r2) from 2J = r1 + 3*sqrt(3)*r2*i:", r_pair(j31, 31))

print("\n== the constants depend on the generator only through class labels ==")
for gen in ((2, 1), (3, 1)):
    field = make_field(7, 2, generator=gen)
    data = cubic_data(field)
    print(f"F_49 with g = {field.g} (norm {field.g.norm()}): "
          f"c = {data.c}, d = {data.d}, theta = {data.theta}, M = {data.gauss_cubed_over_q}")
print("swapping g between the two non-cube cosets flips theta and relabels")
print("C1 <-> C2 in lockstep, so counts of concrete elements never change.")
