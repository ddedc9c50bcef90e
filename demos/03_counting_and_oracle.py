#!/usr/bin/env python3
"""Closed-form counts next to the brute-force oracle, term by term.

The closed forms run on a three-term integer recurrence
u_s = 3q u_{s-2} + qc u_{s-3}; the oracle convolves the cube histogram over
the additive group, O(s*q^2) exact integer work.  They must agree bit for bit.
"""

from diagcubic import (
    CubicClass,
    count_diagonal,
    cubic_data,
    diagonal_series,
    make_field,
)
from diagcubic.oracle import diagonal_count_vector

TARGETS = (CubicClass.ZERO, CubicClass.C0, CubicClass.C1, CubicClass.C2)

for p, k in ((7, 1), (7, 2)):
    field = make_field(p, k)
    data = cubic_data(field)
    q = field.q
    print(f"== F_{q}: closed form vs oracle, s = 1..4 ==")
    vectors = {s: diagonal_count_vector(field, s) for s in (1, 2, 3, 4)}
    for target in TARGETS:
        rep = field.representative(target)
        closed = [count_diagonal(data, s, target) for s in (1, 2, 3, 4)]
        brute = [vectors[s][int(rep)] for s in (1, 2, 3, 4)]
        flag = "ok" if closed == brute else "MISMATCH"
        print(f"  target {target.value:>4} (z = {rep}): closed {closed} brute {brute}  {flag}")
    print()

print("== the generating-function window for F_13 ==")
f13 = make_field(13)
d13 = cubic_data(f13)
for target in TARGETS:
    window = diagonal_series(d13, target, 8)
    print(f"  N_s({target.value:>4}), s=1..8: {list(window.coefficients)}")
total = [
    sum(diagonal_count_vector(f13, s))
    for s in (1, 2, 3)
]
print("oracle totals (must be q^s):", total)

print()
print("== the q = 49 adjudication ==")
f49 = make_field(7, 2)
d49 = cubic_data(f49)
vec = diagonal_count_vector(f49, 2)
for cls in (CubicClass.C1, CubicClass.C2):
    rep = f49.representative(cls)
    print(f"  N_2 over F_49, class {cls.value} (z = {rep}): "
          f"closed {count_diagonal(d49, 2, cls)}, brute {vec[int(rep)]}")
print("the parity rule's theta = 0 would predict N_2 = 49 - 17/2: not an integer.")
print("the exact theta =", d49.theta, "reproduces the oracle exactly on both classes.")
