#!/usr/bin/env python3
"""Floating-point confirmations of the analytic identities.

psi(x) = exp(2*pi*i*Tr(x)/p) is the canonical additive character and chi the
cubic character.  These sums live on the unit circle; double precision is
ample at desk scale, and every identity is checked far below its signal size.
"""

import math

from diagcubic import cubic_data, make_field
from diagcubic.eisenstein import jacobi_sum_cubic
from diagcubic.oracle import (
    conjugate_gauss_sum_numeric,
    cubic_exp_sum_numeric,
    gauss_sum_numeric,
    jacobi_sum_numeric,
    orthogonality_check,
)

for p, k in ((7, 1), (31, 1), (7, 2), (2, 6)):
    field = make_field(p, k)
    data = cubic_data(field)
    q = field.q
    print(f"== F_{q} ==")
    g_sum = gauss_sum_numeric(field)
    g_conj = conjugate_gauss_sum_numeric(field)
    print(f"  |G| = {abs(g_sum):.12f}   sqrt(q) = {math.sqrt(q):.12f}")
    print(f"  G * G-bar = {g_sum * g_conj:.6f}   (should be q = {q})")
    print(f"  G^3 + G-bar^3 = {(g_sum ** 3 + g_conj ** 3).real:+.6f}{(g_sum ** 3 + g_conj ** 3).imag:+.2e}i"
          f"   c*q = {data.c * q}")
    print(f"  G^3/q = {g_sum ** 3 / q:.9f}")
    print(f"  exact M = {data.gauss_cubed_over_q} = {data.gauss_cubed_over_q.to_complex():.9f}")

    g = field.g
    roots = [cubic_exp_sum_numeric(field, g ** i) for i in (1, 2, 3)]
    print("  power sums S_g, S_g2, S_g3 (roots of x^3 - 3qx - qc):")
    for s in roots:
        print(f"    S = {s.real:+.9f}{s.imag:+.1e}i   residual {abs(s ** 3 - 3 * q * s - q * data.c):.2e}")
    print(f"  S_g + S_g2 + S_g3 = {abs(sum(roots)):.2e}   (Vieta: no x^2 term)")
    print(f"  orthogonality max error: {orthogonality_check(field).max_error:.2e}")
    if k == 1:
        exact = jacobi_sum_cubic(p, int(field.g)).to_complex()
        print(f"  numeric G^2/G-bar = {jacobi_sum_numeric(field):.9f} vs exact J = {exact:.9f}")
    print()
