#!/usr/bin/env python3
"""The analytic identities, checked exactly in Z[w][zeta_p].

psi(x) = zeta_p^Tr(x) is the canonical additive character and chi the cubic
character with chi(g) = w.  The Gauss sums G = G(chi, psi) and
G-bar = G(conj(chi), psi), the Gaussian periods S_h = sum of psi(h*y^3) and
the orthogonality sums are exact elements of Z[w][zeta_p], kept as p
coordinates in Z[w]; an element is zero exactly when its coordinates are all
equal, so each identity below is an integer equality, with no tolerance.
"""

from diagcubic import cubic_data, make_field
from diagcubic.eisenstein import jacobi_sum_cubic
from diagcubic.oracle import cubic_exp_sum, gauss_sum, orthogonality_sum


def show(label: str, holds: bool) -> None:
    print(f"  {label:<40} {'holds' if holds else 'FAILS'}")


for p, k in ((7, 1), (31, 1), (7, 2), (2, 6)):
    field = make_field(p, k)
    data = cubic_data(field)
    q = field.q
    print(f"== F_{q}: c = {data.c}, M = G^3/q = {data.gauss_cubed_over_q} ==")
    g_sum = gauss_sum(field)
    g_conj = gauss_sum(field, 2)
    if p <= 7:
        print(f"  G as (a_j + b_j*w) at zeta^j, j = 0 .. {p - 1}:")
        print("    " + ", ".join(f"{a}{b:+}*w" for a, b in zip(g_sum.a, g_sum.b)))
    show("G * conj(G) = q", g_sum * g_sum.conjugate() == q)
    show("G * G-bar = q", g_sum * g_conj == q)
    g_cubed = g_sum * g_sum * g_sum
    show(f"G^3 + G-bar^3 = c*q = {data.c * q}", g_cubed + g_conj * g_conj * g_conj == data.c * q)
    show(f"G^3 = q*M = {q}*({data.gauss_cubed_over_q})", g_cubed == data.gauss_cubed_over_q * q)

    g = field.g
    periods = [cubic_exp_sum(field, g ** i) for i in (1, 2, 3)]
    if p <= 7:
        print("  S_g, S_g2, S_g3 as integer coordinates at zeta^j:")
        for s in periods:
            print("    " + ", ".join(map(str, s.a)))
    show("S^3 = 3q*S + q*c for all three", all(s * s * s == 3 * q * s + q * data.c for s in periods))
    show("S_g + S_g2 + S_g3 = 0 (no x^2 term)", periods[0] + periods[1] + periods[2] == 0)
    show("sum over a of psi(a*x) = q*[x = 0]",
         all(orthogonality_sum(field, x) == (q if x.is_zero() else 0) for x in field.elements()))
    if k == 1:
        j_sum = jacobi_sum_cubic(p, int(field.g))
        show(f"G^2 = J * G-bar with J = {j_sum}", g_sum * g_sum == g_conj * j_sum)
    print()
