#!/usr/bin/env python3
"""Tour of field construction, arithmetic, and the cubic-class structure.

Every field is built canonically: smallest monic irreducible modulus,
smallest generator g of the multiplicative group (coefficient vectors
ordered as base-p integers).  The cubic class of a nonzero z is the residue
of its discrete log base g modulo 3, computed without a discrete log.
"""

from diagcubic import CubicClass, make_field
from diagcubic.eisenstein import EI_ONE, OMEGA, OMEGA2
from diagcubic.oracle import cube_histogram

print("== prime field F_31 ==")
f31 = make_field(31)
print("descriptor:", f31.to_string())
print("generator g =", f31.g, " (3 generates; 2 only has order 5)")

print("\n== extension field F_49 = F_7[t]/(t^2+1) ==")
f49 = make_field(7, 2)
print("descriptor:", f49.to_string())
g = f49.g
print("g =", g, " order check: g^48 =", g ** 48, " g^24 =", g ** 24, " g^16 =", g ** 16)
print("norm(g) =", g.norm(), " trace(g) =", g.trace())

print("\narithmetic in F_49 (elements are little-endian coefficient vectors):")
a, b = f49.element([3, 2]), f49.element([1, 5])
print(f"({a}) * ({b}) =", a * b)
print(f"({a}) * ({b})^-1 =", a * b.inverse())
print(f"({a}) ** 10**30 =", a ** 10 ** 30, " (exponents reduce mod q-1)")

print("\n== cubic classes over F_7 (g = 3) ==")
f7 = make_field(7)
chi_on = {CubicClass.C0: EI_ONE, CubicClass.C1: OMEGA, CubicClass.C2: OMEGA2}  # the cubic character, chi(g) = w
for z in f7.nonzero_elements():
    cls = f7.cube_class(z)
    chi = chi_on[cls]
    print(f"  z = {z}: class {cls}, character value {chi}")
print("each nonzero class has (q-1)/3 =", (f7.q - 1) // 3, "elements")

print("\n== the cube histogram is the oracle's convolution kernel ==")
for field in (f7, make_field(2, 2), make_field(5)):
    print(f"  F_{field.q}: counts by element code = {cube_histogram(field)}")
print("for q = 2 (mod 3) the cube map is a bijection: all counts are 1,")
print("so x_1^3 + ... + x_s^3 = z always has exactly q^(s-1) solutions.")

print("\nclass representatives in F_49:", {
    cls.value: str(f49.representative(cls)) for cls in (CubicClass.C0, CubicClass.C1, CubicClass.C2)
})
