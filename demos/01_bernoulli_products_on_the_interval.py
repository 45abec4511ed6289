#!/usr/bin/env python3
"""The higher products on the interval reproduce the Bernoulli numbers.

The normalized cochains on the interval are spanned by 1, t, dt.  Transferring
the wedge product of polynomial forms onto them yields a binary product plus
an infinite tower of higher corrections; this script evaluates the tower
exactly and compares it with B_n/n!.
"""

from simplicial_transfer import (
    Cochain,
    SimplexContraction,
    bernoulli_number,
    factorial,
    format_form,
    interval_basis_components,
    interval_product_table,
    p_polynomial_sequence,
    rational_str,
    standard_simplex,
    transferred_m,
)

bundle = SimplexContraction(1)
t = Cochain.basis_element(standard_simplex(1), (1,))      # the cochain "t", shifted degree -1
dt = Cochain.basis_element(standard_simplex(1), (0, 1))  # the cochain "dt", shifted degree 0

print("The binary product is the classical one on the nose:")
print("  m_2(t, t) =", interval_basis_components(transferred_m(bundle, (t, t))))
print()

print("The first higher correction already carries a Bernoulli number:")
one, tc, dtc = interval_basis_components(transferred_m(bundle, (t, dt, dt)))
print("  m_3(t, dt, dt) =", rational_str(dtc), "dt   (B_2/2! =", rational_str(bernoulli_number(2) / 2), ")")
print()

print("The whole family m_{n+1}(t, dt, ..., dt):")
for n in range(1, 7):
    word = (t,) + (dt,) * n
    _, _, coeff = interval_basis_components(transferred_m(bundle, word))
    print(
        f"  n={n}:  coefficient {rational_str(coeff):>8}   "
        f"(-1)^n B_n/n! = {rational_str(bernoulli_number(n) / factorial(n) * (1 if n % 2 == 0 else -1)):>8}"
    )
print()

print("Permuting where t sits rescales by signed binomial coefficients:")
for i in range(3):
    word = (dt,) * i + (t,) + (dt,) * (2 - i)
    _, _, coeff = interval_basis_components(transferred_m(bundle, word))
    print(f"  m_3(dt^{i}, t, dt^{2 - i}) = {rational_str(coeff)} dt")
print()

print("Behind the scenes sits a polynomial recursion p_n = s(p_{n-1} dt):")
seq = p_polynomial_sequence(6)
for n, poly in enumerate(seq.polys, start=1):  # a 0-form in t = t1
    print(f"  p_{n} = {format_form(poly)}")
print("  closed form (B_n(t) - B_n)/n! matches:", seq.matches_closed_form())
print()

print("The full table with its derived checks:")
print(interval_product_table(5).to_text())
