#!/usr/bin/env python3
"""Polynomial forms on simplices and the explicit contraction onto cochains.

Forms live in barycentric coordinates with the index-0 generators eliminated;
integration over faces projects onto cochains, elementary forms include
cochains back, and the dilation homotopies assemble into the operator s whose
negative is the transfer homotopy.  f is the one integral: a form's value at
a vertex is its f at that 0-face, and its integral over the simplex is its f
at the top face, so the evaluation in the Poincare identity 1 - eval = dh + hd
is read off f.
"""

from simplicial_transfer import (
    Form,
    check_contraction,
    differential,
    elementary_form,
    format_form,
    generator,
    h_operator,
    include_g,
    parse_form,
    project_f,
    s_operator,
    wedge,
)

print("Generators are stored in normal form; index 0 is eliminated:")
print("  t_0 on the interval:", format_form(generator(1, "t", 0)))
print("  dt_0 on the triangle:", format_form(generator(2, "dt", 0)))
print()

print("Wedge and differential behave as expected:")
t = generator(1, "t", 1)
dt = generator(1, "dt", 1)
print("  d(t^2) =", format_form(differential(wedge(t, t))))
print("  dt ^ dt =", format_form(wedge(dt, dt)))
print()

print("Elementary forms of faces of the triangle:")
for face in ((0,), (0, 1), (0, 1, 2)):
    print(f"  face {face}: {format_form(elementary_form(face, 2))}")
print()

print("Integration f and inclusion g are a retraction pair:")
c = project_f(parse_form("t1 dt1", 1))
print("  f(t dt) =", c)
print("  f(g(x)) = x on the basis:", all(
    project_f(include_g(x)) == x
    for x in [project_f(Form.one(1)), c]
))
print()

print("The dilation homotopy toward a vertex inverts d on exact forms:")
print("  h^0(dt) =", format_form(h_operator(dt, 0)))
print("  h^1(dt) =", format_form(h_operator(dt, 1)))
print("  eval at 1 of t:", project_f(t).terms[(1,)])
print()

print("Dupont's operator s on the interval has a closed form:")
for k in range(4):
    arg = Form.monomial(1, (k,), (1,))
    print(f"  s(t^{k} dt) = {format_form(s_operator(arg))}")
print()

print("The identity battery on the triangle, polynomial degree up to 4:")
print(check_contraction(2, 4).to_text())
