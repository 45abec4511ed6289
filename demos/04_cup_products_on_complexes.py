#!/usr/bin/env python3
"""Cup-like products on finite simplicial complexes.

On any finite ordered complex, including cochains as elementary forms,
multiplying, and integrating back defines a graded commutative product with
the classical support, derivation, and unit properties; it fails to be
associative, and the transferred ternary operation repairs that failure up to
coboundary.
"""

from simplicial_transfer import (
    Cochain,
    ComplexContraction,
    OrderedComplex,
    check_whitney_conditions,
    coboundary,
    cup,
    load_complex,
    transferred_m,
)

triangle = OrderedComplex([0, 1, 2], [[0, 1, 2]])
boundary = load_complex('{"vertices": [0, 1, 2], "simplices": [[0, 1], [0, 2], [1, 2]]}')
path = OrderedComplex([0, 1, 2], [[0, 1], [1, 2]])

print("Closure of the solid triangle:", [list(s) for s in triangle.simplices])
print()

x0 = Cochain.basis_element(triangle, (0,))
e01 = Cochain.basis_element(triangle, (0, 1))

print("Products of indicator cochains:")
print("  x0 cup x0 =", cup(x0, x0))
print("  x0 cup e01 =", cup(x0, e01))
print("  far-apart vertices on a path multiply to zero:",
      not cup(Cochain.basis_element(path, (0,)),
              Cochain.basis_element(path, (2,))))
print()

print("Associativity fails:")
lhs = cup(cup(x0, x0), e01)
rhs = cup(x0, cup(x0, e01))
print("  (x0 cup x0) cup e01 =", lhs)
print("  x0 cup (x0 cup e01) =", rhs)
print()

print("The transferred ternary operation repairs the failure.  On basis")
print("cochains it lives on the join of their supports, with its coefficient")
print("read from the operation on a single simplex; it vanishes on the witness")
print("itself, and its values with a coboundary inserted carry the associator:")
bundle = ComplexContraction(triangle)
dx0 = coboundary(x0)
m3 = transferred_m(bundle, (x0, x0, e01))
m3_left = transferred_m(bundle, (dx0, x0, e01))
m3_middle = transferred_m(bundle, (x0, dx0, e01))
print("  m_3(x0, x0, e01) =", m3)
print("  m_3(dx0, x0, e01) =", m3_left)
print("  m_3(x0, dx0, e01) =", m3_middle)
print("  m_3(x0, dx0, e01) - m_3(dx0, x0, e01) is the associator:",
      m3_middle - m3_left == lhs - rhs)
print("The structure relation at arity three holds on the witness:")
print(" ", check_whitney_conditions(triangle).checks[-1].to_text())
print()

print("The coboundary is the arity-one operation:")
print("  m_1(x0) =", transferred_m(bundle, (x0,)))
print("  delta(x0) =", coboundary(x0))
print()

print("The classical product conditions, checked on the boundary triangle:")
print(check_whitney_conditions(boundary).to_text())
