"""Exact homotopy-transfer engine on simplicial cochains.

The package computes, entirely in rational arithmetic, the higher product
structure that polynomial differential forms induce on simplicial cochains
through the Whitney inclusion and Dupont's contraction, and verifies the
defining identities of that structure on complete finite bases.  On the
interval the higher products reproduce the Bernoulli numbers.
"""

from .rationals import bernoulli_number, binomial, factorial, parse_rational, rational_str
from .forms import (
    Form,
    differential,
    format_form,
    generator,
    monomial_basis,
    parse_form,
    wedge,
)
from .cochains import (
    Cochain,
    ComplexFormatError,
    OrderedComplex,
    coboundary,
    elementary_form,
    format_cochain,
    include_g,
    interval_basis_components,
    project_f,
    standard_simplex,
)
from .contraction import check_contraction, h_operator, homotopy_H, s_operator
from .tensorwords import shuffle
from .trees import (
    LEAF,
    PlanarTree,
    enumerate_trees,
    evaluate_tree_m,
    path_trees,
    tree_count,
    tree_to_text,
)
from .transfer import (
    ComplexContraction,
    IntervalTable,
    PPolynomials,
    SimplexContraction,
    bernoulli_polynomial,
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    interval_product_table,
    morphism_G,
    p_polynomial_sequence,
    transferred_m,
    transferred_m_trees,
)
from .complexes import (
    check_whitney_conditions,
    cochain_from_records,
    cochain_records,
    complex_from_data,
    cup,
    load_cochain,
    load_complex,
)
from .reporting import CheckRecord, Report

__version__ = "0.1.0"
