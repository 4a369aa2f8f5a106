"""From classical expressions to operators: parsing, simplicity, quantization.

An expression over named measurements quantizes only if it is *simple*: its
polynomial expansion never multiplies outcomes of non-commuting measurements.
Sums always pass; products need commuting (or disjoint-subsystem) operators.
"""

import numpy as np

from avcp import (
    BindingSet,
    HermitianOperator,
    NonSimpleExpression,
    classify_simple,
    expand_polynomial,
    parse,
    quantize,
    to_string,
)

sx = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
sy = HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=complex))
sz = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))

print(__doc__)

# --- expansion ------------------------------------------------------------
e = parse("(A + B)^2")
print(f"(A + B)^2 expands to: {to_string(expand_polynomial(e).to_expr())}")
print()

# --- simplicity against bindings -------------------------------------------
noncommuting = BindingSet({"A": sx, "B": sy})
for text in ("A + B", "A^2", "A*B", "(A + B)^2", "cos(A)"):
    verdict = classify_simple(parse(text), noncommuting)
    tag = "simple" if verdict.simple else f"NOT simple {verdict.offending_pairs}"
    print(f"  {text:12s} with [A,B] != 0  ->  {tag}")
print()

# operators on different subsystems always commute, so their product is fine
composite = BindingSet(
    {"A": (sx, 0), "B": (sz, 1)}, factor_dims=[2, 2]
)
print(f"  A*B across subsystems  ->  simple: {classify_simple(parse('A*B'), composite).simple}")
print()

# --- quantization -----------------------------------------------------------
print("quantize('A + B') =\n", quantize(parse("A + B"), noncommuting).matrix.real)
try:
    quantize(parse("A*B"), noncommuting)
except NonSimpleExpression as exc:
    print(f"quantize('A*B') raises: {exc}")
print()

print("Why symmetrizing non-commuting products is rejected: avcp demo hermitization --format text")
