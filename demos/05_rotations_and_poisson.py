"""Angular momentum, rotations, and the bracket-commutator rule.

The ladder construction produces, for every dimension, a triple with
[Lx, Ly] = i*alpha*Lz (and cyclic), a scalar squared sum, and rotation
generators R_a = L_a/alpha.  For polynomial observables on a canonical pair,
i*alpha*Op({F, H}) = [Op(F), Op(H)] whenever F, H, and {F, H} are all simple.
"""

import numpy as np

from avcp import (
    build_fock,
    check_dirac_rule,
    check_rotation_identity,
    commutant_scalar_residual,
    make_rng,
    parse_canonical,
    poisson_bracket,
    spin_operators,
)
from avcp.errors import NonSimpleInput
from avcp.expressions import to_string
from avcp.operators import commutator, random_state

print(__doc__)

# --- spin triples at a few dimensions ----------------------------------------
for n in (2, 3, 5):
    t = spin_operators(n)
    resid = np.abs(commutator(t.lx, t.ly) - 1j * t.lz.matrix).max()
    null_dim, comm_resid = commutant_scalar_residual(t)
    print(f"n={n}: [Lx,Ly]-i Lz residual {resid:.1e};  commutant dim {null_dim} (scalar to {comm_resid:.1e})")
print()

# --- composed rotations disagree by a z-rotation of the commutator angle ------
t = spin_operators(3)
v = random_state(3, make_rng(11))
for eps in (0.1, 0.05, 0.025):
    print(f"  rotation identity residual at eps={eps:<6}: {check_rotation_identity(t, v, eps):.3e}")
print("  (cubic in eps: each halving divides it by about 8)")
print()

# --- the bracket rule where it applies ----------------------------------------
rep = build_fock(64)
f = parse_canonical("x")
h = parse_canonical("p^2 + x^2")
r = check_dirac_rule(f, h, rep)
print(f"f = x, h = p^2 + x^2:  {{f,h}} = {to_string(r.bracket.to_expr())}")
print(f"  residual on the safe {r.safe_dim}x{r.safe_dim} block: {r.residual:.2e} (tolerance {r.tolerance:.2e})")
print()

# --- and where it cannot -------------------------------------------------------
f3, h3 = parse_canonical("x^3"), parse_canonical("p^3")
print(f"f = x^3, h = p^3:  {{f,h}} = {to_string(poisson_bracket(f3, h3).to_expr())}")
try:
    check_dirac_rule(f3, h3, rep)
except NonSimpleInput as exc:
    print(f"  rejected: {exc}")
print("Why the rule needs that proviso: avcp demo poisson-counterexample --format text")
