"""Finite-dimensional evidence: separating identities and Lie-admissibility.

A small structure-constant table can separate identities that agree on
low-degree data.  Random mutations of a criterion-satisfying algebra
illustrate criterion 11, which the lie-admissibility check of
``mutperm verify-paper`` proves for every algebra; an algebra that fails
the criterion has a mutation that breaks Jacobi.
"""

import random
from fractions import Fraction

from mutperm import (FiniteAlgebra, TEMPLATES, jacobi_test,
                     lie_admissible_criterion, mutation_algebra, satisfies)
from mutperm.verify import _prop35


def random_vector(rng, dim):
    return [Fraction(rng.randint(-2, 2)) for _ in range(dim)]


a = _prop35()
print(f"The bundled 3-dimensional algebra ({', '.join(a.names)}):")
print("  e1 e2 = e1, e2 e1 = -e1, e3 e1 = e2, all other products zero.")

ok_f, _ = satisfies(a, TEMPLATES["f"])
ok_wa, wit = satisfies(a, TEMPLATES["wa"])
print(f"\nIt satisfies the alternating identity f: {ok_f}")
print(f"It satisfies weak associativity wa:      {ok_wa}")
tup, val = wit
print(f"  witness: basis tuple {tup} evaluates to {val}")
print("So f alone does not imply wa: the two degree-3 generators are")
print("genuinely independent.")

print("\nA bicommutative algebra (e1 e1 = e2, all else zero) satisfies the")
print("Lie-admissibility criterion, so all of its mutations are")
print("Lie-admissible:")
b = FiniteAlgebra(2, ["e1", "e2"])
b.table[0][0] = b.basis(1)
ok, _ = lie_admissible_criterion(b)
print("  criterion holds:", ok)

rng = random.Random(7)
results = []
for _ in range(5):
    p = random_vector(rng, b.dim)
    q = random_vector(rng, b.dim)
    m = mutation_algebra(b, p, q)
    results.append(jacobi_test(m)[0])
print("  5 random mutations, Jacobi for the commutator:", results)

print("\nA random search for a 3-dimensional algebra that FAILS the")
print("criterion, together with a mutation of it that breaks Jacobi:")
rng = random.Random(4)
while True:
    c = FiniteAlgebra(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c.table[i][j][k] = Fraction(rng.randint(-1, 1))
    ok, _ = lie_admissible_criterion(c)
    if not ok:
        break
print("  criterion holds:", ok)
for _ in range(200):
    p = random_vector(rng, 3)
    q = random_vector(rng, 3)
    holds, witness = jacobi_test(mutation_algebra(c, p, q))
    if not holds:
        print(f"  mutation at p={[int(v) for v in p]}, "
              f"q={[int(v) for v in q]} fails Jacobi at basis "
              f"triple {witness}")
        break
else:
    print("  (no failing mutation in this sample)")
