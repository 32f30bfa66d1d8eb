"""The spanning set B of the mutation subalgebra.

Everything reachable from x1..xn using only the bracket lives inside the
free perm algebra; B = X u B1 u B2 u B3 is an explicit basis of that
subalgebra.  This script enumerates B, confirms each element really is a
mutation element, and verifies independence/spanning/closure plus the
multilinear dimension n + (n-1)^2.
"""

from mutperm import enumerate_B, is_mutation_element, verify_basis_B
from mutperm.perm import Elt

print("B over 3 variables up to degree 3:")
for b in enumerate_B(3, 3):
    print(f"  {b.family}{b.data}: {b.value}")

print("\nEvery one of them is a mutation element:")
print("  ", all(is_mutation_element(b.value) for b in enumerate_B(3, 3)))

print("\nSomething that is NOT a mutation element (bare parameter mix):")
bad = Elt.gen("p") * Elt.gen("x1") * Elt.gen("x2")
print("  p x1 x2 ->", is_mutation_element(bad))

print("\nFull verification for n = 3 and n = 4:")
for n in (3, 4):
    rep = verify_basis_B(n, n)
    print(f"  n={n}: independent={rep['independent']} "
          f"spans={rep['spans']} closed={rep['closed_under_bracket']} "
          f"multilinear_dim={rep['multilinear_dim']} "
          f"(= {n} + {(n - 1) ** 2})")
