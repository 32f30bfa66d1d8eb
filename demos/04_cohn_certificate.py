"""A certified exceptional homomorphic image.

Not every bracket algebra is "special" (embeddable in a mutation of a
perm algebra): quotienting the free mutation algebra by an ideal can
produce elements of the perm-side ideal component that no rational
combination of the mutation-side ideal words reaches.  cohn_check builds
the linear system lambda_1 w_1 + ... = target over the perm monomials
and certifies inconsistency with an explicit dual vector.
"""

from mutperm import cohn_check, paper_instance, render

req, target = paper_instance()

print("Generators of the ideal:")
for g in req.generators:
    print("  ", render(g))
print("Target:", render(target))

report = cohn_check(req, target)
print("\nIn the perm-side component:   ", report["in_perm_ideal"])
print("In the mutation-side component:", report["in_mutation_ideal"])

print("\nMutation-side words (the unknowns' columns):")
for name, w in zip(report["unknowns"], report["words"]):
    print(f"  {name}: {w}")

sysm = report["system"]
print(f"\nThe linear system has {len(report['monomials'])} equations "
      f"(one per perm monomial) in {len(report['unknowns'])} unknowns,")
print("and it is inconsistent; a certificate (a combination of rows that")
print("sums to zero while the right sides do not) is:")
cert = report["certificate"]
print("   {" + ", ".join(f"{row}: {cert[row]}" for row in sorted(cert)) + "}")

print("\nVerdict:", report["verdict"])
