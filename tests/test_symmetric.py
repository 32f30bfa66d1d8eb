import itertools
import math
import random

import pytest

from mutperm.identities import (consequence_span, consequences_per_lambda,
                                expansion_matrix, kernel_multiplicities)
from mutperm.mutation import enumerate_B
from mutperm.perm import x_multidegree
from mutperm.symmetric import (dimension, irreps, multiplicities, partitions,
                               standard_tableaux)
from mutperm.terms import TEMPLATES

DEGREES = range(1, 6)


def hook_length_dim(shape):
    """d_λ = n! / product of the hook lengths, an independent count."""
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = math.prod(shape[i] - j + conj[j] - i - 1
                      for i in range(len(shape)) for j in range(shape[i]))
    return math.factorial(sum(shape)) // hooks


def matrices(n):
    """Per irreducible, scale * rho(w) for every word, by word."""
    words = list(itertools.permutations(range(n)))
    return [(rep, dict(zip(words, rep.words))) for rep in irreps(n)]


def mul(a, b, d):
    return tuple(sum(a[i * d + t] * b[t * d + j] for t in range(d))
                 for i in range(d) for j in range(d))


def swap(n, k):
    return tuple(k + 1 if x == k else k if x == k + 1 else x
                 for x in range(n))


@pytest.mark.parametrize("n", DEGREES)
def test_dimensions_match_hook_lengths_and_fill_the_group_algebra(n):
    reps = irreps(n)
    assert [rep.shape for rep in reps] == partitions(n)
    for rep in reps:
        assert rep.dim == len(standard_tableaux(rep.shape))
        assert rep.dim == hook_length_dim(rep.shape)
    assert sum(rep.dim ** 2 for rep in reps) == math.factorial(n)


@pytest.mark.parametrize("n", DEGREES)
def test_coxeter_relations(n):
    for rep, rho in matrices(n):
        d, c = rep.dim, rep.scale
        one = rho[tuple(range(n))]
        assert one == tuple(c * int(i == j) for i in range(d)
                            for j in range(d))
        s = [rho[swap(n, k)] for k in range(n - 1)]
        for k, sk in enumerate(s):
            assert mul(sk, sk, d) == tuple(c * x for x in one)
            for j in range(k + 2, n - 1):
                assert mul(sk, s[j], d) == mul(s[j], sk, d)
            if k + 1 < n - 1:
                t = s[k + 1]
                assert mul(mul(sk, t, d), sk, d) == mul(mul(t, sk, d), t, d)


@pytest.mark.parametrize("n", DEGREES)
def test_homomorphism_on_seeded_pairs(n):
    rng = random.Random(n)
    words = list(itertools.permutations(range(n)))
    for rep, rho in matrices(n):
        for _ in range(30):
            a, b = rng.choice(words), rng.choice(words)
            ab = tuple(a[i] for i in b)
            assert mul(rho[a], rho[b], rep.dim) == tuple(
                rep.scale * x for x in rho[ab])


def test_regular_character_has_multiplicity_d():
    n = 4
    regular = [math.factorial(n)] + [0] * (math.factorial(n) - 1)
    assert multiplicities(n, regular) == [rep.dim for rep in irreps(n)]
    with pytest.raises(ValueError):
        multiplicities(n, [1] + [0] * (math.factorial(n) - 1))


def test_kernel_multiplicities_pinned():
    assert kernel_multiplicities(3) == (5, [1, 1, 2])
    assert kernel_multiplicities(4) == (107, [4, 11, 10, 15, 5])
    assert kernel_multiplicities(5) == (1659, [13, 51, 70, 84, 70, 56, 14])
    assert kernel_multiplicities(6) == (
        30209, [41, 204, 378, 420, 210, 672, 420, 210, 378, 210, 42])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_image_multiplicities_match_multilinear_B(n):
    """Independent oracle for the dims 7/13/21: the image of the
    expansion map is n^2 - n + 1 dimensional, the number of multilinear
    elements of B in x1..xn."""
    kdim, kernel = kernel_multiplicities(n)
    shapes = expansion_matrix(n).nrows // math.factorial(n)
    image = [shapes * rep.dim - m for rep, m in zip(irreps(n), kernel)]
    # (n) once and (n-1, 1) n times
    assert image[:2] == [1, n] and not any(image[2:])
    multilinear = dict.fromkeys((f"x{i}" for i in range(1, n + 1)), 1)
    count = sum(1 for b in enumerate_B(n, n)
                if x_multidegree(next(iter(b.value.terms))) == multilinear)
    total = sum(rep.dim * m for rep, m in zip(irreps(n), image))
    assert total == n * n - n + 1 == count == [7, 13, 21][n - 3]
    assert kdim == shapes * math.factorial(n) - total


@pytest.mark.parametrize("names,n,dim", [
    (("f",), 4, 20), (("wa",), 4, 72), (("f", "conj4b"), 4, 41),
    (("f", "conj4b"), 5, 1039)])
def test_per_lambda_totals_match_consequence_span(names, n, dim):
    known = [TEMPLATES[name] for name in names]
    _, caps = kernel_multiplicities(n)
    uncapped = [math.inf] * len(caps)
    assert dimension(n, consequences_per_lambda(known, n, caps)) == dim
    assert dimension(n, consequences_per_lambda(known, n, uncapped)) == dim
    assert len(consequence_span(known, n)) == dim


def test_caps_only_lower_the_counts():
    known = [TEMPLATES["f"], TEMPLATES["wa"]]
    full = consequences_per_lambda(known, 4, [math.inf] * 5)
    capped = consequences_per_lambda(known, 4, [1] * 5)
    assert [red.dim for red in capped] == [min(1, red.dim) for red in full]
