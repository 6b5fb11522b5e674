"""Properties of the exact elimination kernel on small rational matrices.

Most properties check a kernel result against a computation that does not
eliminate: determinants by the Leibniz permutation expansion, ranks as the
size of the largest nonzero minor, products by the defining sums.  The
fraction-free step and the integer ``rref`` and ``det`` are also checked
against the Fraction Gauss-Jordan tableau of ``tests.fraction_tableau``.
"""

import itertools
from fractions import Fraction
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from sympovm._exactlin import det, inverse, nullspace, pivot, primitive, rref, solve
from tests import fraction_tableau

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def matrices(rows=st.integers(1, 4), cols=st.integers(1, 4)):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(st.lists(rationals, min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0]))


square = st.integers(1, 4).flatmap(lambda n: matrices(st.just(n), st.just(n)))
wide = st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6), min_size=1, max_size=5)


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((a[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


def minor_rank(a):
    """Size of the largest square submatrix with a nonzero Leibniz determinant."""
    if not a or not a[0]:
        return 0
    for k in range(min(len(a), len(a[0])), 0, -1):
        for rows in itertools.combinations(range(len(a)), k):
            for cols in itertools.combinations(range(len(a[0])), k):
                if leibniz([[a[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@SETTINGS
@given(square)
def test_det_equals_leibniz_expansion(a):
    assert det(a) == leibniz(a)


@SETTINGS
@given(square)
def test_inverse_times_matrix_is_identity(a):
    inv = inverse(a)
    if leibniz(a) == 0:
        assert inv is None
    else:
        n = len(a)
        assert product(inv, a) == [[Fraction(int(i == j)) for j in range(n)]
                                   for i in range(n)]


@SETTINGS
@given(matrices(), st.data())
def test_solve_is_none_exactly_when_inconsistent(a, data):
    b = data.draw(st.lists(rationals, min_size=len(a), max_size=len(a)))
    x = solve(a, b)
    augmented = [row + [bb] for row, bb in zip(a, b)]
    if minor_rank(augmented) > minor_rank(a):
        assert x is None
    else:
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


@SETTINGS
@given(matrices())
def test_nullspace_is_an_annihilated_basis_of_the_kernel(a):
    n = len(a[0])
    basis = nullspace(a, n)
    assert len(basis) == n - minor_rank(a)
    assert minor_rank(basis) == len(basis)
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in a)


@SETTINGS
@given(matrices())
def test_rref_pivots_are_the_first_independent_columns(a):
    cols = [list(c) for c in zip(*a)]
    greedy = []
    for j, col in enumerate(cols):
        chosen = [cols[g] for g in greedy] + [col]
        if minor_rank(chosen) == len(chosen):
            greedy.append(j)
    assert rref(a)[1] == greedy


@SETTINGS
@given(wide, st.data())
def test_integer_pivot_keeps_m_equal_to_d_times_the_fraction_tableau(a, data):
    # any sequence of pivots on nonzero entries, negative ones included
    m, d = [list(row) for row in a], 1
    t = [[Fraction(x) for x in row] for row in a]
    for _ in range(len(a)):
        nonzero = [(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not nonzero:
            break
        r, c = data.draw(st.sampled_from(nonzero))
        d = pivot(m, d, r, c)
        fraction_tableau.pivot(t, r, c)
        assert d > 0
        assert all(isinstance(x, int) for row in m for x in row)
        assert [[Fraction(x, d) for x in row] for row in m] == t


@SETTINGS
@given(matrices(cols=st.integers(1, 5)), st.data())
def test_rref_equals_the_fraction_tableau(a, data):
    cols = data.draw(st.one_of(st.none(), st.integers(0, len(a[0]))))
    assert rref(a, cols) == fraction_tableau.rref(a, cols)


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: matrices(st.just(n), st.just(n))))
def test_det_equals_the_fraction_tableau(a):
    assert det(a) == fraction_tableau.det(a)


@SETTINGS
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=6))
def test_primitive_keeps_direction_and_leaves_gcd_one(ints):
    p = primitive(ints)
    if not any(ints):
        assert list(p) == ints
        return
    assert gcd(*p) == 1
    lead = next(i for i, v in enumerate(ints) if v)
    scale = Fraction(ints[lead], p[lead])
    assert scale > 0 and scale.denominator == 1
    assert [scale * v for v in p] == ints
