"""Exact operator algebra tests."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sympovm.operators import (
    CR0,
    CR1,
    BipartiteOperator,
    CRat,
    is_psd,
    ketbra,
    kraus_from_separable_form,
    mat,
    mat_eye,
    mat_mul,
    mat_trace,
    mat_vec,
    mat_zeros,
    maximally_entangled_projector,
    partial_transpose,
    swap_operator,
    tensor,
)
from sympovm.symmetry import commutant_basis, kind


def random_hermitian_grid(rng, n, den=7):
    grid = [[CR0] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = CRat(Fraction(rng.randint(-den, den), den))
        for j in range(i + 1, n):
            z = CRat(Fraction(rng.randint(-den, den), den),
                     Fraction(rng.randint(-den, den), den))
            grid[i][j] = z
            grid[j][i] = z.conjugate()
    return tuple(tuple(r) for r in grid)


def charpoly_psd(grid):
    """Independent PSD oracle: coefficient signs of the characteristic polynomial.

    Faddeev-LeVerrier gives det(lam*1 - M) = lam^n + c1 lam^(n-1) + ... + cn
    exactly; a Hermitian matrix is PSD iff (-1)^k ck >= 0 for all k.
    """
    n = len(grid)
    m = mat(grid)
    am = m
    coeffs = []
    for k in range(1, n + 1):
        ck = mat_trace(am) / CRat(-k)
        coeffs.append(ck)
        if k < n:
            shifted = tuple(tuple(am[i][j] + (ck if i == j else CR0)
                                  for j in range(n)) for i in range(n))
            am = mat_mul(m, shifted)
    for k, c in enumerate(coeffs, start=1):
        assert not c.im
        if (-1) ** k * c.re < 0:
            return False
    return True


def test_tensor_identity():
    i2 = mat_eye(2)
    assert tensor(i2, i2) == BipartiteOperator.identity(2)


def test_tensor_basis_projector():
    op = tensor(ketbra(0, 0, 2), ketbra(1, 1, 2))
    # single 1 at composite index (0,1),(0,1) = row/col 1
    for r in range(4):
        for c in range(4):
            assert op.entries[r][c] == (1 if r == c == 1 else 0)


def test_tensor_sigma_x_flips_00_to_11():
    sx = mat([[0, 1], [1, 0]])
    op = tensor(sx, sx)
    vec = [CR1, CR0, CR0, CR0]  # |00>
    out = mat_vec(op.entries, vec)
    assert list(out) == [CR0, CR0, CR0, CR1]  # |11>


def test_tensor_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor(mat_eye(2), mat_eye(3))


def test_tensor_multiplicative_on_traces():
    rng = random.Random(5)
    for _ in range(20):
        a = random_hermitian_grid(rng, 3)
        b = random_hermitian_grid(rng, 3)
        assert tensor(a, b).trace() == mat_trace(a) * mat_trace(b)


def test_partial_transpose_involution():
    rng = random.Random(1)
    for _ in range(25):
        d = rng.choice((2, 3))
        m = BipartiteOperator(d, random_hermitian_grid(rng, d * d))
        assert partial_transpose(partial_transpose(m)) == m


def test_partial_transpose_of_swap():
    f = swap_operator(2)
    assert partial_transpose(f) == maximally_entangled_projector(2).scale(2)


def test_partial_transpose_of_bell_projector():
    # PT of the psi+ projector is half of (psi+ + psi- + phi+ - phi-)
    basis = commutant_basis(kind("bell", 2))
    psi_p, psi_m, phi_p, phi_m = basis.projectors
    got = partial_transpose(psi_p)
    expect = (psi_p + psi_m + phi_p - phi_m).scale(Fraction(1, 2))
    assert got == expect


def test_is_psd_trivial_cases():
    assert is_psd(BipartiteOperator.identity(2))
    neg = BipartiteOperator(2, [[CRat(x if i == j else 0) for j in range(4)]
                                for i, x in enumerate([1, Fraction(-1, 3), 0, 0])])
    assert not is_psd(neg)
    assert is_psd(maximally_entangled_projector(3))


def test_is_psd_rejects_non_hermitian():
    m = BipartiteOperator(2, [[CRat(0)] * 4 for _ in range(4)])
    grid = [list(r) for r in m.entries]
    grid[0][1] = CRat(1)
    with pytest.raises(ValueError):
        is_psd(BipartiteOperator(2, grid))


def test_is_psd_agrees_with_charpoly_oracle():
    rng = random.Random(7)
    for trial in range(200):
        g = random_hermitian_grid(rng, 4, den=5)
        if trial % 2:
            g = mat_mul(tuple(tuple(x.conjugate() for x in col)
                              for col in zip(*g)), g)  # g†g is PSD
        m = BipartiteOperator(2, g)
        assert is_psd(m) == charpoly_psd(g)


def test_entangled_projector_and_swap_identities():
    assert maximally_entangled_projector(2).trace() == 1
    assert swap_operator(2).trace() == 2
    f3 = swap_operator(3)
    assert f3 @ f3 == BipartiteOperator.identity(3)
    # F fixes the (unnormalised) maximally entangled vector, d = 4
    f4 = swap_operator(4)
    vec = [CR1 if i % 5 == 0 else CR0 for i in range(16)]  # sum_i |ii>
    assert list(mat_vec(f4.entries, vec)) == vec
    with pytest.raises(ValueError):
        maximally_entangled_projector(1)


def reconstruct(pairs, d):
    total = BipartiteOperator.zeros(d)
    for p in pairs:
        total = total + p.element()
    return total


def test_kraus_projector_term():
    pairs = kraus_from_separable_form([(1, ketbra(0, 0, 2), mat_eye(2))])
    assert len(pairs) == 1
    assert pairs[0].a_op.mat == ketbra(0, 0, 2)
    assert pairs[0].b_op.mat == mat_eye(2)
    assert reconstruct(pairs, 2) == tensor(ketbra(0, 0, 2), mat_eye(2))


def test_kraus_diagonal_square_root():
    a = mat([[4, 0], [0, 1]])
    pairs = kraus_from_separable_form([(1, a, mat_eye(2))])
    assert len(pairs) == 1
    assert pairs[0].a_op.radicands == (1, 1)
    assert pairs[0].a_op.mat == mat([[2, 0], [0, 1]])


def test_kraus_isotropic_element():
    # x = 1, y = 0 at d = 2: terms (1, |i><i|, |i><i|)
    terms = [(1, ketbra(i, i, 2), ketbra(i, i, 2)) for i in range(2)]
    pairs = kraus_from_separable_form(terms)
    assert len(pairs) == 2
    want = tensor(ketbra(0, 0, 2), ketbra(0, 0, 2)) + \
        tensor(ketbra(1, 1, 2), ketbra(1, 1, 2))
    assert reconstruct(pairs, 2) == want


def test_kraus_radicand_keeps_reconstruction_exact():
    # weight 1/3 is not a rational square; the radicand carries it exactly
    third = Fraction(1, 3)
    terms = [(third, ketbra(0, 0, 2), mat_eye(2))]
    pairs = kraus_from_separable_form(terms)
    got = reconstruct(pairs, 2)
    assert got == tensor(ketbra(0, 0, 2), mat_eye(2)).scale(third)


def test_kraus_rejects_non_psd():
    bad = mat([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        kraus_from_separable_form([(1, bad, mat_eye(2))])


def random_psd_factor(rng, n, rank, den=4):
    """A sum of rank Gaussian-rational rank-one terms v v†."""
    grid = mat_zeros(n)
    for _ in range(rank):
        v = [CRat(Fraction(rng.randint(-3, 3), den), Fraction(rng.randint(-3, 3), den))
             for _ in range(n)]
        grid = tuple(tuple(g + x * y.conjugate() for g, y in zip(row, v))
                     for row, x in zip(grid, v))
    return grid


def test_kraus_one_exact_pair_per_term():
    # complex, rank-deficient and zero factors and zero weights all root
    # exactly through the LDL* pieces, one pair per term
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = [(rng.choice([0, Fraction(rng.randint(1, 9), rng.randint(1, 9))]),
                  random_psd_factor(rng, n, rng.randint(0, n)),
                  random_psd_factor(rng, n, rng.randint(0, n)))
                 for _ in range(rng.randint(1, 3))]
        pairs = kraus_from_separable_form(terms)
        assert len(pairs) == len(terms)
        for p, (w, a, b) in zip(pairs, terms):
            assert len(p.a_op.mat) == len(p.b_op.mat) == n
            assert p.element() == tensor(a, b).scale(w)


@pytest.mark.parametrize("w,a,b", [
    (1, mat([[1, 1], [0, 1]]), mat_eye(2)),                     # non-Hermitian
    (1, mat_eye(2), mat([[0, 1], [1, 0]])),                     # not PSD, zero diagonal
    (1, mat([[1, 2], [2, 1]]), mat_eye(2)),                     # not PSD
    (Fraction(-1, 2), mat_eye(2), mat_eye(2)),                  # negative weight
    (CRat(0, 1), mat_eye(2), mat_eye(2)),                       # non-real weight
    (1j, mat_eye(2), mat_eye(2)),                               # a Python complex
    (1, mat_eye(2), mat_eye(3)),                                # factors of two sizes
])
def test_kraus_rejects_bad_terms(w, a, b):
    with pytest.raises(ValueError):
        kraus_from_separable_form([(w, a, b)])


def test_kraus_names_the_term_with_factors_of_two_sizes():
    with pytest.raises(ValueError, match="term 1: Alice's factor is 2x2, Bob's is 3x3"):
        kraus_from_separable_form([(1, mat_eye(2), mat_eye(2)), (1, mat_eye(2), mat_eye(3))])


def test_kraus_float_entries_are_exact():
    # a float entry reads as its exact binary value, so the roots are exact too
    a = np.array([[2.0, 0.1], [0.1, 2.0]])
    b = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    pairs = kraus_from_separable_form([(1.0, a, b)])
    assert reconstruct(pairs, 2) == tensor(a, b)


def test_matrix_json_round_trip():
    rng = random.Random(3)
    m = BipartiteOperator(2, random_hermitian_grid(rng, 4))
    blob = m.to_json()
    again = BipartiteOperator.from_json(blob)
    assert again == m
    assert again.to_json() == blob


def test_float_mode_operator():
    # float entries are taken at their exact binary values
    arr = np.diag([1.0, 0.5, 0.25, 0.1])
    m = BipartiteOperator(2, arr)
    assert m.entries[3][3] == Fraction(0.1) != Fraction(1, 10)
    assert is_psd(m)
    assert partial_transpose(partial_transpose(m)) == m


# ---------------------------------------------------------------------------
# the fraction-free Hermitian kernel against the CRat Gauss elimination

def random_grid_case(rng, n, case):
    """A seeded n x n test grid of one case: psd (full rank), deficient
    (rank < n), zero-diag (a zero diagonal entry with a nonzero row),
    negative-diag, shifted (a PSD grid with one diagonal entry moved either
    way), non-hermitian (one off-diagonal entry moved alone) or
    imaginary-symmetric (an imaginary part added on both sides of the
    diagonal, or on it, so that only the imaginary part breaks Hermiticity)."""
    rank = n if case == "psd" else rng.randint(0, n - 1) if case == "deficient" else \
        rng.randint(0, n)
    grid = [list(row) for row in random_psd_factor(rng, n, rank, den=rng.choice([1, 2, 3, 6]))]
    i, j = rng.randrange(n), rng.randrange(n)
    z = CRat(Fraction(rng.randint(1, 5), rng.randint(1, 4)),
             Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    if case == "zero-diag" and n > 1:
        j = (i + 1 + rng.randrange(n - 1)) % n
        for k in range(n):
            grid[i][k] = grid[k][i] = CR0
        grid[i][j], grid[j][i] = z, z.conjugate()
    elif case == "negative-diag":
        grid[i][i] = CRat(-z.re)
    elif case == "shifted":
        grid[i][i] = grid[i][i] + CRat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    elif case == "non-hermitian":
        grid[i][j] = grid[i][j] + (z if i != j else CRat(0, z.re))
    elif case == "imaginary-symmetric":
        grid[i][j] = grid[i][j] + CRat(0, z.re)
        if i != j:
            grid[j][i] = grid[j][i] + CRat(0, z.re)
    return tuple(tuple(row) for row in grid)


GRID_CASES = ("psd", "deficient", "zero-diag", "negative-diag", "shifted",
              "non-hermitian", "imaginary-symmetric")


@pytest.mark.parametrize("n", range(1, 7))
def test_ldl_exact_equals_the_crat_elimination(n):
    from sympovm.operators import ldl_exact, psd_exact

    from tests.crat_ldl import ldl_crat

    rng = random.Random(100 + n)
    verdicts = set()
    for trial in range(70):
        case = GRID_CASES[trial % len(GRID_CASES)]
        grid = random_grid_case(rng, n, case)
        want = ldl_crat(grid)
        assert ldl_exact(grid) == want, (case, grid)
        assert psd_exact(grid) == (want is not None), (case, grid)
        if want is not None:
            assert charpoly_psd(grid)
            total = mat_zeros(n)
            for d, l in want:
                total = tuple(tuple(t + CRat(d) * x * y.conjugate() for t, y in zip(row, l))
                              for row, x in zip(total, l))
            assert total == grid
        verdicts.add((case, want is not None))
    if n > 1:
        assert {("psd", True), ("deficient", True), ("zero-diag", False),
                ("negative-diag", False), ("non-hermitian", False),
                ("imaginary-symmetric", False)} <= verdicts


def test_kraus_pairs_equal_those_of_the_crat_elimination(monkeypatch):
    from sympovm import operators

    from tests.crat_ldl import ldl_crat

    rng = random.Random(71)
    terms = []
    for _ in range(60):
        n = rng.randint(1, 5)
        terms.append((rng.choice([1, Fraction(rng.randint(1, 9), rng.randint(1, 9))]),
                      random_psd_factor(rng, n, rng.randint(0, n), den=rng.choice([1, 2, 4])),
                      random_psd_factor(rng, n, rng.randint(0, n), den=rng.choice([1, 3]))))
    got = kraus_from_separable_form(terms)
    monkeypatch.setattr(operators, "ldl_exact", ldl_crat)
    want = kraus_from_separable_form(terms)
    assert len(got) == len(want) == len(terms)
    for g, w in zip(got, want):
        assert g == w
        assert repr(g) == repr(w)
