"""Unit tests for the exact linear-algebra kernel."""

from repro.poly.linalg import (
    hermite_normal_form,
    integer_solvable,
    normalize_row,
    rank,
    vec_gcd,
)


class TestBasics:
    def test_vec_gcd(self):
        assert vec_gcd([4, 6, 8]) == 2
        assert vec_gcd([3, 5]) == 1
        assert vec_gcd([0, 0]) == 0
        assert vec_gcd([-4, 6]) == 2

    def test_normalize_row(self):
        assert normalize_row([2, 4, -6]) == (1, 2, -3)
        assert normalize_row([0, 0]) == (0, 0)
        assert normalize_row([5]) == (1,)   # single entry: gcd = itself
        assert normalize_row([5, 0]) == (1, 0)


class TestRankHNF:
    def test_rank(self):
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([]) == 0
        assert rank([[0, 0]]) == 0

    def test_hnf_identity(self):
        h = hermite_normal_form([[1, 0], [0, 1]])
        assert h == [[1, 0], [0, 1]]

    def test_hnf_gcd_row(self):
        h = hermite_normal_form([[4], [6]])
        assert h == [[2]]

    def test_hnf_drops_dependent_rows(self):
        h = hermite_normal_form([[1, 2], [2, 4]])
        assert h == [[1, 2]]


class TestIntegerSolvable:
    def test_trivial(self):
        assert integer_solvable([])
        assert integer_solvable([(1, -3)])       # x = 3

    def test_parity_conflict(self):
        assert not integer_solvable([(2, -1)])   # 2x = 1

    def test_gcd_condition(self):
        assert integer_solvable([(4, 6, -2)])    # 4x + 6y = 2
        assert not integer_solvable([(4, 6, -3)])  # gcd 2 does not divide 3

    def test_zero_rows(self):
        assert integer_solvable([(0, 0, 0)])
        assert not integer_solvable([(0, 0, 5)])
