"""Subsets, oracles, contraction, and the property checkers."""

import copy
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isocut import (
    BruteForceBlackbox,
    CutOracle,
    ElementSubset,
    GroundSet,
    Hypergraph,
    OracleContractError,
    SizeLimitError,
    SubmodularOracle,
    TerminalSet,
    bruteforce_nontrivial_min,
    check_submodular,
    check_symmetric,
    contract,
    isolating_sets,
)
from isocut.core import _unchecked_subset

from conftest import philox, random_hypergraph


def members_strategy(n):
    return st.lists(st.integers(0, n - 1), max_size=n)


class TestElementSubset:
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), members_strategy(n), members_strategy(n))))
    def test_ops_match_python_sets(self, case):
        n, xs, ys = case
        a, b = ElementSubset.of(n, xs), ElementSubset.of(n, ys)
        sa, sb = set(xs), set(ys)
        assert set(a | b) == sa | sb
        assert set(a & b) == sa & sb
        assert set(a - b) == sa - sb
        assert set(a.complement()) == set(range(n)) - sa
        assert (a <= b) == (sa <= sb)
        assert len(a) == len(sa)
        assert (a == b) == (sa == sb)
        # results built without the range check behave like checked subsets
        for r in (a | b, a & b, a - b, a.complement()):
            checked, unchecked = ElementSubset(n, r.mask), _unchecked_subset(n, r.mask)
            for s in (r, unchecked):
                assert s == checked and hash(s) == hash(checked) and repr(s) == repr(checked)
            for s in (r, checked, unchecked):
                for field in ("n", "mask"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(s, field, 0)

    def test_slotted_with_no_instance_dict(self):
        s = ElementSubset.of(100, [3, 70])
        assert not hasattr(s, "__dict__")
        for clone in (copy.copy(s), copy.deepcopy(s), copy.deepcopy(_unchecked_subset(100, s.mask))):
            assert clone == s and hash(clone) == hash(s) and repr(clone) == repr(s)
            assert (type(clone.n), type(clone.mask)) == (int, int)

    def test_membership_and_iteration_order(self):
        s = ElementSubset.of(6, [4, 1, 1, 3])
        assert list(s) == [1, 3, 4]
        assert 3 in s and 0 not in s and 17 not in s

    @pytest.mark.parametrize("n", [12, 100])
    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_membership_takes_numpy_ints(self, n, int_type):
        # past 63 bits the shift by a numpy int used to raise OverflowError
        s = ElementSubset.of(n, [3, n - 2])
        assert int_type(3) in s and int_type(n - 2) in s
        assert int_type(4) not in s and int_type(n) not in s and int_type(-1) not in s

    def test_membership_rejects_non_integers(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            1.0 in ElementSubset.of(100, [1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ElementSubset.of(3, [3])
        with pytest.raises(ValueError):
            ElementSubset(3, 1 << 3)

    def test_mixed_universe_rejected(self):
        with pytest.raises(ValueError):
            ElementSubset.of(3, [0]) | ElementSubset.of(4, [0])

    @pytest.mark.parametrize("n, mask", [(3, 1.0), (3.0, 1), ("3", 1), (3, None)])
    def test_non_integers_rejected(self, n, mask):
        # a float mask used to construct, then fail in len() on bit_count
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ElementSubset(n, mask)

    def test_integer_fields_are_stored_as_ints(self):
        s = ElementSubset(True, np.int64(1))
        assert (s.n, s.mask) == (1, 1) and type(s.n) is type(s.mask) is int


class TestGroundSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroundSet(0)

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
    def test_non_integer_n_rejected(self, n):
        # GroundSet(2.5) used to construct, then fail in full() on the shift
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            GroundSet(n)

    def test_n_is_stored_as_int(self):
        for n in (True, np.int32(3)):
            g = GroundSet(n)
            assert g.n == int(n) and type(g.n) is int
            assert len(g.full()) == int(n)

    def test_subset_builders(self):
        g = GroundSet(4)
        assert list(g.full()) == [0, 1, 2, 3]
        assert not g.empty()
        assert list(g.subset([2])) == [2]


def path_oracle():
    # path a-b-c with unit edges (a, b, c) = (0, 1, 2)
    return CutOracle(Hypergraph(3, [((0, 1), 1), ((1, 2), 1)]))


class TestContract:
    def test_forces_set_inside(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.subset([2]))
        # f({a, b}) = 1: only the b-c edge crosses
        assert g.evaluate(f.ground.subset([1])) == f.evaluate(f.ground.subset([0, 1])) == 1

    def test_empty_contraction_is_identity(self):
        f = path_oracle()
        g = contract(f, f.ground.empty(), f.ground.empty())
        for mask in range(8):
            s = ElementSubset(3, mask)
            assert g.evaluate(s) == f.evaluate(s)

    def test_empty_argument(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.subset([2]))
        assert g.evaluate(f.ground.empty()) == f.evaluate(f.ground.subset([0]))

    def test_overlap_rejected(self):
        f = path_oracle()
        with pytest.raises(ValueError):
            contract(f, f.ground.subset([0]), f.ground.subset([0, 2]))

    def test_query_accounting_forwards_one_per_eval(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.subset([2]))
        before = f.query_count
        for _ in range(17):
            g.evaluate(f.ground.subset([1]))
        assert f.query_count - before == 17
        assert g.query_count == f.query_count

    def test_contraction_composes(self):
        h = random_hypergraph(philox(5), n_lo=6, n_hi=6)
        f = CutOracle(h)
        s1, t1 = f.ground.subset([0]), f.ground.subset([5])
        s2, t2 = f.ground.subset([2]), f.ground.subset([3])
        nested = contract(contract(f, s1, t1), s2, t2)
        flat = contract(f, s1 | s2, t1 | t2)
        assert (nested.free, nested.forced_in) == (flat.free, flat.forced_in)
        for mask in range(1 << h.n):
            s = ElementSubset(h.n, mask)
            if s <= flat.free:
                assert nested.evaluate(s) == flat.evaluate(s)

    def test_nested_contraction_counts_once_on_the_root(self):
        f = CutOracle(random_hypergraph(philox(6), n_lo=6, n_hi=6))
        g = contract(f, f.ground.subset([0]), f.ground.subset([5]))
        h = contract(g, f.ground.subset([1]), f.ground.subset([4]))
        before = f.query_count
        for mask in range(4):
            h.evaluate(ElementSubset(6, mask << 2))
        assert f.query_count - before == 4
        assert g.query_count == h.query_count == f.query_count

    def test_contraction_is_not_symmetric(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.empty())
        assert f.symmetric and not g.symmetric
        with pytest.raises(OracleContractError):
            isolating_sets(g, TerminalSet(f.ground.subset([1, 2])), BruteForceBlackbox())

    def test_rejects_forced_sets_outside_free(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.empty())
        with pytest.raises(ValueError):
            contract(g, f.ground.subset([0]), f.ground.empty())

    def test_free_ground_excludes_both_sides(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.subset([2]))
        assert set(g.free) == {1}
        with pytest.raises(ValueError):
            g.evaluate(f.ground.subset([2]))
        # same mask as the free element, but from a 4-element universe
        with pytest.raises(ValueError):
            g.evaluate(ElementSubset.of(4, [1]))


class TestOracle:
    def test_rejects_non_integer_values(self):
        f = SubmodularOracle(GroundSet(2), lambda s: 0.5)
        with pytest.raises(TypeError):
            f.evaluate(f.ground.empty())

    def test_rejects_foreign_subset(self):
        f = path_oracle()
        with pytest.raises(ValueError):
            f.evaluate(ElementSubset.of(4, [0]))


class TestCheckers:
    def test_cut_function_is_submodular(self):
        report = check_submodular(path_oracle())
        assert report.ok and report.checks > 0

    def test_squared_cardinality_violates(self):
        f = SubmodularOracle(GroundSet(3), lambda s: len(s) ** 2)
        report = check_submodular(f)
        assert not report.ok
        a, b = report.witness
        fa, fb, fu, fi = report.values
        assert fa == f._fn(a) and fb == f._fn(b)
        assert fu == len(a | b) ** 2 and fi == len(a & b) ** 2
        assert fa + fb < fu + fi

    def test_constant_zero_is_submodular(self):
        f = SubmodularOracle(GroundSet(4), lambda s: 0)
        assert check_submodular(f).ok

    def test_exhaustive_cap(self):
        f = SubmodularOracle(GroundSet(17), lambda s: 0)
        with pytest.raises(SizeLimitError):
            check_submodular(f)
        g = SubmodularOracle(GroundSet(21), lambda s: 0)
        with pytest.raises(SizeLimitError):
            check_symmetric(g)

    def test_cut_function_is_symmetric(self):
        assert check_symmetric(path_oracle()).ok

    def test_cardinality_violates_symmetry(self):
        f = SubmodularOracle(GroundSet(3), lambda s: len(s))
        report = check_symmetric(f)
        assert not report.ok
        a, c = report.witness
        assert len(a) != len(c)
        assert report.values == (len(a), len(c))

    def test_folded_cardinality_is_symmetric(self):
        n = 5
        f = SubmodularOracle(GroundSet(n), lambda s: min(len(s), n - len(s)))
        assert check_symmetric(f).ok

    def test_checkers_work_on_contractions(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0]), f.ground.empty())
        assert check_submodular(g).ok

    def test_accounting_is_pinned(self):
        # submodular: one query per subset, one check per (A, i < j) outside A;
        # symmetric: one check and two queries per complementary pair
        f = path_oracle()
        report = check_submodular(f)
        assert (report.ok, report.checks, f.query_count) == (True, 6, 8)
        f = path_oracle()
        report = check_symmetric(f)
        assert (report.ok, report.checks, f.query_count) == (True, 4, 8)

        f = path_oracle()
        report = check_submodular(contract(f, f.ground.subset([0]), f.ground.empty()))
        assert (report.ok, report.checks, f.query_count) == (True, 1, 4)

        f = SubmodularOracle(GroundSet(5), lambda s: len(s) ** 2)
        report = check_submodular(f)
        assert not report.ok
        assert report.witness == (f.ground.subset([0]), f.ground.subset([1]))
        assert report.values == (1, 1, 4, 0)
        assert (report.checks, f.query_count) == (1, 32)


class TestNontrivialMinimizerExists:
    def test_symmetric_oracles_have_a_small_side_optimum(self):
        rng = philox(11)
        for _ in range(15):
            h = random_hypergraph(rng, n_lo=3, n_hi=8)
            side, value = bruteforce_nontrivial_min(CutOracle(h))
            assert 0 < len(side) <= h.n // 2
            assert value == min(
                CutOracle(h)._fn(ElementSubset(h.n, m)) for m in range(1, (1 << h.n) - 1)
            )
