"""Subsets, oracles, contraction, and the property checkers."""

import copy
import pickle
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
        clones = [copy.copy(s), copy.deepcopy(s), copy.deepcopy(_unchecked_subset(100, s.mask))]
        clones += [pickle.loads(pickle.dumps(s, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert clone == s and hash(clone) == hash(s) and repr(clone) == repr(s)
            assert (type(clone.n), type(clone.mask)) == (int, int)
            assert not hasattr(clone, "__dict__")

    def test_assigning_any_attribute_is_refused(self):
        s = ElementSubset.of(5, [1])
        with pytest.raises(FrozenInstanceError):
            s.extra = 1
        assert not hasattr(s, "extra")

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


class TestGrayWalk:
    def test_walk_rejects_non_integer_values_as_evaluate_does(self):
        f = SubmodularOracle(GroundSet(2), lambda s: 0.5)
        with pytest.raises(TypeError) as by_evaluate:
            f.evaluate(f.ground.empty())
        with pytest.raises(TypeError) as by_walk:
            list(f.gray_walk())
        assert str(by_walk.value) == str(by_evaluate.value) == "oracle returned non-integer value 0.5"

    @pytest.mark.parametrize("int_type", [np.int8, np.int64, np.uint64])
    def test_walk_takes_numpy_integer_values(self, int_type):
        f = SubmodularOracle(GroundSet(3), lambda s: int_type(len(s)))
        walk = list(f.gray_walk())
        assert walk == [(mask, mask.bit_count()) for mask, _ in walk]
        assert all(type(v) is int for _, v in walk)

    def test_raise_mid_walk_leaves_the_queries_started(self):
        def fn(s):
            if len(s) == 2:
                raise RuntimeError("oracle failed")
            return 0
        f = SubmodularOracle(GroundSet(3), fn)
        # masks 0, 1, 3: the third query raises, and is counted, as by evaluate
        with pytest.raises(RuntimeError):
            list(f.gray_walk())
        assert f.query_count == 3
        with pytest.raises(RuntimeError):
            f.evaluate(ElementSubset(3, 3))
        assert f.query_count == 4

    def test_contraction_of_a_contraction_walks_and_counts_on_its_root(self):
        h = random_hypergraph(philox(7), n_lo=6, n_hi=6)
        f = CutOracle(h)
        g = contract(f, f.ground.subset([0]), f.ground.subset([5]))
        k = contract(g, f.ground.subset([1]), f.ground.subset([4]))
        before = f.query_count
        walk = list(k.gray_walk())
        # free elements 2 and 3 in Gray order, each glued to forced_in {0, 1}
        assert [mask for mask, _ in walk] == [0b0000, 0b0100, 0b1100, 0b1000]
        assert [v for _, v in walk] == [f.evaluate(ElementSubset(6, 0b11 | mask)) for mask, _ in walk]
        assert f.query_count - before == 8
        assert g.query_count == k.query_count == f.query_count

    def test_no_free_element_yields_the_forced_set_once(self):
        f = path_oracle()
        g = contract(f, f.ground.subset([0, 1]), f.ground.subset([2]))
        before = f.query_count
        assert list(g.gray_walk()) == [(0, f.evaluate(f.ground.subset([0, 1])))]
        assert f.query_count - before == 2


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
        # both: one query per subset of the free elements, pass or fail;
        # submodular: one check per (A, i < j) outside A;
        # symmetric: one check per complementary pair up to the first violation
        f = path_oracle()
        report = check_submodular(f)
        assert (report.ok, report.checks, f.query_count) == (True, 6, 8)
        f = path_oracle()
        report = check_symmetric(f)
        assert (report.ok, report.checks, f.query_count) == (True, 4, 8)
        f = SubmodularOracle(GroundSet(3), lambda s: len(s))
        report = check_symmetric(f)
        assert (report.ok, report.checks, f.query_count) == (False, 1, 8)
        f = path_oracle()
        report = check_symmetric(contract(f, f.ground.subset([0, 1]), f.ground.subset([2])))
        assert (report.ok, report.checks, f.query_count) == (True, 1, 1)

        f = path_oracle()
        report = check_submodular(contract(f, f.ground.subset([0]), f.ground.empty()))
        assert (report.ok, report.checks, f.query_count) == (True, 1, 4)

        f = SubmodularOracle(GroundSet(5), lambda s: len(s) ** 2)
        report = check_submodular(f)
        assert not report.ok
        assert report.witness == (f.ground.subset([0]), f.ground.subset([1]))
        assert report.values == (1, 1, 4, 0)
        assert (report.checks, f.query_count) == (1, 32)


def random_table_oracle(rng):
    """A fresh or contracted oracle over a random integer table on n <= 6.

    Half the tables are symmetrized and the values are small, so both
    checkers see passing and failing oracles.
    """
    n = int(rng.integers(1, 7))
    full = (1 << n) - 1
    table = [int(v) for v in rng.integers(0, 3, size=1 << n)]
    if rng.integers(2):
        table = [table[x] + table[full ^ x] for x in range(1 << n)]
    f = SubmodularOracle(GroundSet(n), lambda s: table[s.mask])
    if rng.integers(2):
        side = rng.integers(0, 3, size=n)  # 0 free, 1 forced in, 2 forced out
        f = contract(f, *(f.ground.subset(np.flatnonzero(side == k)) for k in (1, 2)))
    forced, free = f.forced_in.mask, f.free.mask
    subsets = [x for x in range(full + 1) if not x & ~free]
    return f, subsets, lambda x: table[forced | x]


class TestCheckersAgainstTheDefinition:
    def test_random_tables_fresh_and_contracted(self):
        rng = philox(29)
        outcomes = set()
        for _ in range(600):
            f, subsets, value = random_table_oracle(rng)
            free = f.free.mask
            submodular = all(value(a) + value(b) >= value(a | b) + value(a & b) for a in subsets for b in subsets)
            symmetric = all(value(x) == value(free ^ x) for x in subsets)
            sub, sym = check_submodular(f), check_symmetric(f)
            assert (sub.ok, sym.ok) == (submodular, symmetric)
            outcomes.add((sub.ok, sym.ok))
            if not sub.ok:
                a, b = sub.witness
                assert not (a.mask | b.mask) & ~free
                assert sub.values == tuple(f.evaluate(s) for s in (a, b, a | b, a & b))
                fa, fb, fu, fi = sub.values
                assert fa + fb < fu + fi
            if not sym.ok:
                a, c = sym.witness
                assert not (a.mask | c.mask) & ~free and c.mask == free ^ a.mask
                assert sym.values == (f.evaluate(a), f.evaluate(c))
                assert sym.values[0] != sym.values[1]
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


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
