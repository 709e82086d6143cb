"""Coboundary matrices, chain kernels, rank ledgers, cluster mutation.

The module under test only assembles matrices out of reduction steps,
so the oracles here attack the linear algebra from the other side: an
independent elimination with a different pivot rule, the trace
evaluator for the one-point cocycle, the binomial kernel expansion for
the sphere column, and hand-counted tuple dimensions.  The Euler sum
is recomputed from the raw ledger by telescoping instead of trusting
the returned total.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from voasurf.cohomology import (
    ClusterSetting,
    RankResult,
    build_coboundary,
    canonical_points,
    chain_condition_check,
    cluster_mutate,
    cohomology_rank,
    euler_poincare,
    graded_slice,
    involution_check,
    make_seed,
    sources,
    weighted_tuples,
    xi_sign,
)
from voasurf import cohomology, linalg
from voasurf.reduction import (
    Insertion,
    WindowError,
    direct,
    genus0_direct,
    genus1_onepoint,
    reduce_step,
)
from voasurf.series import binomial_expand
from voasurf.voa import GradedVector, basis, parse_state, vacuum

A = parse_state("a")
A2 = parse_state("a[-2]|1")
AA = parse_state("a[-1]^2|1")
OMEGA = parse_state("omega")
VAC = vacuum()

# p(0)..p(6)
PARTITIONS = [1, 1, 2, 3, 5, 7, 11]


def oracle_rank(rows):
    """Row echelon with largest-pivot selection and forward-only
    elimination; shares nothing with the module's reduced form."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    count = 0
    for c in range(ncols):
        piv, best = None, None
        for i in range(r, nrows):
            v = abs(m[i][c])
            if v != 0 and (best is None or v > best):
                piv, best = i, v
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        count += 1
        r += 1
        if r == nrows:
            break
    return count


def dense_from_columns(columns):
    keys = sorted({k for col in columns for k in col})
    return [[col.get(k, Fraction(0)) for col in columns] for k in keys]


def annihilates(vec, columns):
    acc = {}
    for c, col in zip(vec, columns):
        for k, v in col.items():
            acc[k] = acc.get(k, Fraction(0)) + c * v
    return all(v == 0 for v in acc.values())


def oracle_kernel(columns):
    """The kernel by dense Gauss-Jordan: one Fraction vector per free
    column of the reduced echelon form."""
    n = len(columns)
    ech, pivots, _ = linalg.row_echelon(
        dense_from_columns(columns) or [[Fraction(0)] * n])
    kernel = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -ech[r][f]
        kernel.append(vec)
    return kernel


def oracle(s, insertions):
    """The brute-force correlation function of an insertion tuple on
    the slice's window, between the slice's boundary states at genus 0."""
    blank = s.blank
    if blank.genus == 0:
        return genus0_direct(insertions, *blank.boundary_states, blank.window)
    return direct(blank.genus, insertions, blank.window, blank.q_order)


def oracle_functions(s):
    """The brute-force correlation function of every basis tuple."""
    return [oracle(s, fn.insertions) for fn in sources(s)]


# -- slices ---------------------------------------------------------------


class TestSlices:
    def test_tuple_counts_match_partition_products(self):
        # sum of p(w1)...p(wn) over compositions, counted by hand
        assert len(weighted_tuples(0, 0)) == 1
        assert len(weighted_tuples(0, 2)) == 0
        assert len(weighted_tuples(2, 0)) == 1
        assert len(weighted_tuples(1, 4)) == PARTITIONS[4]
        assert len(weighted_tuples(2, 3)) == 10
        assert len(weighted_tuples(3, 3)) == 22

    def test_enumeration_deterministic(self):
        assert weighted_tuples(2, 3) == weighted_tuples(2, 3)
        tup = weighted_tuples(3, 4)
        assert len(set(tup)) == len(tup)
        assert all(sum(sum(s) for s in t) == 4 for t in tup)

    def test_canonical_points(self):
        assert canonical_points(3) == ("z1", "z2", "z3")

    def test_vectorize_matches_value(self):
        # a value's coefficient dict is its vector: keyed in the sorted
        # variables, with no stored zero
        s = graded_slice(1, 1, 2, window=(-3, 3), q_order=3)
        for fn in oracle_functions(s):
            assert fn.value.vars == ("q", "q_z1")
            assert all(fn.value.c.values())

    def test_vectorize_distinguishes_functions(self):
        # one-point of a[-2]|1 vanishes (odd number of modes in the
        # trace), one-point of a[-1]^2|1 does not
        s = graded_slice(1, 1, 2, window=(-3, 3), q_order=3)
        vecs = [fn.value.c for fn in oracle_functions(s)]
        assert s.basis == (((2,),), ((1, 1),))
        assert vecs[0] == {}
        assert vecs[1] != {}

    def test_inverted_window_is_refused(self):
        # an inverted window shows an empty box, which used to pass
        # through every slice as a silently wrong rank
        with pytest.raises(ValueError, match="inverted window"):
            graded_slice(1, 1, 2, window=(3, -3), q_order=3)
        with pytest.raises(ValueError, match="inverted window"):
            cohomology_rank(1, 2, 1, Insertion(A, "w"), window=(3, -3),
                            q_order=3)

    def test_slice_validation(self):
        with pytest.raises(ValueError):
            graded_slice(2, 1, 1)
        with pytest.raises(ValueError):
            graded_slice(0, -1, 0)

    @pytest.mark.parametrize("call,text", [
        (lambda: graded_slice(2, -1, 0, window=(3, -3)),
         "graded slices exist at genus 0 and 1"),
        (lambda: graded_slice(0, -1, 0, window=(3, -3)),
         "level n must be >= 0"),
        (lambda: graded_slice(0, 1, 0, window=(3, -3), boundary=(A,)),
         "inverted window"),
        (lambda: graded_slice(0, 1, 0, boundary=(A,)),
         r"the genus-0 boundary is two states \(u', u\), got 1"),
        (lambda: graded_slice(1, 1, 0, boundary=(A, A)),
         "boundary states exist only at genus 0"),
        # the fresh point is checked on a slice with no basis tuples,
        # and on the top level of a ladder after its slice refusals
        (lambda: build_coboundary(Insertion(A, "z1"),
                                  graded_slice(1, 1, -1)), "collides"),
        (lambda: euler_poincare(0, 2, 1, Insertion(A, "z2")), "collides"),
        (lambda: euler_poincare(0, 2, 2, Insertion(A, "z2")),
         "graded slices exist at genus 0 and 1"),
    ])
    def test_slice_refusals_in_order(self, call, text):
        with pytest.raises(ValueError, match=text):
            call()

    def test_sources_are_built_as_they_are_read(self):
        # the slice stores one value-free blank; each source is that
        # blank with one basis tuple's insertions, made on demand
        s = graded_slice(1, 2, 1, window=(-3, 3), q_order=3)
        assert s.basis == weighted_tuples(2, 1)
        assert s.blank == (1, (), None, (-3, 3), None, 3, ())
        gen = sources(s)
        assert iter(gen) is gen
        assert [[(i.state.t, i.point) for i in fn.insertions]
                for fn in gen] == [[({(): 1}, "z1"), ({(1,): 1}, "z2")],
                                   [({(1,): 1}, "z1"), ({(): 1}, "z2")]]


# -- coboundary matrices --------------------------------------------------


class TestCoboundary:
    def test_partition_cocycle_direction_a(self):
        # trace oracle: Tr o(a) q^{L(0)} is identically zero
        assert genus1_onepoint(A, 6).is_zero()
        s = graded_slice(1, 0, 0, q_order=6)
        cb = build_coboundary(Insertion(A, "z"), s)
        assert cb.columns == [{}]
        assert cb.rank == 0
        # one zero column: the kernel is all of the slice
        assert cb.kernel_dim == 1

    def test_vacuum_direction_is_inclusion_genus1(self):
        s = graded_slice(1, 1, 2, window=(-3, 3), q_order=3)
        cb = build_coboundary(Insertion(VAC, "z"), s)
        image = reduce_step(Insertion(VAC, "z"), next(sources(s)))
        i = image.value.vars.index("q_z")
        for col, fn in zip(cb.columns, oracle_functions(s)):
            assert col == {k[:i] + (0,) + k[i:]: v
                           for k, v in fn.value.c.items()}

    def test_vacuum_direction_is_inclusion_genus0(self):
        # <a, Y(a,z1) 1> is the constant -1 under the invariant form
        s = graded_slice(0, 1, 1, window=(-4, 4), boundary=(A, VAC))
        assert oracle_functions(s)[0].value.c == {(0,): Fraction(-1)}
        cb = build_coboundary(Insertion(VAC, "z"), s)
        assert cb.columns[0] == {(0, 0): Fraction(-1)}

    def test_sphere_kernel_coefficients(self):
        # the column for a@z1 between vacua is the expansion of
        # 1/(z - z1)^2, coefficients j + 1
        s = graded_slice(0, 1, 1, window=(-4, 4))
        cb = build_coboundary(Insertion(A, "z"), s)
        oracle = binomial_expand(1, "z", "z1", -4)
        expected = {k: v for k, v in oracle.c.items() if v}
        assert cb.columns[0] == expected
        assert cb.columns[0] == {(-2, 0): 1, (-3, 1): 2, (-4, 2): 3}

    def test_matrix_shape_and_rank_oracle(self):
        s = graded_slice(1, 2, 2, window=(-3, 3), q_order=3)
        cb = build_coboundary(Insertion(A, "w"), s)
        assert len(cb.columns) == len(s.basis) == 5
        dense = dense_from_columns(cb.columns)
        assert len(dense) == len(set().union(*cb.columns))
        assert all(len(row) == len(s.basis) for row in dense)
        assert cb.rank == oracle_rank(dense)
        assert cb.rank + cb.kernel_dim == len(s.basis)

    def test_kernel_vectors_annihilate_columns(self):
        s = graded_slice(1, 2, 2, window=(-3, 3), q_order=3)
        cb = build_coboundary(Insertion(A, "w"), s)
        kernel = linalg.kernel_basis(cb.columns)
        assert len(kernel) == cb.kernel_dim
        assert all(annihilates(vec, cb.columns) for vec in kernel)

    @settings(max_examples=20, deadline=None)
    @given(st.fractions(min_value=-6, max_value=6, max_denominator=4),
           st.fractions(min_value=-6, max_value=6, max_denominator=4))
    def test_coboundary_linear_in_state(self, al, be):
        s = graded_slice(1, 1, 2, window=(-3, 3), q_order=3)
        cb = build_coboundary(Insertion(A, "w"), s)
        mixed = al * A2 + be * AA
        if mixed.is_zero():
            return
        img = _reduce(s, Insertion(A, "w"),
                      (Insertion(mixed, "z1"),)).value.c
        want = {}
        for c, col in zip((al, be), cb.columns):
            for k, v in col.items():
                want[k] = want.get(k, Fraction(0)) + c * v
        assert img == {k: v for k, v in want.items() if v}

    @pytest.mark.parametrize("slice_kw,family", [
        (dict(genus=0, n=2, m=2, boundary=(VAC, parse_state("1 + a"))),
         [Insertion(A, "w")]),
        (dict(genus=1, n=2, m=2, q_order=3), [Insertion(A, "w")]),
        (dict(genus=1, n=1, m=2, q_order=3),
         [Insertion(A2, "w"), Insertion(AA, "w")]),
    ])
    def test_images_share_one_variable_tuple(self, slice_kw, family):
        # the columns are the images' own coefficient dicts, so every
        # image of one slice must key them alike and store no zero
        s = graded_slice(window=(-3, 3), **slice_kw)
        images = [reduce_step(d, fn).value
                  for fn in sources(s) for d in family]
        assert len({v.vars for v in images}) == 1
        assert all(all(v.c.values()) for v in images)
        assert any(v.c for v in images)
        stacked = build_coboundary(family, s, "stack").columns
        assert stacked == [{(i,) + k: c for i, v in enumerate(
            images[j:j + len(family)]) for k, c in v.c.items()}
            for j in range(0, len(images), len(family))]

    def test_window_insufficiency_propagates(self):
        s = graded_slice(0, 0, 0, window=(0, 0), boundary=(A, A))
        with pytest.raises(WindowError):
            build_coboundary(Insertion(OMEGA, "w"), s)

    def test_fresh_point_collision_raises(self):
        s = graded_slice(1, 1, 1, window=(-3, 3), q_order=3)
        with pytest.raises(ValueError, match="collides"):
            build_coboundary(Insertion(A, "z1"), s)

    def test_direction_must_be_homogeneous(self):
        s = graded_slice(1, 0, 0, q_order=3)
        with pytest.raises(ValueError, match="homogeneous"):
            build_coboundary(Insertion(A + OMEGA, "z"), s)
        with pytest.raises(ValueError, match="nonzero"):
            build_coboundary(Insertion(GradedVector(), "z"), s)

    @pytest.mark.parametrize("window", [(-1, 1), (-2, 2)])
    def test_sources_outside_the_oracle_window(self, window):
        # the oracle refuses the source a[-2]|1 at z1 on this box (its
        # support reaches z1^-3), but a source is a tuple and carries
        # no value, so the coboundary still builds; each column is the
        # (n+1)-point oracle on a window 6 wider, cut to the box
        s = graded_slice(0, 1, 2, window=window, boundary=(VAC, A))
        with pytest.raises(WindowError):
            oracle(s, next(sources(s)).insertions)
        cb = build_coboundary(Insertion(A, "w"), s)
        lo, hi = window
        for fn, col in zip(sources(s), cb.columns):
            insertions = (Insertion(A, "w"),) + fn.insertions
            wide = genus0_direct(insertions, *s.blank.boundary_states,
                                 (lo - 6, hi + 6))
            assert col == {k: c for k, c in wide.value.c.items()
                           if all(lo <= e <= hi for e in k)}
        # the wider box shows a nonzero column, so the check has teeth
        assert any(cb.columns) == (window == (-2, 2))


def _reduce(src, d, insertions):
    return reduce_step(d, oracle(src, insertions))


# -- sparse integer rank --------------------------------------------------


_ROW_KEYS = st.tuples(st.integers(-2, 2), st.integers(0, 2))
_ENTRIES = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def sparse_columns(draw):
    """Sparse rational columns with denominators, explicit zero entries,
    empty and all-zero columns, and rational combinations of earlier
    columns, shuffled."""
    base = draw(st.lists(st.dictionaries(_ROW_KEYS, _ENTRIES, max_size=6),
                         max_size=6))
    cols = list(base)
    cols += [{}] * draw(st.integers(0, 1))
    cols += [{(0, 0): Fraction(0)}] * draw(st.integers(0, 1))
    if base:
        coeffs = st.lists(_ENTRIES, min_size=len(base), max_size=len(base))
        for cs in draw(st.lists(coeffs, max_size=3)):
            acc = {}
            for c, col in zip(cs, base):
                for k, v in col.items():
                    acc[k] = acc.get(k, Fraction(0)) + c * v
            cols.append(acc)
    return draw(st.permutations(cols))


class TestSparseRank:
    @settings(max_examples=300, deadline=None)
    @given(sparse_columns())
    def test_agrees_with_row_echelon(self, columns):
        dense = dense_from_columns(columns)
        assert linalg.rank(columns) == linalg.row_echelon(dense)[2]

    @settings(max_examples=150, deadline=None)
    @given(sparse_columns())
    def test_kernel_basis_primitive_int_relations(self, columns):
        kernel = linalg.kernel_basis(columns)
        assert len(kernel) == len(columns) - linalg.rank(columns)
        for vec in kernel:
            assert len(vec) == len(columns)
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1
            assert annihilates(vec, columns)
        assert oracle_rank(kernel) == len(kernel)

    def test_kernel_basis_scales_rational_columns(self):
        # the relation between a column and its rational multiple needs
        # the multiple's denominator: 3 * (1/3, 2/3) = (1, 2)
        cols = [{(0,): 1, (1,): 2},
                {(0,): Fraction(1, 3), (1,): Fraction(2, 3)},
                {}]
        kernel = linalg.kernel_basis(cols)
        assert sorted([abs(x) for x in v] for v in kernel) == \
            [[0, 0, 1], [1, 3, 0]]
        assert linalg.kernel_basis([]) == []

    def test_integer_and_rational_entries(self):
        assert linalg.rank([]) == 0
        assert linalg.rank([{}, {(0,): 0}]) == 0
        # an integer column, a rational multiple of it, and a new row
        cols = [{(0,): 1, (1,): 2},
                {(0,): Fraction(1, 3), (1,): Fraction(2, 3)},
                {(1,): Fraction(-5, 7)}]
        assert linalg.rank(cols) == 2

    @pytest.mark.parametrize("slice_kw,family,combine", [
        (dict(genus=0, n=2, m=2), Insertion(A, "w"), "sum"),
        (dict(genus=0, n=3, m=3), Insertion(A, "w"), "sum"),
        (dict(genus=0, n=2, m=3),
         [Insertion(A2, "w"), Insertion(AA, "w")], "stack"),
        (dict(genus=0, n=2, m=2, boundary=(A, A)), Insertion(A, "w"), "sum"),
        (dict(genus=0, n=2, m=1, boundary=(A2, A)),
         [Insertion(A2, "w"), Insertion(AA, "w")], "stack"),
        (dict(genus=1, n=2, m=2, q_order=3), Insertion(A, "w"), "sum"),
        (dict(genus=1, n=1, m=3, q_order=3),
         [Insertion(A2, "w"), Insertion(AA, "w")], "sum"),
        (dict(genus=1, n=2, m=2, q_order=3),
         [Insertion(A2, "w"), Insertion(AA, "w")], "stack"),
        (dict(genus=1, n=2, m=3, q_order=3), Insertion(OMEGA, "w"), "sum"),
    ])
    def test_coboundary_rank_matches_oracle(self, slice_kw, family, combine):
        s = graded_slice(window=(-3, 3), **slice_kw)
        cb = build_coboundary(family, s, combine)
        assert cb.rank == oracle_rank(dense_from_columns(cb.columns))


# -- chain condition ------------------------------------------------------


class TestChainCondition:
    def test_double_vacuum_composite_keeps_independence(self):
        s = graded_slice(1, 1, 0, window=(-3, 3), q_order=3)
        rep = chain_condition_check(Insertion(VAC, "w2"),
                                    Insertion(VAC, "w1"), s)
        assert rep.kernel_dim == 0 and len(s.basis) == 1

    def test_partition_annihilated_after_first_step(self):
        s = graded_slice(1, 0, 0, q_order=4)
        assert build_coboundary(Insertion(A, "w1"), s).columns == [{}]
        for second in (A, OMEGA, VAC):
            rep = chain_condition_check(Insertion(second, "w2"),
                                        Insertion(A, "w1"), s)
            assert rep.kernel_dim == 1
            assert rep.kernel == ((Fraction(1),),)

    def test_weight2_kernel_matches_elimination_oracle(self):
        s = graded_slice(1, 1, 2, window=(-3, 3), q_order=3)
        rep = chain_condition_check(Insertion(A, "w2"), Insertion(A, "w1"), s)
        dense = dense_from_columns(rep.columns)
        assert rep.kernel_dim == len(s.basis) - oracle_rank(dense)
        assert all(annihilates(vec, rep.columns) for vec in rep.kernel)

    @pytest.mark.parametrize("genus,n,m,window,first,second", [
        (1, 1, 0, (-3, 3), VAC, VAC),
        (1, 0, 0, (-4, 4), A, A),
        (1, 0, 0, (-4, 4), A, OMEGA),
        (1, 0, 0, (-4, 4), A, VAC),
        (1, 1, 2, (-2, 2), A, A),
        (1, 1, 2, (-3, 3), A, A),
        (1, 1, 2, (-4, 4), A, A),
        (0, 1, 2, (-3, 3), A, A),
        (0, 2, 2, (-3, 3), A, A),
        (0, 2, 2, (-3, 3), A2, OMEGA),
        (1, 2, 2, (-2, 2), A, A),
        (1, 1, 3, (-3, 3), A, OMEGA),
    ])
    def test_kernel_spans_the_dense_oracle_kernel(self, genus, n, m, window,
                                                  first, second):
        s = graded_slice(genus, n, m, window=window, q_order=3)
        rep = chain_condition_check(Insertion(second, "w2"),
                                    Insertion(first, "w1"), s)
        oracle = oracle_kernel(rep.columns)
        assert rep.kernel_dim == len(oracle)
        assert all(annihilates(vec, rep.columns) for vec in rep.kernel)
        # same dimension and a joint rank no larger: the same span
        assert oracle_rank(list(rep.kernel) + oracle) == len(oracle)

    def test_no_dense_echelon_on_any_rank_or_kernel(self, monkeypatch):
        echelons = []
        echelon = linalg.row_echelon

        def counted_echelon(matrix):
            echelons.append(len(matrix))
            return echelon(matrix)

        monkeypatch.setattr(linalg, "row_echelon", counted_echelon)
        kw = dict(window=(-3, 3), q_order=3)
        cohomology_rank(2, 2, 1, Insertion(A, "w"), **kw)
        euler_poincare(2, 3, 1, Insertion(A, "w"), **kw)
        rep = chain_condition_check(Insertion(A, "w2"), Insertion(A, "w1"),
                                    graded_slice(1, 1, 2, **kw))
        assert rep.columns and echelons == []

    @pytest.mark.parametrize("first", [True, False])
    def test_direction_must_be_nonzero_and_homogeneous(self, first):
        s = graded_slice(1, 1, 1, window=(-3, 3), q_order=3)
        for bad, text in ((A + OMEGA, "homogeneous"),
                          (GradedVector(), "nonzero")):
            dirs = (Insertion(A, "w2"), Insertion(bad, "w1")) if first \
                else (Insertion(bad, "w2"), Insertion(A, "w1"))
            with pytest.raises(ValueError, match=text):
                chain_condition_check(*dirs, s)

    def test_kernel_window_monotone(self):
        # a larger window can only refute more combinations
        dims = []
        for w in ((-2, 2), (-3, 3), (-4, 4)):
            s = graded_slice(1, 1, 2, window=w, q_order=3)
            rep = chain_condition_check(Insertion(A, "w2"),
                                        Insertion(A, "w1"), s)
            dims.append(rep.kernel_dim)
        assert dims[0] >= dims[1] >= dims[2]


# -- rank data ------------------------------------------------------------


class TestCohomologyRank:
    @pytest.mark.parametrize("genus,n,m", [(0, 1, 2), (0, 2, 2), (1, 1, 2),
                                           (1, 2, 2), (1, 2, 3)])
    def test_rank_nullity(self, genus, n, m):
        rr = cohomology_rank(n, m, genus, Insertion(A, "w"),
                             window=(-3, 3), q_order=3)
        assert rr.q == rr.kernel_rank + rr.image_rank
        assert rr.q == len(weighted_tuples(n, m))

    def test_empty_slice(self):
        assert cohomology_rank(0, 1, 0, Insertion(A, "w")) == \
            RankResult(0, 0, 0, 0)

    def test_partition_class_feeds_weight_one(self):
        # the lower image is the reduction of Z in direction a, which
        # vanishes, so nothing is quotiented away at level 1
        rr = cohomology_rank(1, 1, 1, Insertion(A, "z"),
                             window=(-3, 3), q_order=3)
        assert rr == RankResult(q=1, p=0, kernel_rank=0, image_rank=1)

    def test_combine_modes_agree_for_single_direction(self):
        a = cohomology_rank(1, 2, 1, Insertion(A, "w"),
                            window=(-3, 3), q_order=3,
                            combine="sum")
        b = cohomology_rank(1, 2, 1, Insertion(A, "w"),
                            window=(-3, 3), q_order=3,
                            combine="stack")
        assert a == b

    def test_family_modes(self):
        fam = [Insertion(A, "w"), Insertion(parse_state("2*a"), "w")]
        summed = cohomology_rank(1, 2, 1, fam, window=(-3, 3), q_order=3,
                                 combine="sum")
        stacked = cohomology_rank(1, 2, 1, fam, window=(-3, 3), q_order=3,
                                  combine="stack")
        # 2a + a insertions never cancel, and stacking two multiples
        # imposes the same conditions as one
        single = cohomology_rank(1, 2, 1, Insertion(A, "w"),
                                 window=(-3, 3), q_order=3)
        assert stacked == single
        assert summed.q == stacked.q
        with pytest.raises(ValueError, match="mixes state weights"):
            cohomology_rank(1, 2, 1,
                            [Insertion(A, "w"), Insertion(OMEGA, "w")])
        with pytest.raises(ValueError, match="combine"):
            cohomology_rank(1, 2, 1, Insertion(A, "w"), combine="direct")
        # rejected even where no column is built: an empty slice, and
        # a ladder with no coboundary
        with pytest.raises(ValueError, match="combine"):
            cohomology_rank(1, -1, 1, Insertion(A, "w"), combine="bogus")
        with pytest.raises(ValueError, match="combine"):
            euler_poincare(0, 0, 1, Insertion(A, "w"), combine="bogus")

    def test_one_elimination_per_coboundary(self, monkeypatch):
        # ranks and nullities come from one sparse rank elimination per
        # nonempty coboundary, and no kernel vectors are built for a
        # count
        calls = []
        sparse_rank = cohomology.rank

        def counted(columns):
            calls.append(len(columns))
            return sparse_rank(columns)

        monkeypatch.setattr(cohomology, "rank", counted)
        monkeypatch.setattr(cohomology, "kernel_basis", None)
        kw = dict(window=(-3, 3), q_order=3)
        cohomology_rank(2, 2, 1, Insertion(A, "w"), **kw)
        assert len(calls) == 2 and all(calls)
        calls.clear()
        # the level-0 slice at weight 2 is empty, so three coboundaries
        # take two eliminations (the empty one has no columns to rank)
        euler_poincare(2, 3, 1, Insertion(A, "w"), **kw)
        assert len(calls) == 3
        assert len([n for n in calls if n]) == 2

    def test_boundary_states_thread_through(self):
        # m=0 puts the vacuum at z1; the image <a, Y(a,w)Y(1,z1) 1> is
        # a nonzero constant, so the coboundary has full rank
        rr = cohomology_rank(1, 0, 0, Insertion(A, "w"), window=(-4, 4),
                             boundary=(A, VAC))
        assert rr.q == 1
        assert rr.image_rank == 1
        # with vacuum boundaries the same column pairs weight 1
        # against weight 0 and dies
        rr0 = cohomology_rank(1, 0, 0, Insertion(A, "w"), window=(-4, 4))
        assert rr0.image_rank == 0

    @pytest.mark.parametrize("genus", [0, 1])
    def test_rank_path_never_calls_the_oracle(self, genus, monkeypatch):
        # coboundaries act on insertion tuples: ranks, ledgers and
        # chain kernels come out the same with the brute-force oracle
        # made to raise
        kw = dict(window=(-3, 3), q_order=3)

        def run():
            return (cohomology_rank(2, 2, genus, Insertion(A, "w"), **kw),
                    euler_poincare(1, 2, genus, Insertion(A, "w"), **kw),
                    chain_condition_check(Insertion(A, "w2"),
                                          Insertion(A, "w1"),
                                          graded_slice(genus, 1, 2, **kw)
                                          ).kernel)

        def refuse(*args):
            raise AssertionError("the rank path called the oracle")

        expected = run()
        monkeypatch.setattr(cohomology, "direct", refuse)
        assert run() == expected


# -- Euler--Poincare ------------------------------------------------------


class TestEulerPoincare:
    @pytest.mark.parametrize("genus", [0, 1])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_alternating_sum_vanishes(self, genus, m, N):
        res = euler_poincare(m, N, genus, Insertion(A, "w"),
                             window=(-3, 3), q_order=3)
        assert res.total == 0

    def test_single_level_forces_q_equals_p(self):
        res = euler_poincare(2, 0, 1, Insertion(A, "w"),
                             window=(-3, 3), q_order=3)
        row = res.ledger[0]
        assert row["q"] == row["p"]
        assert res.total == 0

    def test_ledger_telescopes(self):
        res = euler_poincare(1, 3, 1, Insertion(A, "w"),
                             window=(-3, 3), q_order=3)
        rows = res.ledger
        assert rows[0]["image_in"] == 0
        assert rows[-1]["image_out"] == 0
        assert rows[-1]["kernel"] == rows[-1]["q"]
        for prev, cur in zip(rows, rows[1:]):
            assert cur["image_in"] == prev["image_out"]
        for row in rows:
            assert row["q"] - row["p"] == row["image_out"] + row["image_in"]
            assert row["q"] == row["kernel"] + row["image_out"]
        total = sum((-1) ** row["n"] * (row["q"] - row["p"]) for row in rows)
        assert total == res.total == 0

    def test_ladder_weights_follow_direction(self):
        res = euler_poincare(1, 2, 1, Insertion(OMEGA, "w"),
                             window=(-3, 3), q_order=3)
        assert [row["weight"] for row in res.ledger] == [1, 3, 5]

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            euler_poincare(1, -1, 1, Insertion(A, "w"))


# -- the chain property ---------------------------------------------------


# the vacuum direction at weight 0: the incoming image has rank 1 and
# the kernel is empty, so p would read -1 at the named level
NEGATIVE_P = [
    (lambda: cohomology_rank(1, 0, 0, Insertion(VAC, "w")), 1),
    (lambda: euler_poincare(0, 3, 0, Insertion(VAC, "w")), 1),
    (lambda: euler_poincare(0, 4, 1, Insertion(VAC, "w")), 1),
]


class TestNegativeDimension:
    @pytest.mark.parametrize("call,level", NEGATIVE_P,
                             ids=["rank-g0", "euler-g0", "euler-g1"])
    def test_negative_p_is_refused(self, call, level):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == (
            f"at level {level} the kernel 0 is smaller than the incoming "
            "image rank 1: the chain property fails there")

    def test_the_refusal_is_certain_on_every_window(self):
        # a larger window only shrinks the kernel and never lowers the
        # image rank, so a wider box refuses the same level
        for half in (2, 4, 6):
            with pytest.raises(ValueError, match="at level 1 the kernel 0"):
                cohomology_rank(1, 0, 0, Insertion(VAC, "w"),
                                window=(-half, half))

    def test_stacked_family_reports_its_p(self):
        # a stacked rank counts C_{n-1} -> C_n^k, so a p below zero is
        # no chain failure there and is reported as it comes
        rr = cohomology_rank(2, 2, 1, [Insertion(A2, "w"),
                                       Insertion(AA, "w")],
                             combine="stack")
        assert rr == RankResult(q=5, p=-1, kernel_rank=0, image_rank=5)


# -- cluster mutation -----------------------------------------------------


class TestClusterMutation:
    def test_xi_one_is_identity(self):
        seed = make_seed((A, OMEGA), 1, window=(-3, 3), q_order=2)
        out = cluster_mutate(seed, 1, 0)
        assert out.states == seed.states
        assert out.points == seed.points
        extra = [i.point for i in out.fn.insertions
                 if i.point not in seed.points]
        assert extra == ["w1"]
        stripped = out.fn.value.drop_zero_var("q_w1")
        assert stripped.c == seed.fn.value.extended_to(stripped.vars).c

    def test_double_mutation_componentwise(self):
        xi = {((1,),): -1, ((2,),): -1, ((1, 1),): 1}
        seed = make_seed((A, AA), 1, window=(-3, 3), q_order=2)
        once = cluster_mutate(seed, 1, 1, xi=xi)
        assert once.states[0] == -1 * A
        assert once.states[1] == AA
        twice = cluster_mutate(once, 1, 1, xi=xi)
        assert twice.states == seed.states
        assert twice.points == seed.points
        value = twice.fn.value.drop_zero_var("q_w2").drop_zero_var("q_w1")
        assert value.c == seed.fn.value.extended_to(value.vars).c

    def test_involution_on_random_seeds(self):
        rng = random.Random(402)
        weights = [s for w in range(4) for s in basis(w)]
        coeffs = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2),
                  Fraction(3, 7)]
        checked = 0
        for _ in range(55):
            genus = rng.choice([0, 1])
            n = rng.randint(1, 3)
            states = []
            for _ in range(n):
                terms = rng.sample(weights, rng.randint(1, 2))
                states.append(GradedVector(
                    {s: rng.choice(coeffs) for s in terms}))
            xi = {tuple(sorted(v.t)): rng.choice([1, -1]) for v in states}
            seed = make_seed(states, genus, window=(-2, 2), q_order=2)
            setting = ClusterSetting(seed, rng.randint(1, n),
                                     rng.randint(0, 2), xi)
            assert involution_check(setting)
            checked += 1
        assert checked >= 50

    def test_mutation_validates_inputs(self):
        seed = make_seed((A,), 1, window=(-2, 2), q_order=2)
        with pytest.raises(ValueError):
            cluster_mutate(seed, 0, 0)
        with pytest.raises(ValueError):
            cluster_mutate(seed, 2, 0)
        with pytest.raises(ValueError):
            cluster_mutate(seed, 1, -1)
        with pytest.raises(ValueError, match="square"):
            cluster_mutate(seed, 1, 0, xi={((1,),): 2})

    def test_xi_sign_lookup(self):
        assert xi_sign(None, A) == 1
        assert xi_sign({((1,),): -1}, A) == -1
        assert xi_sign({((1,),): -1}, -3 * A) == -1
        assert xi_sign({((1,),): -1}, OMEGA) == 1
        assert xi_sign({((1, 1),): -1}, OMEGA) == -1
