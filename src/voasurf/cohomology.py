"""Reduction cohomology as exact linear algebra on graded slices.

The coboundary at level n is the reduction step in a chosen direction
x_{n+1} = (state, fresh point): it sends the correlation function of
an n-tuple of insertions to the (n+1)-point function with the fresh
insertion prepended.  Since the step acts on insertion *tuples* (two
tuples with the same value need not reduce to the same value), the
chain space at level n and weight m is the free vector space on the
canonical tuples of total weight m, and q_{n,m} counts those tuples.
A source is therefore a tuple, not a value: the rank path runs tuples
-> recursion images -> sparse columns -> exact integer elimination,
and never evaluates the brute-force oracle.  A column is the
coefficient dict of one reduction step's value, keyed by its exponent
tuples: every step on one slice prepends the same anchored fresh point
to the same points on the same window and q-order, so the images share
one sorted variable tuple and store no zero.  The ranks and the
chain-condition kernel come out of one sparse integer elimination.

All dimension claims are certified within the window only.  A kernel
vector says "the image vanishes on every monomial we can see"; a
non-kernel vector is refuted outright.  Growing the window can only
shrink a reported kernel, never grow it.

The direction of the coboundary is the one parameter the theory
leaves open.  Every operation here takes it explicitly, as one
``Insertion``: the fresh state at its point.  The step is linear in
that state, so a sum of directions at one point is the one direction
whose state is their sum.  ``build_coboundary`` is the one place that
turns a slice into coboundary columns; the ranks and the Euler ledger
read theirs off the matrices it returns.  A p below zero is refused:
the chain property fails there on every window.  Simultaneous
conditions in several directions are the columns of one
``build_coboundary`` per direction, their keys tagged by the
direction, joined under one ``linalg.rank``.
"""

from typing import NamedTuple

from .linalg import kernel_basis, rank
from .reduction import (
    CorrelationFn,
    Insertion,
    direct,
    point_var,
    reduce_step,
    window_pair,
)
from .series import rat
from .voa import GradedVector, basis, vacuum

DEFAULT_WINDOW = (-4, 4)
DEFAULT_Q_ORDER = 4


def canonical_points(n: int) -> tuple:
    return tuple(f"z{i}" for i in range(1, n + 1))


def weighted_tuples(n: int, m: int) -> tuple:
    """All n-tuples of Fock basis states with total weight m, in the
    lexicographic order induced by the per-weight basis order."""
    if m < 0:
        return ()
    if n == 0:
        return ((),) if m == 0 else ()
    out = []
    for w in range(m + 1):
        for s in basis(w):
            for rest in weighted_tuples(n - 1, m - w):
                out.append((s,) + rest)
    return tuple(out)


def direction_weight(direction: Insertion) -> int:
    if not isinstance(direction, Insertion):
        raise TypeError(
            f"a direction is an Insertion, got {type(direction).__name__}")
    state = direction.state
    if state.is_zero():
        raise ValueError("direction state must be nonzero")
    if not state.is_homogeneous():
        raise ValueError("direction state must be homogeneous to target "
                         "a single weight slice")
    return state.weights()[0]


class GradedSlice(NamedTuple):
    """The weight-m slice of the level-n chain space.

    ``basis`` is the canonical tuple list at ``points``, and ``blank``
    the value-free CorrelationFn with no insertions that carries the
    rest of what a reduction step reads: genus, window, the boundary
    states at genus 0 (vacuum by default) and the q-order at genus 1.
    """

    points: tuple
    basis: tuple
    blank: CorrelationFn


def graded_slice(genus: int, n: int, m: int, *, window=DEFAULT_WINDOW,
                 q_order=None, boundary=None) -> GradedSlice:
    if genus not in (0, 1):
        raise ValueError("graded slices exist at genus 0 and 1")
    n, m = int(n), int(m)
    if n < 0:
        raise ValueError("level n must be >= 0")
    window = window_pair(window)
    if genus == 1 and q_order is None:
        q_order = DEFAULT_Q_ORDER
    elif q_order is not None:
        q_order = int(q_order)
    if genus == 0:
        boundary = (vacuum(), vacuum()) if boundary is None \
            else tuple(boundary)
        if len(boundary) != 2:
            raise ValueError("the genus-0 boundary is two states "
                             f"(u', u), got {len(boundary)}")
    elif boundary is not None:
        raise ValueError("boundary states exist only at genus 0")
    return GradedSlice(canonical_points(n), weighted_tuples(n, m),
                       CorrelationFn(genus, (), None, window, boundary,
                                     q_order))


def sources(src: GradedSlice):
    """One value-free CorrelationFn per basis tuple, built as it is
    read: the slice's blank with the tuple's insertions, and no oracle
    value."""
    for states in src.basis:
        yield src.blank._replace(insertions=tuple(
            Insertion(GradedVector.basis_state(s), p)
            for s, p in zip(states, src.points)))


def _check_fresh(direction: Insertion, points) -> None:
    if direction.point in points:
        raise ValueError(f"direction point {direction.point!r} "
                         "collides with a slice point")


class CoboundaryMatrix(NamedTuple):
    """The reduction step in one direction on a slice, one column per
    basis tuple.

    Columns are the coefficient dicts of the reduction images, and
    ``rank`` is their rank, eliminated on them directly.
    """

    columns: list
    rank: int

    @property
    def kernel_dim(self) -> int:
        return len(self.columns) - self.rank


def build_coboundary(direction: Insertion,
                     src: GradedSlice) -> CoboundaryMatrix:
    """The matrix of the reduction step on a graded slice.

    The sources are the slice's value-free tuples, so no oracle runs
    and no source-side window check applies.  Exact on the slice's
    window; window problems inside the reduction (an intrinsically
    finite direction that does not fit the target box) propagate as
    WindowError rather than being absorbed.
    """
    direction_weight(direction)
    _check_fresh(direction, src.points)
    columns = [reduce_step(direction, fn).value.c for fn in sources(src)]
    return CoboundaryMatrix(columns, rank(columns))


class ChainReport(NamedTuple):
    """Kernel of a double reduction step on a slice.

    ``kernel`` spans the combinations of basis tuples whose double
    image vanishes on the window, as primitive int vectors aligned with
    the basis: the certified part of the degenerate set at this level.
    Vectors outside it are refuted; vanishing beyond the window is
    never asserted.
    """

    columns: list
    kernel: tuple

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def chain_condition_check(dir2, dir1, src: GradedSlice) -> ChainReport:
    """Compose two reduction steps on a slice and report the kernel.

    The composite acts on chain elements, so a first step that lands
    on the zero function annihilates outright: the second step is not
    rebuilt from the insertion tuple of something that is no longer
    there.  Zero is judged on the window, in line with every other
    claim this module makes.
    """
    direction_weight(dir1)
    direction_weight(dir2)
    _check_fresh(dir1, src.points)
    _check_fresh(dir2, src.points + (dir1.point,))
    columns = []
    for fn in sources(src):
        g = reduce_step(dir1, fn)
        columns.append({} if g.is_zero()
                       else dict(reduce_step(dir2, g).value.c))
    kernel = tuple(kernel_basis(columns))
    return ChainReport(columns, kernel)


def _cohomology_dim(n: int, kernel: int, image_in: int) -> int:
    """p at level n.  p < 0 means the incoming image does not fit in
    the kernel, on any window, since the kernel only shrinks and the
    image rank never falls."""
    if kernel < image_in:
        raise ValueError(f"at level {n} the kernel {kernel} is smaller than "
                         f"the incoming image rank {image_in}: the chain "
                         "property fails there")
    return kernel - image_in


class RankResult(NamedTuple):
    """q = tuple count of the slice, p = ker(delta_n) - rank(delta_{n-1}),
    kernel_rank and image_rank those of delta_n on the slice, so that
    q = kernel_rank + image_rank always."""

    q: int
    p: int
    kernel_rank: int
    image_rank: int


def cohomology_rank(n: int, m: int, genus: int, direction: Insertion, *,
                    window=DEFAULT_WINDOW, q_order=None,
                    boundary=None) -> RankResult:
    """Rank data of the reduction complex at level n, weight m.

    The level-(n-1) slice feeding the image sits at weight m minus the
    direction weight, so its coboundary lands exactly on this slice.  All
    four numbers are certified within the window: a larger window can
    move p, never q.
    """
    w = direction_weight(direction)
    kw = dict(window=window, q_order=q_order, boundary=boundary)
    up = build_coboundary(direction, graded_slice(genus, n, m, **kw))
    im_below = 0
    if n > 0:
        below = graded_slice(genus, n - 1, m - w, **kw)
        im_below = build_coboundary(direction, below).rank
    return RankResult(q=len(up.columns),
                      p=_cohomology_dim(n, up.kernel_dim, im_below),
                      kernel_rank=up.kernel_dim, image_rank=up.rank)


class EulerResult(NamedTuple):
    total: int
    ledger: tuple


def euler_poincare(m: int, N: int, genus: int, direction: Insertion, *,
                   window=DEFAULT_WINDOW, q_order=None,
                   boundary=None) -> EulerResult:
    """Alternating sum of q_{n} - p_{n} over the ladder 0..N.

    The ladder anchors weight m at level 0 and climbs by the direction
    weight per level so consecutive coboundaries actually compose.  At
    the top the image into level N+1 is declared zero, closing the
    telescope; the returned total is then forced to vanish by rank
    plus nullity at every level, and computing it from the actual
    matrices is the regression.
    """
    w = direction_weight(direction)
    kw = dict(window=window, q_order=q_order, boundary=boundary)
    N = int(N)
    if N < 0:
        raise ValueError("N must be >= 0")
    # a slice's refusals do not depend on its level, so level 0 makes
    # them all; no coboundary leaves the top level, so check its points
    level = graded_slice(genus, 0, m, **kw)
    _check_fresh(direction, canonical_points(N))
    ranks = []  # (q, image out); no slice or column outlives its level
    for k in range(N + 1):
        if k:
            level = graded_slice(genus, k, m + k * w, **kw)
        # the image into level N+1 is declared 0
        im = build_coboundary(direction, level).rank if k < N else 0
        ranks.append((len(level.basis), im))
    ledger = []
    total = 0
    im_below = 0
    for k, (q, im) in enumerate(ranks):
        ker = q - im
        p = _cohomology_dim(k, ker, im_below)
        term = (-1) ** k * (q - p)
        total += term
        ledger.append({"n": k, "weight": m + k * w, "q": q, "p": p,
                       "kernel": ker, "image_out": im,
                       "image_in": im_below, "term": term})
        im_below = im
    return EulerResult(total=total, ledger=tuple(ledger))


# -- cluster mutation (vacuum-direction setting) --------------------------


class ClusterSeed(NamedTuple):
    """A seed (states, marked points, correlation function).

    The operator tuple of the abstract seed is determined by the
    states and points, so it is not stored twice.
    """

    states: tuple
    points: tuple
    fn: CorrelationFn


def make_seed(states, genus: int, *, window=DEFAULT_WINDOW,
              q_order=None) -> ClusterSeed:
    states = tuple(states)
    points = canonical_points(len(states))
    if genus == 1 and q_order is None:
        q_order = DEFAULT_Q_ORDER
    ins = tuple(Insertion(v, p) for v, p in zip(states, points))
    return ClusterSeed(states, points, direct(genus, ins, window, q_order))


def _support(v: GradedVector) -> tuple:
    return tuple(sorted(v.t))


def xi_sign(xi, v: GradedVector):
    """Look up the sign for a state.  ``xi`` may be None (all +1) or a
    dict keyed by state support.  Signs attach to the support so that
    flipping a state does not flip its sign; that is what makes the
    double mutation close up."""
    s = rat(1 if xi is None else xi.get(_support(v), 1))
    if s * s != 1:
        raise ValueError(f"xi sign must square to 1, got {s}")
    return s


def _fresh_point(used) -> str:
    i = 1
    while f"w{i}" in used:
        i += 1
    return f"w{i}"


def cluster_mutate(seed: ClusterSeed, direction: int, m: int, *,
                   xi=None) -> ClusterSeed:
    """Mutate a seed in slot ``direction`` (1-based) with mode index m.

    Vacuum-direction setting: the fresh state is the vacuum, whose
    modes u(m), m >= 0, annihilate everything, so the slot action
    collapses to the sign xi times the identity and the function
    mutates by the reduction step in the vacuum direction, which just
    adjoins a variable the function does not depend on.
    """
    k = int(direction)
    if not 1 <= k <= len(seed.states):
        raise ValueError(f"mutation direction {k} outside 1..{len(seed.states)}")
    if int(m) < 0:
        raise ValueError("mode index m must be >= 0")
    states = list(seed.states)
    states[k - 1] = xi_sign(xi, states[k - 1]) * states[k - 1]
    used = {ins.point for ins in seed.fn.insertions} | set(seed.points)
    fn = reduce_step(Insertion(vacuum(), _fresh_point(used)), seed.fn)
    return ClusterSeed(tuple(states), seed.points, fn)


def _strip_constant_vars(fn: CorrelationFn, keep_points) -> "MultiSeries":
    value = fn.value
    for ins in fn.insertions:
        if ins.point not in keep_points:
            value = value.drop_zero_var(point_var(fn.genus, ins.point))
    return value


class ClusterSetting(NamedTuple):
    seed: ClusterSeed
    direction: int
    m: int
    xi: object = None


def involution_check(setting: ClusterSetting) -> bool:
    """Apply the mutation twice and compare with the original seed
    componentwise.  The function components are compared after the
    two adjoined constant variables are dropped, which is the
    identification the inclusion provides."""
    seed = setting.seed
    once = cluster_mutate(seed, setting.direction, setting.m, xi=setting.xi)
    twice = cluster_mutate(once, setting.direction, setting.m, xi=setting.xi)
    if twice.points != seed.points:
        return False
    if len(twice.states) != len(seed.states):
        return False
    if any(a != b for a, b in zip(twice.states, seed.states)):
        return False
    stripped = _strip_constant_vars(twice.fn, set(seed.points))
    base = seed.fn.value.extended_to(stripped.vars)
    return stripped.c == base.c
