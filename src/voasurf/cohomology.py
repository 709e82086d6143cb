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
and never evaluates the brute-force oracle.  Columns are vectorized
images on a fixed monomial window, and the ranks and the
chain-condition kernel come out of one sparse integer elimination.

All dimension claims are certified within the window only.  A kernel
vector says "the image vanishes on every monomial we can see"; a
non-kernel vector is refuted outright.  Growing the window can only
shrink a reported kernel, never grow it.

The direction of the coboundary is the one parameter the theory
leaves open.  Every operation here takes it explicitly, either as a
single direction or as a finite family, and a family can enter as the
sum of its per-direction matrices (one operator, the convention the
cluster construction uses) or stacked (simultaneous conditions, one
block row per direction).  ``build_coboundary`` is the one place that
turns a slice into coboundary columns; the ranks and the Euler ledger
read theirs off the matrices it returns.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .linalg import kernel_basis, rank
from .reduction import (
    CorrelationFn,
    Insertion,
    ReductionDirection,
    genus0_direct,
    genus1_direct,
    point_var,
    reduce_step,
    window_pair,
)
from .voa import GradedVector, basis, render_state, vacuum

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


def as_direction(d, default_point: str = "w") -> ReductionDirection:
    """Coerce a state, (state, point) pair or insertion to a direction."""
    if isinstance(d, ReductionDirection):
        return d
    if isinstance(d, Insertion):
        return ReductionDirection(d)
    if isinstance(d, GradedVector):
        return ReductionDirection(Insertion(d, default_point))
    state, point = d
    return ReductionDirection(Insertion(state, str(point)))


def direction_weight(direction: ReductionDirection) -> int:
    state = direction.insertion.state
    if state.is_zero():
        raise ValueError("direction state must be nonzero")
    if not state.is_homogeneous():
        raise ValueError("direction state must be homogeneous to target "
                         "a single weight slice")
    return state.weights()[0]


def _direction_family(family, combine: str):
    """Normalize to a nonempty tuple of directions sharing one fresh
    point symbol (the first member's) and one state weight; ``combine``
    must name how the family acts, 'sum' or 'stack'."""
    if combine not in ("sum", "stack"):
        raise ValueError("combine must be 'sum' or 'stack'")
    if isinstance(family, (ReductionDirection, Insertion, GradedVector)):
        family = [family]
    elif isinstance(family, tuple) and len(family) == 2 and \
            isinstance(family[0], GradedVector):
        family = [family]
    dirs = [as_direction(d) for d in family]
    if not dirs:
        raise ValueError("empty direction family")
    anchor = dirs[0].insertion.point
    dirs = [d if d.insertion.point == anchor else
            ReductionDirection(Insertion(d.insertion.state, anchor))
            for d in dirs]
    ws = {direction_weight(d) for d in dirs}
    if len(ws) > 1:
        raise ValueError(f"direction family mixes state weights {sorted(ws)}")
    return tuple(dirs), ws.pop()


def describe_direction(direction: ReductionDirection) -> str:
    return str(direction.insertion)


class GradedSlice:
    """The weight-m slice of the level-n chain space.

    ``basis`` is the canonical tuple list and ``sources`` the matching
    value-free coboundary sources; ``build`` evaluates the brute-force
    oracle of a tuple, which only checks and seeds ever need.  Genus 0
    carries boundary states, vacuum by default; genus 1 carries the
    q-order.
    """

    def __init__(self, genus: int, n: int, m: int, *, points=None,
                 window=DEFAULT_WINDOW, q_order=None, boundary=None):
        if genus not in (0, 1):
            raise ValueError("graded slices exist at genus 0 and 1")
        self.genus = genus
        self.n = int(n)
        self.m = int(m)
        if self.n < 0:
            raise ValueError("level n must be >= 0")
        self.points = canonical_points(self.n) if points is None \
            else tuple(points)
        if len(self.points) != self.n:
            raise ValueError("need one point symbol per insertion")
        self.window = window_pair(window)
        self.q_order = DEFAULT_Q_ORDER if genus == 1 and q_order is None \
            else (int(q_order) if q_order is not None else None)
        if genus == 0:
            self.boundary = (vacuum(), vacuum()) if boundary is None \
                else tuple(boundary)
            if len(self.boundary) != 2:
                raise ValueError("the genus-0 boundary is two states "
                                 f"(u', u), got {len(self.boundary)}")
        elif boundary is not None:
            raise ValueError("boundary states exist only at genus 0")
        else:
            self.boundary = None

    @cached_property
    def basis(self) -> tuple:
        return weighted_tuples(self.n, self.m)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def insertions(self, states) -> tuple:
        return tuple(Insertion(GradedVector.basis_state(s), p)
                     for s, p in zip(states, self.points))

    def sources(self):
        """One value-free CorrelationFn per basis tuple: what a
        reduction step reads (insertions, window, boundary, q-order)
        and no oracle value."""
        for states in self.basis:
            yield CorrelationFn(self.genus, self.insertions(states), None,
                                self.window, self.boundary, self.q_order)

    def build(self, insertions) -> CorrelationFn:
        """The correlation function of an explicit insertion tuple on
        this slice's window (the tuple need not come from ``basis``)."""
        if self.genus == 0:
            return genus0_direct(insertions, *self.boundary, self.window)
        return genus1_direct(insertions, self.q_order, self.window)

    @cached_property
    def var_order(self) -> tuple:
        vs = [point_var(self.genus, p) for p in self.points]
        if self.genus == 1:
            vs.append("q")
        return tuple(sorted(vs))

    def vectorize(self, fn: CorrelationFn) -> dict:
        """Exact coefficient vector of a correlation function on this
        slice's monomial window, keyed by exponent tuples aligned with
        ``var_order``.  Injective on what the window shows; equality
        of vectors is equality of the functions on the window, nothing
        more."""
        if fn.genus != self.genus:
            raise ValueError("genus mismatch in vectorization")
        if {i.point for i in fn.insertions} != set(self.points):
            raise ValueError("inconsistent windows: point sets differ")
        if fn.window != self.window:
            raise ValueError(f"inconsistent windows: {fn.window} vs "
                             f"{self.window}")
        if self.genus == 1 and fn.q_order != self.q_order:
            raise ValueError("inconsistent windows: q-order differs")
        ext = fn.value.extended_to(self.var_order)
        if ext.vars != self.var_order:
            raise ValueError(f"unexpected variables {ext.vars}")
        return {k: v for k, v in ext.c.items() if v}

    def describe(self) -> dict:
        out = {"genus": self.genus, "n": self.n, "m": self.m,
               "points": list(self.points), "window": list(self.window)}
        if self.genus == 1:
            out["q_order"] = self.q_order
        else:
            out["boundary"] = [render_state(v) for v in self.boundary]
        return out


def _check_fresh(direction: ReductionDirection, points) -> None:
    if direction.insertion.point in points:
        raise ValueError(f"direction point {direction.insertion.point!r} "
                         "collides with a slice point")


@dataclass
class CoboundaryMatrix:
    """The reduction step of a direction family on a slice, one column
    per basis tuple.

    Columns are sparse monomial vectors on the target slice's window
    (keys tagged by the member index when the family is stacked), and
    ``rank`` eliminates on them directly.
    """

    source: GradedSlice
    columns: list

    @cached_property
    def rank(self) -> int:
        return rank(self.columns)

    @property
    def kernel_dim(self) -> int:
        return len(self.columns) - self.rank


def target_slice(direction: ReductionDirection,
                 src: GradedSlice) -> GradedSlice:
    return GradedSlice(src.genus, src.n + 1,
                       src.m + direction_weight(direction),
                       points=(direction.insertion.point,) + src.points,
                       window=src.window, q_order=src.q_order,
                       boundary=src.boundary)


def build_coboundary(direction_family, src: GradedSlice,
                     combine="sum") -> CoboundaryMatrix:
    """The matrix of the reduction step on a graded slice.

    A single direction or a family; the family acts as the entrywise
    sum of its members' images (one operator) or stacked, one block of
    rows per member with keys tagged by the member index.  Members
    share the anchored point and weight, hence one target slice.
    The sources are the slice's value-free tuples, so no oracle runs
    and no source-side window check applies.  Exact on the target
    slice's window; window problems inside the reduction (an
    intrinsically finite direction that does not fit the target box)
    propagate as WindowError rather than being absorbed.
    """
    family, _ = _direction_family(direction_family, combine)
    _check_fresh(family[0], src.points)
    tgt = target_slice(family[0], src)
    columns = []
    for fn in src.sources():
        images = [tgt.vectorize(reduce_step(d, fn)) for d in family]
        if combine == "stack":
            columns.append({(i,) + k: v for i, image in enumerate(images)
                            for k, v in image.items()})
            continue
        acc = {}
        for image in images:
            for k, v in image.items():
                acc[k] = acc.get(k, 0) + v
        columns.append({k: v for k, v in acc.items() if v})
    return CoboundaryMatrix(src, columns)


@dataclass
class ChainReport:
    """Kernel of a double reduction step on a slice.

    ``kernel`` spans the combinations of basis tuples whose double
    image vanishes on the window, as primitive int vectors aligned with
    the basis: the certified part of the degenerate set at this level.
    Vectors outside it are refuted; vanishing beyond the window is
    never asserted.
    """

    dir1: ReductionDirection
    dir2: ReductionDirection
    source: GradedSlice
    columns: list
    kernel: tuple

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    @property
    def refuted_dim(self) -> int:
        return self.source.dim - self.kernel_dim

    def describe(self) -> dict:
        return {
            "dir1": describe_direction(self.dir1),
            "dir2": describe_direction(self.dir2),
            "source": self.source.describe(),
            "q": self.source.dim,
            "kernel_dim": self.kernel_dim,
            "refuted_dim": self.refuted_dim,
            "kernel": [[str(x) for x in vec] for vec in self.kernel],
            "certified": "within window",
        }


def chain_condition_check(dir2, dir1, src: GradedSlice) -> ChainReport:
    """Compose two reduction steps on a slice and report the kernel.

    The composite acts on chain elements, so a first step that lands
    on the zero function annihilates outright: the second step is not
    rebuilt from the insertion tuple of something that is no longer
    there.  Zero is judged on the window, in line with every other
    claim this module makes.
    """
    dir1 = as_direction(dir1, default_point="w1")
    dir2 = as_direction(dir2, default_point="w2")
    _check_fresh(dir1, src.points)
    _check_fresh(dir2, src.points + (dir1.insertion.point,))
    mid = target_slice(dir1, src)
    tgt = target_slice(dir2, mid)
    columns = []
    for fn in src.sources():
        g = reduce_step(dir1, fn)
        columns.append({} if g.is_zero()
                       else tgt.vectorize(reduce_step(dir2, g)))
    kernel = tuple(kernel_basis(columns))
    return ChainReport(dir1, dir2, src, columns, kernel)


class RankResult(NamedTuple):
    """q = tuple count of the slice, p = ker(delta_n) - rank(delta_{n-1}),
    kernel_rank and image_rank those of delta_n on the slice, so that
    q = kernel_rank + image_rank always."""

    q: int
    p: int
    kernel_rank: int
    image_rank: int


def cohomology_rank(n: int, m: int, genus: int, direction_family, *,
                    window=DEFAULT_WINDOW, q_order=None, boundary=None,
                    combine="sum") -> RankResult:
    """Rank data of the reduction complex at level n, weight m.

    The level-(n-1) slice feeding the image sits at weight m minus the
    family weight, so its coboundary lands exactly on this slice.  All
    four numbers are certified within the window: a larger window can
    move p, never q.
    """
    family, w = _direction_family(direction_family, combine)
    kw = dict(window=window, q_order=q_order, boundary=boundary)
    up = build_coboundary(family, GradedSlice(genus, n, m, **kw), combine)
    im_below = 0
    if n > 0:
        below = GradedSlice(genus, n - 1, m - w, **kw)
        im_below = build_coboundary(family, below, combine).rank
    return RankResult(q=up.source.dim, p=up.kernel_dim - im_below,
                      kernel_rank=up.kernel_dim, image_rank=up.rank)


class EulerResult(NamedTuple):
    total: int
    ledger: tuple


def euler_poincare(m: int, N: int, genus: int, direction_family, *,
                   window=DEFAULT_WINDOW, q_order=None, boundary=None,
                   combine="sum") -> EulerResult:
    """Alternating sum of q_{n} - p_{n} over the ladder 0..N.

    The ladder anchors weight m at level 0 and climbs by the family
    weight per level so consecutive coboundaries actually compose.  At
    the top the image into level N+1 is declared zero, closing the
    telescope; the returned total is then forced to vanish by rank
    plus nullity at every level, and computing it from the actual
    matrices is the regression.
    """
    family, w = _direction_family(direction_family, combine)
    kw = dict(window=window, q_order=q_order, boundary=boundary)
    N = int(N)
    if N < 0:
        raise ValueError("N must be >= 0")
    levels = [GradedSlice(genus, k, m + k * w, **kw) for k in range(N + 1)]
    # no coboundary leaves the top level, so check its points here
    _check_fresh(family[0], levels[-1].points)
    ranks = []
    for k in range(N):
        cb = build_coboundary(family, levels[k], combine)
        ranks.append((cb.rank, cb.kernel_dim))
    ranks.append((0, levels[N].dim))  # image into level N+1 := 0
    ledger = []
    total = 0
    im_below = 0
    for k in range(N + 1):
        im, ker = ranks[k]
        q = levels[k].dim
        p = ker - im_below
        term = (-1) ** k * (q - p)
        total += term
        ledger.append({"n": k, "weight": levels[k].m, "q": q, "p": p,
                       "kernel": ker, "image_out": im,
                       "image_in": im_below, "term": term})
        im_below = im
    return EulerResult(total=total, ledger=tuple(ledger))


# -- cluster mutation (vacuum-direction setting) --------------------------


@dataclass
class ClusterSeed:
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
    src = GradedSlice(genus, len(states), 0, points=canonical_points(
        len(states)), window=window, q_order=q_order)
    ins = tuple(Insertion(v, p) for v, p in zip(states, src.points))
    return ClusterSeed(states, src.points, src.build(ins))


def _support(v: GradedVector) -> tuple:
    return tuple(sorted(v.t))


def xi_sign(xi, v: GradedVector) -> Fraction:
    """Look up the sign for a state.  ``xi`` may be None (all +1) or a
    dict keyed by state support.  Signs attach to the support so that
    flipping a state does not flip its sign; that is what makes the
    double mutation close up."""
    s = Fraction(1 if xi is None else xi.get(_support(v), 1))
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
    d = ReductionDirection(Insertion(vacuum(), _fresh_point(used)))
    fn = reduce_step(d, seed.fn)
    return ClusterSeed(tuple(states), seed.points, fn)


def _strip_constant_vars(fn: CorrelationFn, keep_points) -> "MultiSeries":
    value = fn.value
    for ins in fn.insertions:
        if ins.point not in keep_points:
            value = value.drop_zero_var(point_var(fn.genus, ins.point))
    return value


@dataclass
class ClusterSetting:
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
