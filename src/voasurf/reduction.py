"""Correlation functions on the sphere and the torus.

Two computation paths exist for each genus and they are kept
deliberately independent.  The *direct* functions enumerate mode
tuples against the definition (matrix elements on the sphere, graded
traces on the torus) and serve as brute-force oracles; ``direct`` picks
the one of a genus, as ``reduce_step`` picks the recursion.  The *reduce*
functions peel off one insertion at a time: the leftmost vertex
operator is split into a zero-mode part, boundary parts, and
commutator parts against the remaining insertions, and the resulting
shorter correlation functions are computed by the same recursion down
to the zero-insertion base case.  Equality of the two paths is an
acceptance invariant, not an assumption.

The genus-1 recursion is Zhu's, written in raw modes: both commutator
families (against the remaining insertions and against the front word
of zero modes) apply C(wt v - 1 - d, i) v(i) from the integral mode
table with the resummation 1/(1 - q^{-d}).  The identity
sum_m v[m] x^m/m! = sum_i C(wt v - 1 + x, i) v(i) at x = -d turns the
insertion family into Zhu's square-bracket v[m] P_{m+1} term.

A recursion node value is a plain {exponent tuple: coefficient} dict,
keyed in one variable order per reduce call: the sorted points at
genus 0, q and then the sorted q_z at genus 1, with exponent 0 for a
point outside the node's row.  Each node adds its shifted, scaled
siblings straight into one dict; at genus 1 it then expands each
1/(1 - q^{-d}) factor in place, up to q^q_order.  Node values carry no
window, since no horizon inside a recursion ever cuts a term (every
one is open but q's, which is q_order); the step builds its
``MultiSeries`` once, from the root values.

The genus-0 recursion carries its boundaries as sparse dicts: u, and
u' as its pairing functional phi(b) = <u', b>, pulled back through the
integral mode table.  No step divides, so with integral boundaries
both recursions sum ints from their int leaves (a pairing at genus 0,
a trace count at genus 1) up; a rational boundary coefficient stays an
exact Fraction.  The reduce steps hand out what ``series.rat`` makes
of each sum: an int where it is integral, else a Fraction.  The oracles
add each coefficient straight into one dict (at genus 0 through the
bilinear form, at genus 1 coefficient times the int trace count of a
word) and share no summation code with the recursions.

Both recursions skip what the automorphism theta: a -> -a kills.  It
acts on a basis state s by (-1)^len(s) and commutes with every mode, so
a node whose parts have odd total length is zero.  Every mode-table
step keeps a boundary's parity uniform and the total unchanged.  At
genus 1 there is no boundary, so only a root can be odd, and
``genus1_reduce`` checks each root's row once, before the recursion.
At genus 0 each node checks its row and the one parity of each
boundary's states, so an odd root costs one call; a boundary of mixed
parity (1 + a, say) leaves the total open and that node is not pruned.
The oracles do not use the rule, so every comparison with them still
checks it.

Conventions:

* Insertion lists are ordered outermost first.  At genus 0 the value
  is the expansion in |z_1| > |z_2| > ... > |z_n|; a reduction step
  prepends its fresh point, which becomes the new outermost variable.
* Genus-1 values live in the variables q_{z_i} = e^{z_i} (named
  ``q_<point>``) and q, with the overall q^{-c/24} prefactor kept as
  an exact exponent tag on the result, never as a series.
* Windows are viewing boxes.  One (lo, hi) pair bounds the exponent
  of every point variable alike, so all n-point functions of a
  reduction chain are compared on one common box; a reduction step
  gives its fresh point the same pair.  Correlation functions are
  honest Laurent series whose support is usually infinite in several
  directions; values are exact on the requested box and silently cut
  outside it.  The exceptions are the directions that are finite for
  intrinsic weight reasons: with a single sphere insertion the whole
  support is finite and must fit in the box, and with several the
  outermost variable is bounded above and the innermost below.  A cut
  on those sides raises WindowError instead of losing data quietly
  (detection on the innermost side probes a two-exponent margin band
  below the box).
* Sibling calls inside the recursions run on inflated boxes so that
  kernel shifts cannot drag unseen terms into the requested box.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add
from typing import NamedTuple

from .series import MultiSeries, TruncatedSeries, rat
from .voa import (
    CENTRAL_CHARGE,
    GradedVector,
    _norm,
    _rows_of,
    basis,
    bilinear_form,
    gbinom,
    render_state,
    vacuum,
    weight,
)

_MARGIN = 2


class WindowError(ValueError):
    """A requested window cuts into an intrinsically finite direction."""


class Insertion(NamedTuple):
    """A state attached to a point symbol."""

    state: GradedVector
    point: str

    def __str__(self) -> str:
        return f"{render_state(self.state)}@{self.point}"


class ReductionDirection(NamedTuple):
    """The fresh insertion x_{n+1} along which a reduction step runs."""

    insertion: Insertion


class CorrelationFn(NamedTuple):
    """An n-point function together with the data that determines it.

    ``value`` is exact on the box where every point variable's exponent
    lies in the one pair ``window`` = (lo, hi).  At genus 0
    ``boundary_states`` holds (u', u).  ``q_shift`` is the exact
    exponent of the q-prefactor, fixed by the genus.

    A coboundary source carries ``value=None``: no reduction step reads
    a value, since each rebuilds its image from the insertions, window,
    boundary and q-order alone.
    """

    genus: int
    insertions: tuple
    value: MultiSeries
    window: tuple
    boundary_states: tuple = None
    q_order: int = None
    degenerate_steps: tuple = ()

    @property
    def q_shift(self):
        """0 at genus 0, -c/24 at genus 1."""
        return Fraction(-CENTRAL_CHARGE, 24) if self.genus == 1 else 0

    def is_zero(self) -> bool:
        return self.value.is_zero()


def point_var(genus: int, point: str) -> str:
    return point if genus == 0 else "q_" + point


def window_pair(window) -> tuple:
    """The viewing window as an (lo, hi) pair of ints; an inverted pair
    (lo > hi) would show an empty box and is refused."""
    try:
        lo, hi = map(int, window)
    except (TypeError, ValueError):
        raise ValueError(
            f"a window is one (lo, hi) pair, got {window!r}") from None
    if lo > hi:
        raise ValueError(f"inverted window ({lo}, {hi}): need lo <= hi")
    return lo, hi


def _basis_expansions(insertions):
    """Multilinear expansion over the Fock basis: yields pairs
    (coefficient, tuple of (basis_state, point)), each coefficient a
    product kept an int where it is integral."""
    combos = [(1, ())]
    for ins in insertions:
        nxt = []
        for coef, row in combos:
            for s, c in ins.state.t.items():
                nxt.append((rat(coef * c), row + ((s, ins.point),)))
        combos = nxt
    return combos


def _check_distinct(insertions):
    points = [ins.point for ins in insertions]
    if len(set(points)) != len(points):
        raise ValueError(f"point symbols must be pairwise distinct: {points}")


def _sub_window(window, rest, extra=None) -> dict:
    """The window of a sibling call on the insertion row ``rest``, with
    ``extra`` overriding some points' pairs."""
    return {p: window[p] for _, p in rest} | (extra or {})


def _add_shifted(acc: dict, sib: dict, pos, terms) -> None:
    """Add scale * sib, its exponents moved by {var: shift}, into the
    node dict ``acc`` for each (shifts, scale) of ``terms``, with
    ``pos`` placing each variable in the keys: term after term, each in
    sib's key order.  A key that cancels keeps its 0 until the node
    drops the zeros; sib itself, often memoized, is only read."""
    for shifts, scale in terms:
        offs = [0] * len(pos)
        for v, k in shifts.items():
            offs[pos[v]] = k
        for key, val in sib.items():
            key = tuple(map(add, key, offs))
            val = val * scale
            s = acc.get(key)
            acc[key] = val if s is None else s + val


def _apply_basis_mode(s: tuple, k: int, vec: dict) -> dict:
    """The mode s(k) of a basis state s on a sparse {state: coeff}
    vector, read off the integral mode table."""
    out = {}
    rows = _rows_of(s)
    for vs, vc in vec.items():
        for ts, tc in rows(s, k, vs):
            out[ts] = out.get(ts, 0) + vc * tc
    return {ts: c for ts, c in out.items() if c}


def _theta_odd(parts, *boundaries) -> bool:
    """Whether a -> -a kills a recursion node (see the module
    docstring): whether the states of ``parts``, (state, _) pairs, and
    of each sparse {state: coefficient} boundary have odd total length.
    A boundary counts by the one parity of its states; one of mixed
    parity leaves the total open, and the node is kept."""
    total = sum(len(s) for s, _ in parts)
    for b in boundaries:
        parity = {len(s) % 2 for s in b}
        if len(parity) != 1:
            return False
        total += parity.pop()
    return total % 2 == 1


# -- genus 0: brute-force oracle ----------------------------------------


def genus0_direct(insertions, uprime: GradedVector, u: GradedVector,
                  window) -> CorrelationFn:
    """<u', Y(v_1, z_1) ... Y(v_n, z_n) u> expanded in |z_1| > ... > |z_n|.

    Pure mode-tuple enumeration: z_i carries exponent -k_i - 1 from
    the single mode v_i(k_i), so every box coefficient is one finite
    sum.  With one insertion the support is forced by the weights and
    is enumerated in full; otherwise the box is inflated by the margin
    while enumerating and the sentinel slices feed the window check.
    """
    insertions = tuple(insertions)
    _check_distinct(insertions)
    window = window_pair(window)
    lo, hi = window

    acc = {}
    # keys in the sorted order of the point symbols, which
    # _assemble_genus0 takes
    order = sorted(range(len(insertions)), key=lambda i: insertions[i].point)
    wts_uprime = set(uprime.weights())
    wts_u = u.weights()
    for coef, row in _basis_expansions(insertions):
        n = len(row)
        if n == 1 and wts_uprime and wts_u:
            # single mode: exponent = wt u' - wt v - wt u, a finite set
            wv = weight(row[0][0])
            exp_lo = min(wts_uprime) - wv - max(wts_u)
            exp_hi = max(wts_uprime) - wv - min(wts_u)
            ranges = [range(exp_lo, exp_hi + 1)]
        else:
            ranges = [range(lo - _MARGIN, hi + _MARGIN + 1)] * n
        lo_shift = [r[0] + weight(s) for r, (s, _) in zip(ranges, row)]
        hi_shift = [r[-1] + weight(s) for r, (s, _) in zip(ranges, row)]
        pre_lo = [0] * (n + 1)
        pre_hi = [0] * (n + 1)
        for i in range(n):
            pre_lo[i + 1] = pre_lo[i] + lo_shift[i]
            pre_hi[i + 1] = pre_hi[i] + hi_shift[i]

        def rec(i, vec, exps):
            if not vec:
                return
            if i < 0:
                val = coef * bilinear_form(uprime, GradedVector(vec))
                if val:
                    key = tuple([exps[j] for j in order])
                    acc[key] = acc.get(key, 0) + val
                return
            s, _ = row[i]
            wts_vec = {weight(t) for t in vec}
            for exp in ranges[i]:
                shift = exp + weight(s)
                # slots 0..i-1 must still reach a weight of u'
                ok = False
                for wvec in wts_vec:
                    t = wvec + shift
                    if t < 0:
                        continue
                    if any(pre_lo[i] <= w - t <= pre_hi[i]
                           for w in wts_uprime):
                        ok = True
                        break
                if not ok:
                    continue
                nxt = _apply_basis_mode(s, -exp - 1, vec)
                rec(i - 1, nxt, [exp] + exps)

        rec(n - 1, u.t, [])
    # rec's closure holds rec itself; unbinding it frees what the closure
    # captured on return, not at the next cyclic garbage collection
    rec = None

    return _assemble_genus0(insertions, acc, window, uprime, u)


def _assemble_genus0(insertions, acc, window, uprime, u):
    """Window-check the accumulated coefficients and build the result.

    ``acc`` keys its exponent tuples in the sorted order of the point
    symbols, the variable order of the value; the series constructor
    keeps an integral coefficient an int.

    Raises WindowError when nonzero data falls on an intrinsically
    finite side: anywhere outside the box for a single insertion,
    above the box for the outermost variable, or in the margin band
    just below the box for the innermost one.
    """
    points = [ins.point for ins in insertions]
    var_order = sorted(points)
    head = var_order.index(points[0]) if points else None
    tail = var_order.index(points[-1]) if points else None
    strict = len(points) == 1
    lo, hi = window

    coeffs = {}
    for key, val in acc.items():
        if val == 0:
            continue
        if not all(lo <= e <= hi for e in key):
            if strict:
                raise WindowError(
                    f"window too small: support at {dict(zip(points, key))}")
            if key[head] > hi:
                raise WindowError(f"window too small: {points[0]} needs "
                                  f"exponent {key[head]}")
            if lo - _MARGIN <= key[tail] < lo:
                raise WindowError(f"window too small: {points[-1]} needs "
                                  f"exponent {key[tail]}")
            continue
        coeffs[key] = val
    value = MultiSeries(tuple(var_order), dict.fromkeys(var_order, window),
                        coeffs)
    return CorrelationFn(
        genus=0, insertions=insertions, value=value, window=window,
        boundary_states=(uprime, u))


# -- genus 0: the reduction recursion -----------------------------------


def _pull_back(s: tuple, k: int, phi: dict) -> dict:
    """The pairing functional b -> phi(s(k) b) of a sparse functional
    {state: phi(state)}, read off the integral mode table.  s(k) maps
    weight wt b to wt b + wt s - k - 1, so b runs over the weights that
    land on phi's support."""
    out = {}
    rows = _rows_of(s)
    for w in {weight(t) for t in phi}:
        for b in basis(w - weight(s) + k + 1):
            c = sum(tc * phi.get(ts, 0) for ts, tc in rows(s, k, b))
            if c:
                out[b] = c
    return out


def _g0_value(row, phi, u, window, memo, pos) -> dict:
    """The recursion on basis-state insertion rows, as a node dict keyed
    in the point order ``pos`` (see the module docstring).

    The boundaries are sparse {state: coefficient} dicts: u itself, and
    u' as its pairing functional phi(b) = <u', b>, which the orthogonal
    round basis makes c'_b <b, b>.  Both hold ints unless a boundary
    coefficient is rational, so on integral boundaries no step divides.

    The head operator Y(v, z) = sum_j v(j) z^{-j-1} is split three
    ways: modes carried to u (j >= 0, finitely many by annihilation),
    modes carried to u' (j < 0, finitely many by the weight of u'; phi
    is pulled back through v(j)), and the commutators picked up while
    passing each remaining insertion, which resum against the kernel
    sum_{j >= m} C(j, m) z^{-j-1} z_k^{j-m}.  Only the kernel tail is
    infinite; it is cut by the window of z, and the partner variable's
    box is inflated downward so the shifts stay exact on the box.
    """
    if not phi or not u:
        return {}
    if not row:
        val = sum(c * phi.get(s, 0) for s, c in u.items())
        return {(0,) * len(pos): val} if val else {}
    if _theta_odd(row, phi, u):
        return {}
    key = (row, tuple(sorted(phi.items())), tuple(sorted(u.items())),
           tuple(sorted(window.items())))
    if key in memo:
        return memo[key]

    (vs, z), rest = row[0], row[1:]
    wv = weight(vs)
    v_rows = _rows_of(vs)
    lo_z, _ = window[z]
    sub = _sub_window(window, rest)
    acc = {}

    # v(j) carried through to u, j >= 0
    for j in range(0, wv + max(map(weight, u))):
        nxt = _apply_basis_mode(vs, j, u)
        if nxt:
            _add_shifted(acc, _g0_value(rest, phi, nxt, sub, memo, pos),
                         pos, [({z: -j - 1}, 1)])

    # v(j) carried through to u', j < 0
    for j in range(-1, wv - max(map(weight, phi)) - 2, -1):
        pulled = _pull_back(vs, j, phi)
        if pulled:
            _add_shifted(acc, _g0_value(rest, pulled, u, sub, memo, pos),
                         pos, [({z: -j - 1}, 1)])

    # commutators against each remaining insertion, each sibling summed
    # over the kernel tail j = m..jmax
    jmax = -lo_z - 1
    for k, (ws, zk) in enumerate(rest):
        for m in range(0, min(wv + weight(ws), jmax + 1)):
            repl = v_rows(vs, m, ws)
            if not repl:
                continue
            lo_k, hi_k = window[zk]
            wk = _sub_window(window, rest, {zk: (lo_k - (jmax - m), hi_k)})
            for bs, bc in repl:
                sib_row = rest[:k] + ((bs, zk),) + rest[k + 1:]
                sib = _g0_value(sib_row, phi, u, wk, memo, pos)
                if sib:
                    _add_shifted(acc, sib, pos, [
                        ({zk: j - m, z: -j - 1}, bc * comb(j, m))
                        for j in range(m, jmax + 1)])

    out = {k: c for k, c in acc.items() if c}
    memo[key] = out
    return out


def genus0_reduce(direction: ReductionDirection,
                  F: CorrelationFn) -> CorrelationFn:
    """One reduction step at genus 0: prepend the fresh insertion and
    rebuild the value by the recursion (never from F.value, which the
    recursion must reproduce on its own)."""
    if F.genus != 0:
        raise ValueError("genus0_reduce needs a genus-0 correlation function")
    ins = direction.insertion
    insertions = (ins,) + F.insertions
    _check_distinct(insertions)
    uprime, u = F.boundary_states
    phi = {s: rat(c * _norm(s)) for s, c in uprime.t.items()}
    # widen the innermost variable so the margin band below the box is
    # exact and usable by the window check
    inner = {i.point: F.window for i in insertions}
    if len(insertions) > 1:
        lo, hi = F.window
        inner[insertions[-1].point] = (lo - _MARGIN, hi)

    # node keys order the exponents as the sorted point symbols, which
    # _assemble_genus0 takes
    pos = {p: i for i, p in enumerate(sorted(inner))}
    acc = {}
    memo = {}
    for coef, row in _basis_expansions(insertions):
        val = _g0_value(row, phi, u.t, {p: inner[p] for _, p in row}, memo,
                        pos)
        _add_shifted(acc, val, pos, [({}, coef)])

    return _assemble_genus0(insertions, acc, F.window, uprime, u)


# -- genus 1: brute-force oracle ----------------------------------------


def _front_shift(word) -> int:
    return sum(weight(s) - k - 1 for s, k in word)


def _trace_counts(word, q_order: int) -> dict:
    """{m: Tr_{V_m}(word)} as ints for the levels m <= q_order where it
    is nonzero: the word acts inside each weight space when its total
    shift vanishes, so each level is an exact finite trace over the
    integral mode table.

    Tr_{V_m}(AB) = Tr_{V_m'}(BA), so the word is first turned cyclically
    to start (act first) where its intermediate weight is lowest, at
    m + low.  A level with m + low < 0 is zero without any work, and
    every other level starts from its smallest weight space.  The word
    acts on a whole level at once, as one block {(origin, state): int}
    that starts as the identity on V_{m + low}; the last mode only reads
    the diagonal, so its block is never built."""
    if not word:
        return {m: len(basis(m)) for m in range(0, q_order + 1)}
    acting = word[::-1]
    low = start = shift = 0
    for i, (s, k) in enumerate(acting):
        shift += weight(s) - k - 1
        if shift < low:
            low, start = shift, i + 1
    if shift:
        return {}
    *modes, (last_rows, s_last, k_last) = [
        (_rows_of(s), s, k) for s, k in acting[start:] + acting[:start]]
    counts = {}
    for m in range(max(0, -low), q_order + 1):
        block = {(b, b): 1 for b in basis(m + low)}
        for rows, s, k in modes:
            nxt = {}
            for (o, st), c in block.items():
                for ts, tc in rows(s, k, st):
                    key = (o, ts)
                    nxt[key] = nxt.get(key, 0) + c * tc
            block = nxt
            if not block:
                break
        t = 0
        for (o, st), c in block.items():
            for ts, tc in last_rows(s_last, k_last, st):
                if ts == o:
                    t += c * tc
                    break
        if t:
            counts[m] = t
    return counts


def genus1_direct(insertions, q_order: int, window) -> CorrelationFn:
    """Tr_V(Y(q_1^{L(0)} v_1, q_1) ... q^{L(0) - c/24}) in the
    variables q_{z_i} and q, by enumerating exponent tuples in the box.

    The grading forces the exponents to sum to zero, so each box
    coefficient is one finite trace; every cut is a viewing cut and no
    sentinel applies.
    """
    insertions = tuple(insertions)
    _check_distinct(insertions)
    points = [ins.point for ins in insertions]
    window = window_pair(window)
    lo, hi = window
    q_order = int(q_order)

    var_order = sorted(point_var(1, p) for p in points)
    all_vars = tuple(sorted(var_order + ["q"]))
    qpos = all_vars.index("q")
    coeffs = {}
    traces = {}
    for coef, row in _basis_expansions(insertions):

        def rec(i, exps, shift):
            if i == len(row):
                if shift != 0:
                    return
                word = tuple((s, weight(s) - e - 1)
                             for (s, _), e in zip(row, exps))
                if word not in traces:
                    traces[word] = _trace_counts(word, q_order)
                keyed = dict(zip([point_var(1, p) for _, p in row], exps))
                key = tuple(keyed[v] for v in var_order)
                for m, t in traces[word].items():
                    k = key[:qpos] + (m,) + key[qpos:]
                    coeffs[k] = coeffs.get(k, 0) + coef * t
                return
            rest = len(row) - i - 1
            for e in range(lo, hi + 1):
                if rest * lo <= -(shift + e) <= rest * hi:
                    rec(i + 1, exps + [e], shift + e)

        rec(0, [], 0)
    rec = None  # the self-reference, as in genus0_direct

    value = MultiSeries(all_vars, _genus1_box(var_order, window, q_order),
                        coeffs)
    return CorrelationFn(genus=1, insertions=insertions, value=value,
                         window=window, q_order=q_order)


def _genus1_box(var_order, window, q_order) -> dict:
    """The series window of a genus-1 value: ``window`` on every q_z
    variable and (0, q_order) on q."""
    return {**dict.fromkeys(var_order, window), "q": (0, q_order)}


# -- genus 1: the reduction recursion -----------------------------------


@lru_cache(maxsize=None)
def _zhu_binomials(wv: int, i: int, lo: int, hi: int) -> tuple:
    """The pairs (d, C(wv - 1 - d, i)) for d != 0 in [lo, hi] whose
    binomial is nonzero."""
    pairs = ((d, gbinom(wv - 1 - d, i)) for d in range(lo, hi + 1) if d)
    return tuple((d, c) for d, c in pairs if c)


def _g1_value(front, row, window, q_order, memo, pos) -> dict:
    """Trace recursion on (front word, dressed insertion row), as a
    node dict keyed in the variable order ``pos``: q first, then the
    sorted q_z (see the module docstring).

    The head mode v(wt v - 1 - d) at q_z-exponent d is cycled around
    the trace; the factor 1/(1 - q^{-d}) resums the cycling for d != 0
    and the d = 0 mode o(v) joins the front word.  Its commutator with
    a dressed insertion w or a front factor is sum_i C(K, i) v(i)w,
    K = wt v - 1 - d, read off the integral mode table; a dressed one
    also moves q_k^{-d} onto w's point.  Summed over d this is Zhu's
    sum_m v[m]w P_{m+1}(z_k - z) term, by
    sum_m v[m] x^m/m! = sum_i C(wt v - 1 + x, i) v(i) at x = -d and
    P_{m+1}(u) = ((-1)^{m+1}/m!) sum_{n != 0} n^m q_u^n / (1 - q^n)
    at n = -d.
    """
    key = (front, row, tuple(sorted(window.items())), q_order)
    if key in memo:
        return memo[key]
    if not row:
        zeros = (0,) * (len(pos) - 1)
        out = {(m,) + zeros: c
               for m, c in _trace_counts(front, q_order).items()}
        memo[key] = out
        return out

    # grading: the insertion exponents must be able to cancel the
    # front word's weight shift
    fshift = _front_shift(front)
    lo_sum = sum(window[p][0] for _, p in row)
    hi_sum = sum(window[p][1] for _, p in row)
    if not lo_sum <= -fshift <= hi_sum:
        memo[key] = {}
        return {}

    (vs, z), rest = row[0], row[1:]
    wv = weight(vs)
    v_rows = _rows_of(vs)
    qz = point_var(1, z)
    lo_z, hi_z = window[z]
    sub = _sub_window(window, rest)

    # d = 0: o(v) becomes the newest front factor; the sum starts from a
    # copy of its value, which the memo holds
    acc = dict(_g1_value(((vs, wv - 1),) + front, rest, sub, q_order, memo,
                         pos))
    # the commutator terms of each d, summed before 1/(1 - q^{-d})
    # expands them
    by_d = {}

    # commutators with each remaining insertion: the sibling carries
    # v(i)w at z_k on a box inflated by the largest shift
    shift_max = max(-lo_z, hi_z, 0)
    for k, (ws, zk) in enumerate(rest):
        qk = point_var(1, zk)
        lo_k, hi_k = window[zk]
        wk = _sub_window(window, rest,
                         {zk: (lo_k - shift_max, hi_k + shift_max)})
        for i in range(0, wv + weight(ws)):
            for bs, bc in v_rows(vs, i, ws):
                sib_row = rest[:k] + ((bs, zk),) + rest[k + 1:]
                sib = _g1_value(front, sib_row, wk, q_order, memo, pos)
                if not sib:
                    continue
                for d, c in _zhu_binomials(wv, i, lo_z, hi_z):
                    _add_shifted(by_d.setdefault(d, {}), sib, pos,
                                 [({qz: d, qk: -d}, c * bc)])

    # commutators with the front word
    for t, (fs, fk) in enumerate(front):
        for i in range(0, wv + weight(fs)):
            repl = v_rows(vs, i, fs)
            if not repl:
                continue
            for d, c in _zhu_binomials(wv, i, lo_z, hi_z):
                mode = wv - 1 - d + fk - i
                for bs, bc in repl:
                    nf = front[:t] + ((bs, mode),) + front[t + 1:]
                    sib = _g1_value(nf, rest, sub, q_order, memo, pos)
                    if sib:
                        _add_shifted(by_d.setdefault(d, {}), sib, pos,
                                     [({qz: d}, c * bc)])

    _expand_geometric(acc, by_d, q_order)
    out = {k: c for k, c in acc.items() if c}
    memo[key] = out
    return out


def _expand_geometric(acc: dict, by_d: dict, q_order: int) -> None:
    """Add each node dict of ``by_d`` = {d: dict}, d != 0, times
    1/(1 - q^{-d}) into ``acc``, up to q^q_order, with q the first
    exponent of every key: a coefficient x at q^e adds -x at q^{e+d},
    q^{e+2d}, ... for d > 0 and +x at q^e, q^{e-d}, ... for d < 0."""
    for d, terms in by_d.items():
        first, step = (d, d) if d > 0 else (0, -d)
        for key, val in terms.items():
            if not val:
                continue
            if d > 0:
                val = -val
            tail = key[1:]
            for e in range(key[0] + first, q_order + 1, step):
                k = (e,) + tail
                s = acc.get(k)
                acc[k] = val if s is None else s + val


def genus1_reduce(direction: ReductionDirection,
                  F: CorrelationFn) -> CorrelationFn:
    """One reduction step at genus 1; the fresh point goes outermost."""
    if F.genus != 1:
        raise ValueError("genus1_reduce needs a genus-1 correlation function")
    ins = direction.insertion
    insertions = (ins,) + F.insertions
    _check_distinct(insertions)
    q_order = F.q_order
    lo, hi = F.window

    # q sorts before every q_z, so the node keys are in the value's order
    var_order = sorted(point_var(1, i.point) for i in insertions)
    pos = {v: i for i, v in enumerate(["q"] + var_order)}
    acc = {}
    memo = {}
    for coef, row in _basis_expansions(insertions):
        # every step keeps the parity of the root, so only a root can be odd
        if _theta_odd(row):
            continue
        val = _g1_value((), row, {p: F.window for _, p in row}, q_order,
                        memo, pos)
        _add_shifted(acc, val, pos, [({}, coef)])

    # the recursion reaches q_z exponents outside the box; cut them
    coeffs = acc
    for i in range(1, len(pos)):
        coeffs = {k: c for k, c in coeffs.items() if lo <= k[i] <= hi}
    value = MultiSeries(["q"] + var_order,
                        _genus1_box(var_order, F.window, q_order), coeffs)
    return CorrelationFn(genus=1, insertions=insertions, value=value,
                         window=F.window, q_order=q_order)


# -- partition functions, residuals, unwinding ---------------------------


def genus1_onepoint(v: GradedVector, q_order: int) -> MultiSeries:
    """Tr(o(v) q^{L(0)}) in q (no c/24 tag), traced over the Fock basis:
    the oracle of ``elliptic.onepoint_hafnian``, which the sewing sums
    use.  No library code calls it; the benchmark tracer names it."""
    q_order = int(q_order)
    coeffs = {}
    for s, c in v.t.items():
        for m, t in _trace_counts(((s, weight(s) - 1),), q_order).items():
            coeffs[m] = coeffs.get(m, 0) + c * t
    return TruncatedSeries("q", 0, q_order, coeffs)


_GENUS_ERROR = "unwinding is defined at genus 0 and 1"


def direct(genus: int, insertions, window, q_order) -> CorrelationFn:
    """The brute-force value of the insertions by genus: between vacua
    at genus 0 (``genus0_direct`` takes other boundary states), and
    traced to q_order at genus 1."""
    if genus == 0:
        return genus0_direct(insertions, vacuum(), vacuum(), window)
    if genus == 1:
        return genus1_direct(insertions, q_order, window)
    raise ValueError(_GENUS_ERROR)


def reduce_step(direction: ReductionDirection,
                F: CorrelationFn) -> CorrelationFn:
    """One reduction step, by the recursion of F's genus."""
    if F.genus == 0:
        return genus0_reduce(direction, F)
    if F.genus == 1:
        return genus1_reduce(direction, F)
    raise ValueError(_GENUS_ERROR)


def cocycle_residual(direction: ReductionDirection,
                     F: CorrelationFn) -> MultiSeries:
    """H(x_{n+1}) F: identically zero on the box iff F is a cocycle in
    this direction."""
    return reduce_step(direction, F).value


def unwind_to_partition(directions, genus: int, *, window=(-8, 8),
                        q_order: int = 6) -> CorrelationFn:
    """Apply reduction steps in order starting from the partition
    function (the zero-insertion oracle value), flagging every step
    whose output is identically zero on the box (a degenerate
    direction)."""
    F = direct(genus, (), window, q_order)
    degenerate = []
    for i, d in enumerate(directions):
        F = reduce_step(d, F)
        if F.is_zero():
            degenerate.append(i)
    return F._replace(degenerate_steps=tuple(degenerate))
