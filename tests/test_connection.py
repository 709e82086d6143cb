"""n-point functions as flat sections of the L(-1) connection.

For the Heisenberg algebra an n-point function is a flat section of the
connection that moves an insertion point:

* genus 0, between vacua: d/dz_i F(..., u_i, ...) = F(..., L(-1)u_i, ...);
* genus 1, with insertions Y(q_z^{L(0)} u, q_z):
  q_{z_i} d/dq_{z_i} F = F(..., (L(0) + L(-1))u_i, ...).

Between vacua at genus 0, L(0) and L(1) annihilate both ends, which
gives two Ward identities over all the slots at once:

* sum_i z_i d/dz_i F + sum_i F(..., L(0)u_i, ...) = 0;
* sum_i z_i^2 d/dz_i F + 2 sum_i z_i F(..., L(0)u_i, ...)
  + sum_i F(..., L(1)u_i, ...) = 0.

Each identity is checked on the brute-force oracle (``direct``) and on
the reduction recursion unwound from the partition function, for every
ordered pair of a small state set at two points, for a few triples at
three points, and for every slot.  d/dz lowers exponents by one, so at
genus 0 the two sides are compared on exponents lo ... hi - 1 of the
moved point; q_z d/dq_z keeps exponents, so at genus 1 they are compared
on the whole box.  Multiplying by z_i raises them by one, so the L(1)
identity is compared where every exponent is in lo + 1 ... hi.
"""

from itertools import product

import pytest

from voasurf.reduction import (Insertion, direct, point_var,
                               unwind_to_partition)
from voasurf.voa import parse_state, virasoro

WINDOW = (-5, 5)
Q_ORDER = 4
STATES = tuple(parse_state(s) for s in (
    "a", "a[-2]|1", "a[-1]^2|1", "omega", "a[-3]|1")) \
    + (parse_state("1") + parse_state("a"),)
A, A2, AA, OMEGA, A3, ONE_A = STATES
# every ordered pair at two points, and triples at three that mix odd
# and even, single and composite states
TUPLES = tuple(product(STATES, repeat=2)) + (
    (A, A, AA), (A, A2, OMEGA), (OMEGA, A, A), (A3, AA, A), (ONE_A, A, A2),
    (AA, AA, OMEGA), (A2, A3, AA))


def _oracle(genus, insertions):
    return direct(genus, insertions, WINDOW, Q_ORDER).value


def _recursion(genus, insertions):
    return unwind_to_partition(tuple(reversed(insertions)), genus,
                               window=WINDOW, q_order=Q_ORDER).value


def _moved(genus, u):
    """The state whose insertion is the derivative of u's."""
    if genus == 0:
        return virasoro(-1, u)
    return virasoro(0, u) + virasoro(-1, u)


def _derivative(genus, value, i):
    """The coefficients of d/dz (genus 0) or q_z d/dq_z (genus 1) of
    ``value`` in its variable at position ``i``, on the compared box."""
    lo = WINDOW[0]
    out = {}
    for key, c in value.c.items():
        e = key[i] - 1 if genus == 0 else key[i]
        if key[i] and e >= lo:
            out[key[:i] + (e,) + key[i + 1:]] = key[i] * c
    return out


def _compared(genus, value, i):
    """The coefficients of ``value`` on the compared box."""
    hi = WINDOW[1]
    return {key: c for key, c in value.c.items()
            if genus == 1 or key[i] < hi}


def _insertions(states) -> tuple:
    return tuple(Insertion(u, f"z{i}") for i, u in enumerate(states, 1))


@pytest.mark.parametrize("genus", [0, 1])
@pytest.mark.parametrize("producer", [_oracle, _recursion],
                         ids=["oracle", "recursion"])
def test_npoint_functions_are_flat_sections(genus, producer):
    failures, nonzero = [], 0
    for states in TUPLES:
        insertions = _insertions(states)
        value = producer(genus, insertions)
        for slot, ins in enumerate(insertions):
            moved = insertions[:slot] + (
                ins._replace(state=_moved(genus, ins.state)),) \
                + insertions[slot + 1:]
            i = value.vars.index(point_var(genus, ins.point))
            lhs = _derivative(genus, value, i)
            rhs = _compared(genus, producer(genus, moved), i)
            nonzero += bool(lhs or rhs)
            if lhs != rhs:
                failures.append((tuple(map(str, insertions)), slot))
    assert not failures, failures
    assert nonzero


def _replaced(producer, insertions, slot, n):
    """F with L(n) acting on the state in ``slot``, or {} when it kills
    that state."""
    u = virasoro(n, insertions[slot].state)
    if u.is_zero():
        return {}
    moved = insertions[:slot] + (insertions[slot]._replace(state=u),) \
        + insertions[slot + 1:]
    return producer(0, moved).c


@pytest.mark.parametrize("producer", [_oracle, _recursion],
                         ids=["oracle", "recursion"])
def test_ward_identities_between_vacua(producer):
    lo, hi = WINDOW
    failures, nonzero = [], 0
    for states in TUPLES:
        insertions = _insertions(states)
        value = producer(0, insertions)
        n = len(insertions)
        # F and its L(0)-, L(1)-moved copies, in value's variable order
        slots = [value.vars.index(ins.point) for ins in insertions]
        l0 = [_replaced(producer, insertions, s, 0) for s in range(n)]
        l1 = [_replaced(producer, insertions, s, 1) for s in range(n)]
        keys = set(value.c).union(*l0, *l1)
        keys |= {k[:i] + (k[i] + 1,) + k[i + 1:] for k in keys
                 for i in slots}
        for key in keys:
            if not all(lo <= e <= hi for e in key):
                continue
            ward0 = sum(key[i] * value.c.get(key, 0) + l0[s].get(key, 0)
                        for s, i in enumerate(slots))
            ward1 = 0
            if all(e > lo for e in key):
                for s, i in enumerate(slots):
                    down = key[:i] + (key[i] - 1,) + key[i + 1:]
                    ward1 += ((key[i] - 1) * value.c.get(down, 0)
                              + 2 * l0[s].get(down, 0) + l1[s].get(key, 0))
            nonzero += bool(value.c.get(key))
            if ward0 or ward1:
                failures.append((tuple(map(str, insertions)), key))
    assert not failures, failures[:5]
    assert nonzero
