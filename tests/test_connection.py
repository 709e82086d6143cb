"""n-point functions as flat sections of the L(-1) connection.

For the Heisenberg algebra an n-point function is a flat section of the
connection that moves an insertion point:

* genus 0, between vacua: d/dz_i F(..., u_i, ...) = F(..., L(-1)u_i, ...);
* genus 1, with insertions Y(q_z^{L(0)} u, q_z):
  q_{z_i} d/dq_{z_i} F = F(..., (L(0) + L(-1))u_i, ...).

Each identity is checked on the brute-force oracle (``direct``) and on
the reduction recursion unwound from the partition function, for every
ordered pair of a small state set at two points and for every slot.
d/dz lowers exponents by one, so at genus 0 the two sides are compared
on exponents lo ... hi - 1 of the moved point; q_z d/dq_z keeps
exponents, so at genus 1 they are compared on the whole box.
"""

from itertools import product

import pytest

from voasurf.reduction import (Insertion, direct, point_var,
                               unwind_to_partition)
from voasurf.voa import parse_state, virasoro

WINDOW = (-5, 5)
Q_ORDER = 4
POINTS = ("z1", "z2")
STATES = tuple(parse_state(s) for s in (
    "a", "a[-2]|1", "a[-1]^2|1", "omega", "a[-3]|1")) \
    + (parse_state("1") + parse_state("a"),)


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


@pytest.mark.parametrize("genus", [0, 1])
@pytest.mark.parametrize("producer", [_oracle, _recursion],
                         ids=["oracle", "recursion"])
def test_npoint_functions_are_flat_sections(genus, producer):
    failures, nonzero = [], 0
    for states in product(STATES, repeat=len(POINTS)):
        insertions = tuple(map(Insertion, states, POINTS))
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
