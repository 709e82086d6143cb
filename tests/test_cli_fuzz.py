"""Hypothesis fuzzing of the CLI grammar through ``parse_and_dispatch``.

Each example is one command line: a subcommand, its required flags,
some of its optional ones, and now and then a stray token.  A clean
line draws every value from a pool of well-formed ones, so that the
commands get past the grammar and run; any other line may draw
malformed values as well.  Whatever the line, the command must end
with exit code 0, 1 or 2 and no exception may escape.  The pools stay
small so that a command runs in milliseconds, and the flags that cost
most at their defaults (mode windows, orders, trial counts) are always
given.  ``golden`` and ``--output`` write files and are left out here;
``test_input_contract.TestHostileArgv`` runs them in a subprocess.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from voasurf.cli import parse_and_dispatch


def pool(valid, malformed):
    """The values of a flag: the valid ones on a clean line, all of
    them otherwise."""
    return lambda clean: st.sampled_from(valid if clean else
                                         valid + malformed)


ORDER = pool(["1", "2"], ["-1", "0", "x", ""])
SMALL = pool(["0", "1", "2"], ["-1", "y"])
GENUS = pool(["0", "1"], ["2", "g"])
STATE = pool(["a", "omega", "omegatilde", "vac", "a[-2]|1", "a[-1]^2|1",
              "1/2*a", "a - omega"], ["a[-0]|1", "1/0*a", "b", ""])
POINT = pool(["z1", "z2", "w"], ["", "@"])
COORDINATES = pool(["3,1", "3,1,-2,6", "5,2"], ["0,1", "1,1", "1/2,3", "x"])
BOUNDARY = pool(["a,a", "vac,vac", "a[-2]|1,a"], ["a", "b,a"])
CUTOFF = pool(["4"], ["1", "x"])


def insertion(clean):
    return st.builds("{}@{}".format, STATE(clean), POINT(clean))


def insertions(clean):
    return st.lists(insertion(clean), max_size=2).map(",".join)


# subcommand -> (flags always given, flags given at random); a flag
# maps to its value pool, or to None for a switch
COMMANDS = {
    ("elliptic", "eisenstein"): (
        {"--k": pool(["2", "4", "6"], ["1", "3", "0", "x", "99999"]),
         "--order": ORDER}, {}),
    ("elliptic", "pm"): (
        {"--m": pool(["1", "2", "3"], ["0", "x"]), "--zorder": ORDER,
         "--qorder": ORDER}, {}),
    ("npoint",): (
        {"--genus": GENUS, "--zorder": ORDER, "--qorder": ORDER},
        {"--insertions": insertions, "--oracle": None}),
    ("residual",): (
        {"--direction": insertion, "--zorder": ORDER, "--qorder": ORDER},
        {"--genus": GENUS, "--insertions": insertions}),
    ("genus2", "partition"): (
        {"--eps-order": ORDER, "--q1-order": ORDER, "--q2-order": ORDER},
        {"-N": pool(["4"], ["0", "2", "x"])}),
    ("genus2", "pweier"): (
        {"--p": SMALL, "--eps-order": ORDER, "--q1-order": ORDER,
         "--q2-order": ORDER},
        {"--j": SMALL, "--charts": pool(["1 2", "2 1", "2 2"], ["1 3", "1"]),
         "-N": CUTOFF}),
    ("schottky", "psi"): (
        {"--p": SMALL, "-g": GENUS, "--rho-order": ORDER},
        {"--coordinates": COORDINATES, "-N": CUTOFF}),
    ("schottky", "partition"): (
        {"-g": GENUS, "--weight-cutoff": ORDER},
        {"--coordinates": COORDINATES}),
    ("cohomology", "rank"): (
        {"-n": SMALL, "-m": SMALL, "--direction": insertion,
         "--window": ORDER, "--qorder": ORDER},
        {"--genus": GENUS, "--boundary": BOUNDARY}),
    ("cohomology", "euler"): (
        {"-m": SMALL, "-N": SMALL, "--window": ORDER, "--qorder": ORDER},
        {"--genus": GENUS, "--direction": insertion, "--boundary": BOUNDARY}),
    ("cluster", "check"): (
        {"--trials": ORDER}, {"--seed": SMALL, "--genus": GENUS}),
}

STRAY = st.sampled_from([[], [], [], ["--format", "csv"], ["--approx"],
                         ["--bogus"], ["-h"]])


@st.composite
def command_lines(draw):
    path = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[path]
    clean = draw(st.booleans())
    flags = sorted(always) + [f for f in sorted(optional)
                              if draw(st.booleans())]
    values = {**always, **optional}
    argv = list(path)
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if values[flag] is not None:
            argv.extend(draw(values[flag](clean)).split(" "))
    return argv + draw(STRAY)


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_exit_code_in_contract_and_nothing_escapes(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = parse_and_dispatch(argv)
    assert code in (0, 1, 2), argv
