"""Inputs that must be refused with a message, never a traceback.

The CLI runs in a subprocess here, so an exception escaping
``parse_and_dispatch`` shows up as a traceback on stderr.
"""

import os
import subprocess
import sys

import pytest

from voasurf.cohomology import cohomology_rank, euler_poincare
from voasurf.schottky import SchottkyData
from voasurf.voa import generator, parse_state

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "voasurf.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


class TestStateLiterals:
    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_state("1/0*a[-1]|1")

    @pytest.mark.parametrize("text", ["a[-0]|1", "a[-00]^2|1",
                                      "a[-1]a[-0]|1", "a[-2]|1 + a[-0]|1"])
    def test_non_creation_modes_rejected(self, text):
        with pytest.raises(ValueError, match="not a creation mode"):
            parse_state(text)

    def test_creation_modes_still_parse(self):
        assert parse_state("a[-10]a[-1]^2|1").t == {(10, 1, 1): 1}

    @pytest.mark.parametrize("literal,message", [
        ("1/0*a@z1", "zero denominator"),
        ("a[-0]|1@z1", "not a creation mode"),
    ])
    def test_cli_refuses_without_traceback(self, literal, message):
        proc = run_cli("npoint", "--genus", "0", "--insertions", literal)
        # a malformed state literal is a flag grammar error, as for any
        # other unparsable --insertions value
        assert proc.returncode == 2
        assert "error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestIntegerFlags:
    @pytest.mark.parametrize("argv,message", [
        (("elliptic", "eisenstein", "--k", "abc"),
         "argument --k: must be a positive integer"),
        (("cohomology", "euler", "-m", "x", "-N", "1"),
         "argument -m: must be a non-negative integer"),
    ], ids=["positive", "nonneg"])
    def test_non_integer_is_a_grammar_error(self, argv, message):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert message in proc.stderr
        # the parser's private type names stay out of the message
        assert "_int" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestSchottkyCoordinates:
    @pytest.mark.parametrize("coords", [(0, 1), (3, 1, 0, 2), ("0/5", 2)])
    def test_zero_coordinate_rejected(self, coords):
        with pytest.raises(ValueError, match="nonzero"):
            SchottkyData(len(coords) // 2, coords, 1, 2)

    def test_cli_zero_coordinate_is_domain_error(self):
        proc = run_cli("schottky", "psi", "--p", "1", "--rho-order", "2",
                       "-g", "2", "--coordinates", "0,1,2,3")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "nonzero" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBoundaryStates:
    """A genus-0 slice takes exactly two boundary states (u', u); a
    genus-1 slice takes none."""

    @pytest.mark.parametrize("count", [1, 3])
    def test_genus0_needs_two_states(self, count):
        boundary = (generator(),) * count
        with pytest.raises(ValueError, match="two states"):
            cohomology_rank(1, 1, 0, (generator(), "w"), boundary=boundary)
        with pytest.raises(ValueError, match="two states"):
            euler_poincare(1, 1, 0, (generator(), "w"), boundary=boundary)

    def test_genus1_refuses_a_boundary(self):
        with pytest.raises(ValueError, match="only at genus 0"):
            cohomology_rank(1, 1, 1, (generator(), "w"),
                            boundary=(generator(), generator()))

    @pytest.mark.parametrize("argv", [
        ("euler", "-m", "1", "-N", "1", "--genus", "0", "--boundary", "a"),
        ("euler", "-m", "1", "-N", "1", "--genus", "0",
         "--boundary", "a,a,a"),
        ("rank", "-n", "1", "-m", "1", "--genus", "0", "--boundary", "a",
         "--direction", "a@w"),
        ("rank", "-n", "1", "-m", "1", "--genus", "1", "--boundary", "a,a",
         "--direction", "a@w"),
    ], ids=["euler_one", "euler_three", "rank_one", "rank_genus1"])
    def test_cli_refuses_without_traceback(self, argv):
        proc = run_cli("cohomology", *argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "boundary" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
