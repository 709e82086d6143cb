"""Inputs that must be refused with a message, never a traceback.

The CLI runs in a subprocess here, so an exception escaping
``parse_and_dispatch`` shows up as a traceback on stderr.
"""

import os
import subprocess
import sys
import time

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

    @pytest.mark.parametrize("text", ["a[-1]^1001|1",
                                      "a[-2]^600a[-1]^401|1",
                                      "a + a[-1]^99999999999|1"])
    def test_mode_count_over_the_limit_refused(self, text):
        with pytest.raises(ValueError, match="more than 1000 modes"):
            parse_state(text)

    def test_mode_count_at_the_limit_parses(self):
        assert parse_state("a[-2]^600a[-1]^400|1").t == \
            {(2,) * 600 + (1,) * 400: 1}

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


class TestEisensteinBudget:
    def test_index_over_budget_is_refused(self):
        proc = run_cli("elliptic", "eisenstein", "--k", "2002",
                       "--order", "1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "--k is 2002, over the index budget 2000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_help_states_the_budget(self):
        proc = run_cli("elliptic", "eisenstein", "--help")
        assert proc.returncode == 0
        assert "at most 2000" in proc.stdout


# Hostile command lines, the file-writing ones among them, each pointed
# into the test's own directory: "file" is a regular file there.
HOSTILE_ARGV = {
    "no_arguments": [],
    "unknown_group": ["bogus", "--format", "xml"],
    "golden_check_missing_dir": ["golden", "--check", "--dir", "{tmp}/none"],
    "golden_dir_is_a_file": ["golden", "--dir", "{tmp}/file"],
    "output_in_missing_dir": ["elliptic", "eisenstein", "--k", "2",
                              "--output", "{tmp}/none/report.json"],
    "output_is_a_directory": ["elliptic", "eisenstein", "--k", "2",
                              "--output", "{tmp}"],
    "eisenstein_over_budget": ["elliptic", "eisenstein", "--k", "3000",
                               "--order", "1"],
    "huge_index": ["elliptic", "pm", "--m", "99999999999999999999"],
    "repeated_point": ["npoint", "--genus", "1", "--insertions",
                       "a@z1,a@z1", "--output", "{tmp}/out.json"],
    "direction_on_a_slice_point": ["cohomology", "rank", "-n", "1", "-m",
                                   "1", "--direction", "a@z1"],
    "zero_denominator_boundary": ["cohomology", "euler", "-m", "1", "-N",
                                  "1", "--genus", "0", "--boundary",
                                  "1/0*a,a"],
    "rational_coordinate": ["schottky", "psi", "--p", "1", "-g", "2",
                            "--coordinates", "1/0,1,2,3"],
    "huge_exponent": ["npoint", "--genus", "0", "--insertions",
                      "a[-1]^99999999|1@z1"],
    "schottky_rho_order_over_budget": ["schottky", "psi", "--p", "1", "-g",
                                       "2", "--rho-order", "8"],
    "schottky_p_above_window": ["schottky", "psi", "--p", "4", "-g", "1"],
}


class TestHostileArgv:
    """The exit-code contract in a fresh interpreter, where a traceback
    printed anywhere, not only inside ``parse_and_dispatch``, shows."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_ARGV))
    def test_exit_code_in_contract_without_traceback(self, name, tmp_path):
        (tmp_path / "file").write_text("")
        argv = [a.format(tmp=tmp_path) for a in HOSTILE_ARGV[name]]
        proc = run_cli(*argv)
        assert proc.returncode in (0, 1, 2), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_exponent_refused_before_expansion(self):
        # the literal is refused before its 10^8 modes are listed
        start = time.monotonic()
        proc = run_cli(*HOSTILE_ARGV["huge_exponent"])
        assert time.monotonic() - start < 2
        assert proc.returncode in (1, 2)
        assert "Traceback" not in proc.stderr


class TestSchottkyPsiLimits:
    @pytest.mark.parametrize("name,message", [
        ("schottky_rho_order_over_budget",
         "--rho-order is 8, over the order budget 7 of schottky psi"),
        ("schottky_p_above_window", "kernel degree p = 4 is above 3"),
    ])
    def test_refused_before_any_work(self, name, message):
        start = time.monotonic()
        proc = run_cli(*HOSTILE_ARGV[name])
        assert time.monotonic() - start < 2
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_help_states_the_limits(self):
        proc = run_cli("schottky", "psi", "--help")
        assert proc.returncode == 0
        text = " ".join(proc.stdout.split())
        assert "kernel weight, at most 3" in text
        assert "at most 7" in text


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
