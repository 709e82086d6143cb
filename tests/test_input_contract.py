"""Inputs that must be refused with a message, never a traceback.

The CLI runs in a subprocess here, so an exception escaping
``parse_and_dispatch`` shows up as a traceback on stderr.
"""

import os
import re
import subprocess
import sys
import time

import pytest

from voasurf.cohomology import cohomology_rank, euler_poincare
from voasurf.reduction import Insertion
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


# The one refusal message of the cost rule, with the estimate in seconds
# or "far" when counting stopped past any budget.
def refusal(command: str) -> str:
    return (rf"^error: the estimated work of {command} is "
            rf"(far|[0-9.e+]+ s,) over the budget of 10 s\n$")


def assert_refused(proc, command: str, started: float):
    assert time.monotonic() - started < 1
    assert proc.returncode == 1
    assert re.match(refusal(command), proc.stderr), proc.stderr
    assert proc.stdout == ""


def assert_help_states_the_rule(*command):
    proc = run_cli(*command, "--help")
    assert proc.returncode == 0
    assert ("estimates its work from its flags and exits 1, before any "
            "work, when that is over 10 s") in " ".join(proc.stdout.split())


class TestEisensteinBudget:
    def test_index_over_budget_is_refused(self):
        start = time.monotonic()
        proc = run_cli("elliptic", "eisenstein", "--k", "10000",
                       "--order", "1")
        assert_refused(proc, "elliptic eisenstein", start)

    @pytest.mark.parametrize("k,order", [("4", "2000000"),
                                         ("400", "100000"),
                                         ("2000", "20000")])
    def test_order_over_budget_is_refused(self, k, order):
        start = time.monotonic()
        proc = run_cli("elliptic", "eisenstein", "--k", k, "--order", order)
        assert_refused(proc, "elliptic eisenstein", start)

    def test_help_states_the_budget(self):
        assert_help_states_the_rule("elliptic", "eisenstein")


class TestClusterTrialsBudget:
    def test_trials_over_budget_are_refused(self):
        start = time.monotonic()
        proc = run_cli("cluster", "check", "--trials", "100000000")
        assert_refused(proc, "cluster check", start)

    def test_help_states_the_budget(self):
        assert_help_states_the_rule("cluster", "check")


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
    "eisenstein_over_budget": ["elliptic", "eisenstein", "--k", "10000",
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
                                       "2", "--rho-order", "12"],
    "schottky_genus_rho_order_over_budget": ["schottky", "psi", "--p", "1",
                                             "-g", "3", "--rho-order", "5",
                                             "--coordinates",
                                             "3,1,-2,6,10,-7"],
    "schottky_p_above_window": ["schottky", "psi", "--p", "4", "-g", "1"],
    "schottky_cutoff_over_budget": ["schottky", "psi", "--p", "1", "-g", "2",
                                    "-N", "120"],
    "schottky_channels_over_budget": ["schottky", "partition", "-g", "2",
                                      "--weight-cutoff", "11"],
    "schottky_channels_weighted_over_budget": [
        "schottky", "partition", "-g", "12", "--weight-cutoff", "1",
        "--coordinates", ",".join(str(w) for w in range(1, 25))],
    "eisenstein_order_over_budget": ["elliptic", "eisenstein", "--k", "4",
                                     "--order", "2000000"],
    "cluster_trials_over_budget": ["cluster", "check", "--trials",
                                   "100000000"],
    # joint requests that every per-flag cap of the past let through
    "euler_weight_over_budget": ["cohomology", "euler", "-m", "60",
                                 "-N", "1"],
    "euler_levels_over_budget": ["cohomology", "euler", "-m", "0",
                                 "-N", "40"],
    "genus2_orders_over_budget": ["genus2", "partition", "--eps-order", "40",
                                  "--q1-order", "30", "--q2-order", "30",
                                  "-N", "80"],
    "npoint_composite_oracle_over_budget": [
        "npoint", "--genus", "1", "--insertions", "omega@z1,omega@z2",
        "--qorder", "32", "--oracle"],
    "npoint_box_and_levels_over_budget": [
        "npoint", "--genus", "1", "--insertions",
        "a@z1,a@z2,a@z3,a@z4,a@z5,a@z6", "--zorder", "4", "--qorder", "32"],
    "genus2_cutoff_over_budget": ["genus2", "pweier", "--p", "1", "-N",
                                  "5000"],
    "genus2_derivative_over_budget": ["genus2", "pweier", "--p", "1", "--j",
                                      "100000"],
    "schottky_huge_coordinates_over_budget": [
        "schottky", "partition", "-g", "11", "--weight-cutoff", "1",
        "--coordinates", ",".join(str(10 ** 3999 + 7919 * i * i + i)
                                  for i in range(1, 23))],
    "schottky_coordinate_size_over_budget": [
        "schottky", "partition", "-g", "10", "--weight-cutoff", "1",
        "--coordinates", "17,31,59,97,173,307,547,971,1733,3089,5507,9817,"
        "17491,31177,55579,99079,176573,314747,561019,1000003"],
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
        ("schottky_rho_order_over_budget", refusal("schottky psi")),
        ("schottky_genus_rho_order_over_budget", refusal("schottky psi")),
        ("schottky_p_above_window", "^error: kernel degree p = 4 is above 3"),
        ("schottky_cutoff_over_budget", refusal("schottky psi")),
        ("schottky_channels_over_budget", refusal("schottky partition")),
        ("schottky_channels_weighted_over_budget",
         refusal("schottky partition")),
    ])
    def test_refused_before_any_work(self, name, message):
        start = time.monotonic()
        proc = run_cli(*HOSTILE_ARGV[name])
        assert time.monotonic() - start < 1
        assert proc.returncode == 1
        assert re.match(message, proc.stderr), proc.stderr
        assert proc.stdout == ""

    def test_help_states_the_limits(self):
        proc = run_cli("schottky", "psi", "--help")
        assert proc.returncode == 0
        assert "kernel weight, at most 3" in " ".join(proc.stdout.split())
        assert_help_states_the_rule("schottky", "psi")
        assert_help_states_the_rule("schottky", "partition")


class TestCostRule:
    """Every request over the budget, the joint ones that per-flag caps
    let through among them, is refused by its estimate in a fresh
    process, in under a second and with the one message."""

    @pytest.mark.parametrize("name", sorted(
        n for n in HOSTILE_ARGV if n.endswith("_over_budget")))
    def test_refused_in_under_a_second(self, name):
        argv = HOSTILE_ARGV[name]
        command = " ".join(argv[:1 if argv[0] == "npoint" else 2])
        start = time.monotonic()
        assert_refused(run_cli(*argv), command, start)

    def test_top_level_help_states_the_rule(self):
        assert_help_states_the_rule()


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
            cohomology_rank(1, 1, 0, Insertion(generator(), "w"),
                            boundary=boundary)
        with pytest.raises(ValueError, match="two states"):
            euler_poincare(1, 1, 0, Insertion(generator(), "w"),
                           boundary=boundary)

    def test_genus1_refuses_a_boundary(self):
        with pytest.raises(ValueError, match="only at genus 0"):
            cohomology_rank(1, 1, 1, Insertion(generator(), "w"),
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
