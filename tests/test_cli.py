"""Command line front end tests.

The files under tests/golden hold the exact bytes of every documented
example invocation.  Each golden test runs its command twice and
compares both runs to the stored file, so nondeterminism and content
drift fail the same assertion.  The remaining tests pin the exit code
policy, the flag grammar, the serialization formats, and which library
layers a command loads.
"""

import json
import os
import subprocess
import sys

import pytest
from fractions import Fraction

from voasurf import elliptic, reduction
from voasurf.cli import (GOLDEN_CASES, PM_INDEX_BUDGET, PM_ORDER_BUDGET,
                         QORDER_BUDGET, ZORDER_BUDGET, capture_output,
                         golden_name, parse_and_dispatch)
from voasurf.elliptic import eisenstein
from voasurf.genus2 import HALF_POWERS
from voasurf.schottky import SchottkyData
from voasurf.series import MultiSeries
from voasurf.sewing import renamed

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
SCHOTTKY_HALF_POWERS = SchottkyData(1, (3, 1), 1, 2).half_powers


def run(argv, capsys):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenFiles:

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES,
                             ids=[n for n, _ in GOLDEN_CASES])
    def test_byte_stable_and_frozen(self, name, argv):
        first = capture_output(argv)
        second = capture_output(argv)
        assert first == second
        with open(os.path.join(GOLDEN_DIR, golden_name(name))) as fh:
            assert fh.read() == first

    def test_golden_check_subcommand_passes(self, capsys):
        code, out, err = run(["golden", "--dir", GOLDEN_DIR, "--check"],
                             capsys)
        assert code == 0
        assert json.loads(out)["drifted"] == []

    def test_golden_write_reproduces_repository_files(self, tmp_path,
                                                      capsys):
        code, out, err = run(["golden", "--dir", str(tmp_path)], capsys)
        assert code == 0
        for name, _ in GOLDEN_CASES:
            fresh = (tmp_path / golden_name(name)).read_text()
            with open(os.path.join(GOLDEN_DIR, golden_name(name))) as fh:
                assert fh.read() == fresh

    def test_golden_check_detects_drift(self, tmp_path, capsys):
        code, out, err = run(["golden", "--dir", str(tmp_path)], capsys)
        assert code == 0
        victim = tmp_path / golden_name(GOLDEN_CASES[0][0])
        victim.write_text(victim.read_text() + " ")
        code, out, err = run(["golden", "--dir", str(tmp_path), "--check"],
                             capsys)
        assert code == 1
        assert json.loads(out)["drifted"] == [golden_name(GOLDEN_CASES[0][0])]


class TestExitCodes:

    def test_no_arguments_prints_usage(self, capsys):
        code, out, err = run([], capsys)
        assert code == 2
        assert "usage:" in err

    def test_missing_subcommand(self, capsys):
        assert run(["elliptic"], capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_bad_state_in_insertions(self, capsys):
        code, out, err = run(
            ["npoint", "--genus", "1", "--insertions", "b@z"], capsys)
        assert code == 2
        assert "cannot parse" in err

    def test_insertion_without_point(self, capsys):
        code, out, err = run(
            ["npoint", "--genus", "1", "--insertions", "a"], capsys)
        assert code == 2
        assert "state@point" in err

    @pytest.mark.parametrize("argv", [
        ["elliptic", "eisenstein", "--k", "2", "--order", "0"],
        ["elliptic", "pm", "--m", "2", "--zorder", "0"],
        ["elliptic", "pm", "--m", "2", "--qorder", "0"],
        ["genus2", "partition", "--eps-order", "0"],
        ["genus2", "partition", "--q1-order", "0"],
        ["genus2", "partition", "--q2-order", "0"],
        ["genus2", "partition", "-N", "0"],
        ["schottky", "psi", "--p", "1", "-g", "1", "--rho-order", "0"],
        ["schottky", "partition", "-g", "1", "--weight-cutoff", "0"],
        ["cohomology", "rank", "-n", "1", "-m", "1", "--direction", "a@w",
         "--window", "0"],
    ], ids=lambda argv: argv[-2].lstrip("-"))
    def test_nonpositive_order_rejected(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "positive integer" in err
        assert "Traceback" not in err

    def test_pm_order_budget_refused_before_any_work(self, capsys,
                                                     monkeypatch):
        def kernel(*args):
            raise RuntimeError("the kernel ran")

        monkeypatch.setattr(elliptic, "weierstrass_p", kernel)
        code, out, err = run(
            ["elliptic", "pm", "--m", "2", "--zorder", str(PM_ORDER_BUDGET),
             "--qorder", "1"], capsys)
        assert code == 1 and out == ""
        assert f"order budget {PM_ORDER_BUDGET}" in err
        with pytest.raises(RuntimeError, match="the kernel ran"):
            parse_and_dispatch(["elliptic", "pm", "--m", "2", "--zorder",
                                str(PM_ORDER_BUDGET - 1), "--qorder", "1"])

    def test_pm_index_budget_refused_before_any_work(self, capsys,
                                                     monkeypatch):
        def kernel(*args):
            raise RuntimeError("the kernel ran")

        monkeypatch.setattr(elliptic, "weierstrass_p", kernel)
        code, out, err = run(
            ["elliptic", "pm", "--m", str(PM_INDEX_BUDGET + 1)], capsys)
        assert code == 1 and out == ""
        assert f"--m is {PM_INDEX_BUDGET + 1}" in err
        assert f"index budget {PM_INDEX_BUDGET}" in err
        with pytest.raises(RuntimeError, match="the kernel ran"):
            parse_and_dispatch(["elliptic", "pm", "--m",
                                str(PM_INDEX_BUDGET)])

    @pytest.mark.parametrize("argv,target", [
        (["npoint", "--genus", "1", "--insertions", "a@z1,a@z2"],
         "unwind_to_partition"),
        (["npoint", "--genus", "0", "--insertions", "a@z1,a@z2",
          "--oracle"], "genus0_direct"),
        (["residual", "--direction", "a@z"], "reduce_step"),
    ], ids=["npoint", "npoint-oracle", "residual"])
    def test_zorder_budget_refused_before_any_work(self, argv, target,
                                                   capsys, monkeypatch):
        def work(*args, **kwargs):
            raise RuntimeError("the computation ran")

        monkeypatch.setattr(reduction, target, work)
        code, out, err = run(argv + ["--zorder", str(ZORDER_BUDGET + 1)],
                             capsys)
        assert code == 1 and out == ""
        assert f"--zorder is {ZORDER_BUDGET + 1}" in err
        assert f"window budget {ZORDER_BUDGET}" in err
        assert "Traceback" not in err
        with pytest.raises(RuntimeError, match="the computation ran"):
            parse_and_dispatch(argv + ["--zorder", str(ZORDER_BUDGET)])

    @pytest.mark.parametrize("argv,target", [
        (["npoint", "--genus", "1", "--insertions", "a@z1,a@z2"],
         "unwind_to_partition"),
        (["npoint", "--genus", "1", "--insertions", "a@z1,a@z2",
          "--oracle"], "genus1_direct"),
        (["residual", "--direction", "a@z"], "reduce_step"),
    ], ids=["npoint", "npoint-oracle", "residual"])
    def test_qorder_budget_refused_before_any_work(self, argv, target,
                                                   capsys, monkeypatch):
        def work(*args, **kwargs):
            raise RuntimeError("the computation ran")

        monkeypatch.setattr(reduction, target, work)
        code, out, err = run(argv + ["--qorder", str(QORDER_BUDGET + 1)],
                             capsys)
        assert code == 1 and out == ""
        assert f"--qorder is {QORDER_BUDGET + 1}" in err
        assert f"order budget {QORDER_BUDGET}" in err
        assert "Traceback" not in err
        with pytest.raises(RuntimeError, match="the computation ran"):
            parse_and_dispatch(argv + ["--qorder", str(QORDER_BUDGET)])

    @pytest.mark.parametrize("command,target,flags", [
        (["npoint", "--genus", "1"], "unwind_to_partition", "--insertions"),
        (["npoint", "--genus", "0", "--oracle"], "genus0_direct",
         "--insertions"),
        (["residual", "--direction", "a@w"], "reduce_step",
         "--insertions and --direction"),
    ], ids=["npoint", "npoint-oracle", "residual"])
    def test_generator_budget_refused_before_any_work(self, command, target,
                                                      flags, capsys,
                                                      monkeypatch):
        def work(*args, **kwargs):
            raise RuntimeError("the computation ran")

        def argv(states, zorder):
            points = ",".join(f"{s}@z{i}" for i, s in enumerate(states))
            return command + ["--insertions", points, "--zorder", str(zorder)]

        monkeypatch.setattr(reduction, target, work)
        # six currents at the window budget: 101^6 is over the box budget
        code, out, err = run(argv(["a"] * 6, ZORDER_BUDGET), capsys)
        assert code == 1 and out == ""
        assert (f"the generator count of {flags} at --zorder "
                f"{ZORDER_BUDGET} is {6 + (command[0] == 'residual')}") in err
        assert "generator budget 3" in err
        assert "Traceback" not in err
        # omega counts two generators, so two of them at zorder 16 are over
        code, out, err = run(argv(["omega"] * 2, 16), capsys)
        assert code == 1 and "generator budget 3" in err
        # at the budget the computation runs: twelve generators fit at
        # zorder 1 and three at the window budget
        for states, zorder in ((["omega"] * 5, 1), (["a"] * 2, ZORDER_BUDGET)):
            with pytest.raises(RuntimeError, match="the computation ran"):
                parse_and_dispatch(argv(states, zorder))

    def test_order_conflict_is_domain_error(self, capsys):
        code, out, err = run(
            ["genus2", "partition", "--eps-order", "4", "-N", "2"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    def test_genus_three_needs_coordinates(self, capsys):
        code, out, err = run(["schottky", "psi", "--p", "1", "-g", "3"],
                             capsys)
        assert code == 1
        assert "coordinates" in err

    def test_missing_golden_directory_is_domain_error(self, capsys):
        code, out, err = run(
            ["golden", "--check", "--dir", "/nonexistent/golden"], capsys)
        assert code == 1


class TestSerialization:

    def test_eisenstein_pretty_payload(self, capsys):
        code, out, err = run(
            ["elliptic", "eisenstein", "--k", "2", "--order", "3"], capsys)
        assert code == 0
        assert json.loads(out)["pretty"] == "-1/12 + 2q + 6q^2 + 8q^3"

    def test_pretty_renderer_signs_and_powers(self):
        ts = eisenstein(2, 2)
        assert ts.pretty(sep="") == "-1/12 + 2q + 6q^2"
        zero = eisenstein(3, 4)
        assert zero.pretty(sep="") == "0"

    def test_json_terms_sorted_and_exact(self, capsys):
        code, out, err = run(
            ["elliptic", "pm", "--m", "2", "--zorder", "4", "--qorder", "3"],
            capsys)
        payload = json.loads(out)["series"]
        keys = [tuple(t["exponents"]) for t in payload["terms"]]
        assert keys == sorted(keys)
        assert all(isinstance(t["value"], str) for t in payload["terms"])
        assert payload["variables"] == ["q", "z"]

    def test_csv_series_table(self, capsys):
        code, out, err = run(
            ["elliptic", "eisenstein", "--k", "2", "--order", "3",
             "--format", "csv"], capsys)
        assert out.splitlines() == ["q,value", "0,-1/12", "1,2", "2,6",
                                    "3,8"]

    def test_csv_report_fallback(self, capsys):
        code, out, err = run(
            ["cohomology", "rank", "-n", "1", "-m", "1",
             "--direction", "a@z", "--format", "csv"], capsys)
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("q,") for line in lines)

    def test_approx_adds_float_fields(self, capsys):
        code, out, err = run(
            ["elliptic", "eisenstein", "--k", "2", "--order", "1",
             "--approx"], capsys)
        terms = json.loads(out)["series"]["terms"]
        assert terms[0]["approx"] == pytest.approx(-1 / 12)
        code, out, err = run(
            ["elliptic", "eisenstein", "--k", "2", "--order", "1"], capsys)
        assert "approx" not in json.loads(out)["series"]["terms"][0]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str digit cap before Python 3.11")
    def test_exact_value_past_the_digit_cap(self, capsys):
        # At the cap's minimum, 640 digits, the constant term of E_400
        # is already too long to print without lifting the cap.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(
                ["elliptic", "eisenstein", "--k", "400", "--order", "1"],
                capsys)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0, err
        exact = eisenstein(400, 1).c
        assert len(str(exact[(0,)].denominator)) > 640
        assert [t["value"] for t in json.loads(out)["series"]["terms"]] == \
            [str(exact[(0,)]), str(exact[(1,)])]

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, err = run(
            ["elliptic", "eisenstein", "--k", "2", "--order", "2",
             "--output", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["k"] == 2

    @pytest.mark.parametrize("half,names,variables", [
        ("se", HALF_POWERS, ("eps", "q1")),
        ("sr1", SCHOTTKY_HALF_POWERS, ("q1", "rho1"))], ids=["eps", "rho"])
    def test_eps_renaming_halves_exponents(self, half, names, variables):
        raw = MultiSeries(("q1", half), {"q1": (0, 2), half: (0, 4)})
        raw.c[(1, 2)] = Fraction(5)
        out = renamed(raw, names)
        assert out.vars == variables
        assert out.window[names[half]] == (0, 2)
        assert out.c[(1, 1)] == Fraction(5)

    @pytest.mark.parametrize("half,names", [
        ("se", HALF_POWERS), ("sr1", SCHOTTKY_HALF_POWERS)],
        ids=["eps", "rho"])
    def test_eps_renaming_rejects_odd_powers(self, half, names):
        raw = MultiSeries((half,), {half: (0, 3)})
        raw.c[(1,)] = Fraction(1)
        with pytest.raises(AssertionError):
            renamed(raw, names)


class TestCommandContent:

    def test_npoint_reduce_matches_oracle_genus1(self, capsys):
        base = ["npoint", "--genus", "1", "--insertions",
                "a@z1,omega@z2", "--qorder", "3", "--zorder", "3"]
        code, red, err = run(base, capsys)
        code, ora, err = run(base + ["--oracle"], capsys)
        assert json.loads(red)["value"] == json.loads(ora)["value"]

    def test_npoint_reduce_matches_oracle_genus0(self, capsys):
        base = ["npoint", "--genus", "0", "--insertions",
                "a[-2]|1@z1,a@z2"]
        code, red, err = run(base, capsys)
        code, ora, err = run(base + ["--oracle"], capsys)
        assert json.loads(red)["value"] == json.loads(ora)["value"]

    def test_npoint_flags_degenerate_step(self, capsys):
        code, out, err = run(
            ["npoint", "--genus", "0", "--insertions", "a@z1"], capsys)
        payload = json.loads(out)
        assert payload["degenerate_steps"] == [0]
        assert payload["value"]["terms"] == []

    def test_npoint_state_prefactor_grammar(self, capsys):
        code, out, err = run(
            ["npoint", "--genus", "1", "--insertions",
             "1/2*a@z1,a[-2]a[-1]^2|1@z2", "--qorder", "2", "--zorder",
             "2"], capsys)
        assert code == 0
        assert "1/2*a[-1]|1@z1" in json.loads(out)["insertions"][0]

    def test_partition_residual_vanishes(self, capsys):
        code, out, err = run(["residual", "--direction", "a@z"], capsys)
        payload = json.loads(out)
        assert payload["is_zero"] is True
        assert payload["residual"]["terms"] == []

    def test_residual_sees_through_a_zero_base(self, capsys):
        # The genus-0 one-point function of a vanishes identically, yet
        # its residual in the a-direction is the 1/(w - z1)^2 kernel:
        # the recursion acts on the insertion tuple, not on its value.
        code, out, err = run(
            ["residual", "--genus", "0", "--direction", "a@w",
             "--insertions", "a@z1"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["is_zero"] is False
        terms = {tuple(t["exponents"]): t["value"]
                 for t in payload["residual"]["terms"]}
        assert payload["residual"]["variables"] == ["w", "z1"]
        assert terms[(-2, 0)] == "1"
        assert terms[(-3, 1)] == "2"
        assert terms[(-4, 2)] == "3"

    def test_euler_total_vanishes(self, capsys):
        code, out, err = run(
            ["cohomology", "euler", "-m", "1", "-N", "2", "--genus", "0",
             "--window", "3", "--qorder", "3"], capsys)
        payload = json.loads(out)
        assert payload["total"] == 0
        assert len(payload["ledger"]) == 3

    @pytest.mark.parametrize("argv", [
        ["rank", "--genus", "0", "-n", "1", "-m", "0"],
        ["euler", "--genus", "0", "-m", "0", "-N", "3"],
        ["euler", "--genus", "1", "-m", "0", "-N", "4"],
    ], ids=["rank-g0", "euler-g0", "euler-g1"])
    def test_negative_p_exits_1(self, argv, capsys):
        code, out, err = run(["cohomology"] + argv + ["--direction", "1@w"],
                             capsys)
        assert code == 1 and out == ""
        assert "at level 1 the kernel 0 is smaller than the incoming " \
            "image rank 1: the chain property fails there" in err
        assert "Traceback" not in err

    def test_rank_direction_family_stack(self, capsys):
        code, out, err = run(
            ["cohomology", "rank", "-n", "1", "-m", "1", "--direction",
             "a@w", "--direction", "2*a@w", "--combine", "stack",
             "--window", "3", "--qorder", "3"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert len(payload["direction"]) == 2

    def test_rank_reports_the_directions_it_used(self, capsys):
        # a family shares its first member's point; the report must
        # name the directions the ranks were computed with
        code, out, err = run(
            ["cohomology", "rank", "--genus", "1", "-n", "1", "-m", "2",
             "--direction", "a@w", "--direction", "2*a@v"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["direction"] == ["a[-1]|1@w", "2*a[-1]|1@w"]

    def test_cluster_check_batch_involutive(self, capsys):
        code, out, err = run(
            ["cluster", "check", "--trials", "6", "--seed", "11"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["involutive"] is True
        assert payload["failures"] == 0
        assert len(payload["sample"]) == 5

    def test_cluster_check_single_genus(self, capsys):
        code, out, err = run(
            ["cluster", "check", "--trials", "4", "--genus", "0"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert all(case["genus"] == 0 for case in payload["sample"])

    def test_schottky_psi_default_coordinates(self, capsys):
        code, out, err = run(
            ["schottky", "psi", "--p", "1", "-g", "1", "--rho-order", "1"],
            capsys)
        payload = json.loads(out)
        assert payload["coordinates"] == ["3", "1"]
        assert payload["matrix_cutoff"] == 2

    def test_schottky_coordinate_override(self, capsys):
        code, out, err = run(
            ["schottky", "partition", "-g", "1", "--weight-cutoff", "2",
             "--coordinates", "5,2"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["coordinates"] == ["5", "2"]

    def test_schottky_partition_is_cut_by_weight_alone(self, capsys):
        # the handle sum reads no rho order or matrix cutoff, so neither
        # is a flag; the payload reports the surface truncations used
        code, out, err = run(
            ["schottky", "partition", "-g", "1", "--weight-cutoff", "2"],
            capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["rho_order"] == 2 and payload["matrix_cutoff"] == 4
        assert max(t["exponents"][0] for t in payload["series"]["terms"]) == 2
        for flag in (["--rho-order", "1"], ["-N", "4"]):
            code, out, err = run(["schottky", "partition", "-g", "1",
                                  "--weight-cutoff", "2", *flag], capsys)
            assert code == 2 and "unrecognized arguments" in err

    def test_genus2_partition_reports_prefactor_shift(self, capsys):
        code, out, err = run(
            ["genus2", "partition", "--eps-order", "2", "--q1-order", "3",
             "--q2-order", "3", "-N", "4"], capsys)
        payload = json.loads(out)
        assert payload["q_shift"] == {"q1": "-1/24", "q2": "-1/24"}
        assert payload["series"]["variables"] == ["eps", "q1", "q2"]


# Run in a fresh interpreter: the modules that importing the CLI, and
# then running the command given in argv, add to sys.modules.
PROBE = """
import json, os, sys
before = set(sys.modules)
from voasurf.cli import parse_and_dispatch
if sys.argv[1:]:
    stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
    code = parse_and_dispatch(sys.argv[1:])
    sys.stdout = stdout
    assert code == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(*argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportIsolation:

    def test_import_loads_no_library_layer(self):
        assert {m for m in loaded_by() if m.startswith("voasurf")} == {
            "voasurf", "voasurf.cli", "voasurf.series"}

    def test_eisenstein_loads_only_the_elliptic_layer(self):
        loaded = loaded_by("elliptic", "eisenstein", "--k", "4",
                           "--order", "3")
        assert "voasurf.elliptic" in loaded
        assert not loaded & {"voasurf.reduction", "voasurf.cohomology",
                             "voasurf.genus2", "voasurf.schottky",
                             "voasurf.sewing", "dataclasses"}

    def test_schottky_partition_skips_cohomology_and_genus2(self):
        loaded = loaded_by("schottky", "partition", "-g", "2",
                           "--weight-cutoff", "3")
        assert "voasurf.schottky" in loaded
        assert not loaded & {"voasurf.cohomology", "voasurf.genus2"}

    @pytest.mark.parametrize("argv", [
        ("genus2", "partition", "--eps-order", "2", "--q1-order", "2",
         "--q2-order", "2", "-N", "4"),
        ("genus2", "pweier", "--p", "1", "--eps-order", "1",
         "--q1-order", "2", "--q2-order", "2")], ids=["partition", "pweier"])
    def test_genus2_skips_the_reduction_layer(self, argv):
        loaded = loaded_by(*argv)
        assert "voasurf.genus2" in loaded
        assert not loaded & {"voasurf.reduction", "voasurf.cohomology"}

    # dataclasses alone also loads inspect, ast, dis and tokenize, a
    # cost every command would pay at start-up
    @pytest.mark.parametrize("name,argv", GOLDEN_CASES,
                             ids=[n for n, _ in GOLDEN_CASES])
    def test_no_command_loads_dataclasses_or_inspect(self, name, argv):
        assert not loaded_by(*argv) & {"dataclasses", "inspect"}
