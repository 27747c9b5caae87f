"""End-to-end CLI behaviour: reports, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bealloc
from bealloc import cli, errors, oracle, partition, solver
from bealloc.cli import build_parser, main, read_prices
from bealloc.errors import AllocError, InputError


@pytest.fixture
def prices_file(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("1\n2\n3\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_report(capsys, prices_file):
    code, out, _ = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "8"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve"
    assert report["counts"] == [0, 1, 2]
    assert report["spend"] == "8"
    assert report["budget_residual"] == "0"
    assert abs(report["beta"]) <= 1e-9
    assert report["sigma"] == pytest.approx(-math.log(2.0), abs=1e-9)
    assert report["negative_beta"] is False
    assert report["rounding_shift"] == 0
    assert report["instance"]["lambda"] == ["6", "5", "3"]
    assert report["instance"]["n"] == 2
    assert report["instance"]["e"] == "8"
    # both effective-budget conventions are reported; they agree at K = 0
    assert report["effective_budget"] == "8"
    assert report["effective_budget_first_price"] == "8"


def test_solve_report_is_byte_deterministic(capsys, prices_file):
    argv = ["solve", "--prices", prices_file, "--min-shares", "0",
            "--max-shares", "2", "--budget", "9.4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_solve_out_file_matches_stdout(capsys, prices_file, tmp_path):
    out_path = tmp_path / "report.json"
    argv = ["solve", "--prices", prices_file, "--min-shares", "0",
            "--max-shares", "2", "--budget", "8", "--out", str(out_path)]
    _, stdout, _ = run(capsys, argv)
    assert out_path.read_text() == stdout


def test_solve_distinct_effective_budgets_when_floor_is_paid(
    capsys, prices_file
):
    code, out, _ = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "1",
         "--max-shares", "3", "--budget", "14"],
    )
    assert code == 0
    report = json.loads(out)
    # E = 14 - 1*6 under the tail-weight floor, 14 - 1*1 under the
    # first-price reading; the report surfaces both
    assert report["effective_budget"] == "8"
    assert report["effective_budget_first_price"] == "13"


def test_enumerate_report(capsys, prices_file):
    # E = 9 is interior; members (0,2) and (1,1) give mean S_2 = 1/2
    code, out, _ = run(
        capsys,
        ["enumerate", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "9", "--l", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["total_count"] == "2"
    assert report["cumulative_means"] == ["1/2", "2"]
    assert report["deviation_fraction"] == 0.0
    assert report["l"] == 2
    assert report["delta"] == pytest.approx(2.0 ** 0.75)


def test_enumerate_with_sampling(capsys, prices_file):
    argv = ["enumerate", "--prices", prices_file, "--min-shares", "0",
            "--max-shares", "2", "--budget", "9", "--samples", "3000",
            "--seed", "5"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 3000
    assert report["seed"] == 5
    assert report["acceptance_rate"] == pytest.approx(2.0 / 3.0, abs=0.02)
    _, again, _ = run(capsys, argv)
    assert again == out


def test_enumerate_empty_span_counts_one(capsys, prices_file):
    code, out, _ = run(
        capsys,
        ["enumerate", "--prices", prices_file, "--min-shares", "2",
         "--max-shares", "2", "--budget", "12"],
    )
    assert code == 0
    assert json.loads(out)["total_count"] == "1"


def test_enumerate_boundary_skips_ensemble(capsys, prices_file):
    # E = 12 > n*lambda_2 = 10: every composition fits, but no interior
    # multiplier exists, so the fitted-center section is skipped with a note
    code, out, err = run(
        capsys,
        ["enumerate", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "12", "--l", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["total_count"] == "3"
    assert "deviation_fraction" not in report
    assert "skipping ensemble statistics" in err


def test_enumerate_does_not_sample_an_empty_set(capsys, tmp_path,
                                                monkeypatch):
    # the one composition costs K*lambda_1 + n*lambda_2 = 5.63 + 7 * 3.83
    # = 32.44 > 32.06, so |M| = 0
    def fail(*_args, **_kwargs):
        pytest.fail("the sampler ran on an empty configuration set")

    monkeypatch.setattr(oracle, "sample_uniform", fail)
    path = tmp_path / "p.csv"
    path.write_text("1.80\n3.83\n")
    code, out, err = run(
        capsys,
        ["enumerate", "--prices", str(path), "--min-shares", "1",
         "--max-shares", "8", "--budget", "32.06", "--samples", "300"],
    )
    assert (code, out, err) == (2, "", "error: configuration set is empty\n")


@pytest.mark.parametrize("l", ["1", "4"])
@pytest.mark.parametrize("budget", ["8", "12"])
def test_enumerate_checks_l_before_the_fit(capsys, prices_file, monkeypatch,
                                          budget, l):
    # budget 12 is a boundary one: the fit is skipped there, and with it
    # the check cumulative_stats makes
    def fail(*_args, **_kwargs):
        pytest.fail("work done before the --l check")

    monkeypatch.setattr(oracle, "check_cap", fail)
    monkeypatch.setattr(solver, "solve_params", fail)
    code, out, err = run(
        capsys,
        ["enumerate", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", budget, "--l", l],
    )
    assert (code, out, err) == (4, "", f"error: l = {l} outside 2..3\n")


def test_verify_report_frozen_counts(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert [r["n"] for r in rows] == [6, 9, 12, 15]
    assert [r["total_count"] for r in rows] == [
        "114", "5720", "331653", "18721080"
    ]
    assert [r["deviation_fraction"] for r in rows] == [0.0, 0.0, 0.0, 0.0]
    # solved beta is 0 on this family, so each weight is an exact count
    # ratio: 50/114, 3469/5720, 218048/331653, 13419345/18721080
    shells = [r["shell_weight"] for r in rows]
    assert shells == [
        50 / 114, 3469 / 5720, 218048 / 331653, 13419345 / 18721080
    ]
    assert report["deviation_nonincreasing"] is True
    # the shell weights grow along this family; the report must say so
    assert report["shell_weight_decreasing"] is False


def test_verify_walks_each_row_once(capsys, monkeypatch):
    # the shell weight takes |M| from the statistics walk, so a row's whole
    # budget is walked once, by the statistics; the report is unchanged
    _, plain, _ = run(capsys, ["verify"])
    budgets = []
    levels = oracle._levels

    def recording(lams, n, budget):
        budgets.append((n, budget))
        return levels(lams, n, budget)

    monkeypatch.setattr(oracle, "_levels", recording)
    code, out, _ = run(capsys, ["verify"])
    assert (code, out) == (0, plain)
    for n in (6, 9, 12, 15):
        inst = bealloc.unit_price_family(n, "mean")
        assert budgets.count((n, inst.effective_budget_scaled())) == 1
        # the beta = 0 shell count, below the budget
        assert budgets.count((n, oracle.shell_budget(inst, 0.25))) == 1
    assert len(budgets) == 8


def test_verify_stops_each_row_at_its_last_kept_draw(capsys, monkeypatch):
    # a sampled row keeps 2,000 draws at acceptance about 1/2: it draws a
    # few blocks of words, not a whole 20,000-proposal chunk; the report
    # is unchanged
    _, plain, _ = run(capsys, ["verify", "--samples", "2000", "--seed", "0"])
    real = np.random.default_rng
    drawn = []  # [words, slots] per generator, one per sampled row

    def counting(seed):
        words = real(seed).bit_generator.random_raw
        row = [0, None]
        drawn.append(row)

        def random_raw(shape):
            row[0] += shape[0] * shape[1]
            row[1] = shape[1]
            return words(shape)

        return SimpleNamespace(
            bit_generator=SimpleNamespace(random_raw=random_raw)
        )

    monkeypatch.setattr(np.random, "default_rng", counting)
    code, out, _ = run(capsys, ["verify", "--samples", "2000", "--seed", "0"])
    assert (code, out) == (0, plain)
    assert len(drawn) == 6
    for words, slots in drawn:
        assert 0 < words < oracle._CHUNK * slots


def test_verify_sampled_extends_the_ladder(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "400", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert [r["n"] for r in report["rows"]] == [6, 9, 12, 15, 20, 25]
    assert all(r["total_count"] is None for r in report["rows"])
    assert report["samples"] == 400


def test_zcheck_report(capsys, prices_file):
    code, out, _ = run(
        capsys,
        ["zcheck", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "4", "--beta", "0.5"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["beta"] == 0.5
    assert [r["n"] for r in report["rows"]] == [4, 8, 16]
    assert len(report["relative_changes"]) == 2
    assert isinstance(report["stabilizing"], bool)
    for row in report["rows"]:
        assert float(row["log_z_integral"]) == pytest.approx(
            float(row["log_z_exact"]), rel=1e-8, abs=1e-8
        )


def test_exit_code_input_error(capsys, prices_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--prices", prices_file, "--min-shares", "0",
              "--max-shares", "2"])
    assert excinfo.value.code == 4
    capsys.readouterr()


def test_exit_code_unknown_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 4
    capsys.readouterr()


def test_exit_code_bad_decimal(capsys, prices_file):
    code, _, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "eight"],
    )
    assert code == 4
    assert "could not parse" in err


def test_exit_code_infeasible_window(capsys, prices_file):
    code, _, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "1",
         "--max-shares", "2", "--budget", "5"],
    )
    assert code == 2
    assert "[6, 12]" in err


def test_exit_code_boundary_budget(capsys, prices_file):
    code, _, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "12"],
    )
    assert code == 2
    assert "no interior solution" in err


def test_exit_code_no_convergence(capsys, prices_file, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    code, _, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "9.4"],
    )
    assert code == 3
    assert "above tolerance" in err


def test_exit_code_cap(capsys, prices_file):
    code, _, err = run(
        capsys,
        ["enumerate", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "10", "--cap", "2"],
    )
    assert code == 5
    assert "exceeds cap" in err


BAD_FLAG_VALUES = [
    (["enumerate", "--cap", "-1"], "--cap must be nonnegative, got -1"),
    (["verify", "--cap", "-1"], "--cap must be nonnegative, got -1"),
    (["enumerate", "--epsilon", "nan"], "--epsilon must be finite, got nan"),
    (["enumerate", "--l", "2", "--epsilon=-inf"],
     "--epsilon must be finite, got -inf"),
    (["verify", "--epsilon", "nan"], "--epsilon must be finite, got nan"),
    (["verify", "--epsilon", "inf"], "--epsilon must be finite, got inf"),
    (["zcheck", "--beta", "nan"], "--beta must be finite, got nan"),
    (["zcheck", "--beta", "inf"], "--beta must be finite, got inf"),
    (["verify", "--epsilon", "1000"],
     "band n^(3/4 + epsilon) overflows a float at n = 6, epsilon = 1000.0"),
    (["zcheck", "--grid", "32"], "grid must be >= 64, got 32"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_FLAG_VALUES,
    ids=[" ".join(argv) for argv, _ in BAD_FLAG_VALUES],
)
def test_bad_flag_value_is_an_input_error(capsys, prices_file, monkeypatch,
                                          argv, message):
    # a bad flag value is rejected before any instance is built or fitted
    def fail(*_args, **_kwargs):
        pytest.fail("work done before the flag check")

    monkeypatch.setattr(cli, "_build", fail)
    monkeypatch.setattr(solver, "solve_params", fail)
    monkeypatch.setattr(partition, "z_saddle", fail)
    monkeypatch.setattr(partition, "z_exact", fail)
    command, *flags = argv
    instance = [] if command == "verify" else [
        "--prices", prices_file, "--min-shares", "0", "--max-shares", "2",
        "--budget", "9",
    ]
    code, out, err = run(capsys, [command, *instance, *flags])
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_prices_file_with_indices(tmp_path, capsys):
    path = tmp_path / "indexed.csv"
    path.write_text("1,1\n2,2\n3,3\n")
    code, out, _ = run(
        capsys,
        ["solve", "--prices", str(path), "--min-shares", "0",
         "--max-shares", "2", "--budget", "8"],
    )
    assert code == 0
    assert json.loads(out)["counts"] == [0, 1, 2]


def test_prices_file_rejects_disordered_indices(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,1\n1,2\n")
    with pytest.raises(InputError, match="ascend"):
        read_prices(str(path))


def test_prices_file_rejects_extra_fields(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(InputError, match="expected"):
        read_prices(str(path))


def test_prices_file_missing(capsys):
    code, _, err = run(
        capsys,
        ["solve", "--prices", "/nonexistent/p.csv", "--min-shares", "0",
         "--max-shares", "2", "--budget", "8"],
    )
    assert code == 4
    assert "cannot read" in err


def test_prices_file_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("\n1\n\n2\n3\n\n")
    assert read_prices(str(path)) == ["1", "2", "3"]


@pytest.mark.parametrize("text, prices", [
    ("1\v2\n3\n", ["1\v2", "3"]),
    ("1\f2\x1c3\x1d4\x1e5\x856\u20287\u20298\n", [
        "1\f2\x1c3\x1d4\x1e5\x856\u20287\u20298"
    ]),
    ("1\r\n2\r3\n", ["1", "2", "3"]),
])
def test_prices_file_breaks_lines_at_newlines_only(tmp_path, text, prices):
    # str.splitlines would also break at \v, \f, \x1c-\x1e, \x85,
    # \u2028 and \u2029; read_text turns \r\n and \r into \n
    path = tmp_path / "breaks.csv"
    path.write_bytes(text.encode())
    assert read_prices(str(path)) == prices


def test_prices_file_with_a_vertical_tab_is_one_bad_price(capsys, tmp_path):
    path = tmp_path / "vt.csv"
    path.write_text("1\v2\n3\n")
    code, out, err = run(
        capsys,
        ["solve", "--prices", str(path), "--min-shares", "0",
         "--max-shares", "2", "--budget", "8"],
    )
    assert (code, out) == (4, "")
    assert err == "error: could not parse price 1 '1\\x0b2'\n"


def test_indexed_prices_file_counts_newlines_only(tmp_path):
    # one newline, so one line: its second comma is the error, not the order
    path = tmp_path / "vt.csv"
    path.write_text("1,1\v1,2\n")
    with pytest.raises(InputError) as exc:
        read_prices(str(path))
    assert str(exc.value) == f"{path}:1: expected `price` or `index,price`"


def fraction_report_strings(prices, k, m, budget, scale):
    """The instance block and both effective budgets, formatted the way the
    report formatted them from Fractions before the integer view."""
    ps = [Fraction(p) for p in prices]
    lam = list(accumulate(reversed(ps)))[::-1]
    phi = Fraction(budget)
    instance = {
        "prices": [str(p) for p in ps],
        "scale": scale,
        "k": k,
        "m": m,
        "budget": str(phi),
        "lambda": [str(v) for v in lam],
        "n": m - k,
        "e": str(phi - k * lam[0]),
    }
    return instance, str(phi - k * lam[0]), str(phi - k * ps[0])


def test_solve_report_strings_match_fraction_formatting(capsys, tmp_path):
    rng = random.Random(2000)
    cents = [rng.randint(1, 10000) for _ in range(2000)]
    prices = [f"{c // 100}.{c % 100:02d}" for c in cents]
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(prices) + "\n")
    k, n = 2, 40
    lam = list(accumulate(reversed(cents)))[::-1]
    phi = k * lam[0] + n * lam[-1] + n * (lam[1] - lam[-1]) // 2
    budget = f"{phi // 100}.{phi % 100:02d}"
    for scale in (10**6, 100):
        code, out, _ = run(
            capsys,
            ["solve", "--prices", str(path), "--min-shares", str(k),
             "--max-shares", str(k + n), "--budget", budget,
             "--scale", str(scale)],
        )
        assert code == 0
        report = json.loads(out)
        instance, effective, first_price = fraction_report_strings(
            prices, k, k + n, budget, scale
        )
        assert report["instance"] == instance
        assert report["effective_budget"] == effective
        assert report["effective_budget_first_price"] == first_price
    # a non-positive scale: the same stderr and exit code as before
    code, out, err = run(
        capsys,
        ["solve", "--prices", str(path), "--min-shares", str(k),
         "--max-shares", str(k + n), "--budget", budget, "--scale", "0"],
    )
    assert (code, out, err) == (
        4, "", "error: scale must be positive, got 0\n"
    )
    first = next(i for i, p in enumerate(prices)
                 if (Fraction(p) * -5).denominator != 1)
    code, out, err = run(
        capsys,
        ["solve", "--prices", str(path), "--min-shares", str(k),
         "--max-shares", str(k + n), "--budget", budget, "--scale", "-5"],
    )
    assert (code, out) == (4, "")
    assert err == (
        f"error: price {first + 1} {prices[first]!r} is not a multiple of "
        f"1/-5; raise --scale or round the input\n"
    )


def test_scale_minus_five_on_whole_prices(capsys, prices_file):
    code, out, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "8", "--scale", "-5"],
    )
    assert (code, out, err) == (
        4, "", "error: scale must be positive, got -5\n"
    )


def python_m_bealloc(argv):
    """Run `python -m bealloc argv` on this checkout in a fresh process."""
    src = str(Path(bealloc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "bealloc", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_m_bealloc_runs_the_cli(capsys, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1.25\n0.75\n1\n0.5\n1.5\n1\n0.25\n1\n2\n0.75\n")
    argv = ["solve", "--prices", str(path), "--min-shares", "0",
            "--max-shares", "10", "--budget", "55.25"]
    proc = python_m_bealloc(argv)
    code, out, _ = run(capsys, argv)
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout == out


def test_prices_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xff1\n2\n")
    with pytest.raises(InputError, match="cannot read prices file"):
        read_prices(str(path))


def test_unwritable_out_path(capsys, prices_file, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "8", "--out", str(out_path)],
    )
    assert (code, out) == (4, "")
    assert err.startswith(f"error: cannot write report {out_path}: ")
    assert err.count("\n") == 1


def test_verify_zero_samples(capsys, prices_file):
    code, out, err = run(capsys, ["verify", "--samples", "0"])
    assert (code, out, err) == (
        4, "", "error: verify --samples must be positive, got 0\n"
    )
    # enumerate draws nothing at --samples 0 and reports it
    code, out, _ = run(
        capsys,
        ["enumerate", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "9", "--samples", "0"],
    )
    assert code == 0
    report = json.loads(out)
    assert (report["samples"], report["acceptance_rate"]) == (0, 1.0)


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_negative_seed(capsys, prices_file, command):
    instance = (
        ["--prices", prices_file, "--min-shares", "0", "--max-shares", "2",
         "--budget", "9"] if command == "enumerate" else []
    )
    code, out, err = run(
        capsys, [command, *instance, "--samples", "10", "--seed", "-1"]
    )
    assert (code, out, err) == (
        4, "", "error: seed must be nonnegative, got -1\n"
    )
    if command == "enumerate":  # without --samples the seed is never used
        code, _, _ = run(capsys, [command, *instance, "--seed", "-1"])
        assert code == 0


@pytest.mark.parametrize("command", ["enumerate", "verify"])
@pytest.mark.parametrize(
    "flags, message",
    [(["--samples", "-1"], "sample count must be nonnegative, got -1"),
     (["--samples", "3", "--seed", "-1"], "seed must be nonnegative, got -1"),
     (["--samples", "-1", "--seed", "-1"],
      "sample count must be nonnegative, got -1")],
)
def test_bad_sampling_flags_are_rejected_before_any_work(
    capsys, prices_file, monkeypatch, command, flags, message
):
    def fail(*_args, **_kwargs):
        pytest.fail("work done before the sampling flag check")

    monkeypatch.setattr(oracle, "count_configurations", fail)
    monkeypatch.setattr(oracle, "cumulative_stats", fail)
    monkeypatch.setattr(oracle, "sample_uniform", fail)
    monkeypatch.setattr(oracle, "draw_parts", fail)
    monkeypatch.setattr(solver, "solve_params", fail)
    instance = [] if command == "verify" else [
        "--prices", prices_file, "--min-shares", "0", "--max-shares", "2",
        "--budget", "9", "--l", "2",
    ]
    code, out, err = run(capsys, [command, *instance, *flags])
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_enumerate_takes_the_count_from_the_stats_walk(
    capsys, prices_file, monkeypatch
):
    def fail(*_args, **_kwargs):
        pytest.fail("a second count walk ran")

    argv = ["enumerate", "--prices", prices_file, "--min-shares", "0",
            "--max-shares", "2", "--budget", "9"]
    _, plain, _ = run(capsys, argv)
    monkeypatch.setattr(oracle, "count_configurations", fail)
    code, out, _ = run(capsys, [*argv, "--l", "2"])
    assert code == 0
    assert json.loads(out)["total_count"] == json.loads(plain)["total_count"]


@pytest.mark.parametrize("fit", [["--budget", "12"], ["--beta", "1"]])
def test_zcheck_without_increments(capsys, prices_file, fit):
    code, out, err = run(
        capsys,
        ["zcheck", "--prices", prices_file, "--min-shares", "2",
         "--max-shares", "2", *fit],
    )
    assert (code, out, err) == (
        4, "", "error: zcheck needs at least one increment (M > K)\n"
    )


@pytest.mark.parametrize("beta", ["1e308", "-1e308"])
def test_zcheck_beta_past_float_range_is_an_input_error(
    capsys, prices_file, monkeypatch, beta
):
    # beta * lambda_2 = +-5e308 is no float: rejected before any recurrence
    def fail(*_args, **_kwargs):
        pytest.fail("recurrence run for an overflowing beta")

    monkeypatch.setattr(partition, "geometric_prefix_sums", fail)
    code, out, err = run(
        capsys,
        ["zcheck", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", f"--beta={beta}"],
    )
    assert (code, out, err) == (
        4, "",
        "error: beta must be finite and 2n * |beta| * lambda_2 a float, "
        f"got beta = {float(beta)} (n = 2, lambda_2 = 5.0)\n",
    )


@pytest.mark.parametrize("beta", ["3.5e307", "-3.5e307"])
def test_zcheck_beta_past_the_largest_tilt_is_an_input_error(tmp_path, beta):
    # beta * lambda_2 fits a float, 2n * |beta| * lambda_2 = 8 * 3.5e307 *
    # 3.25 does not: rejected before the recurrence warns, in a fresh
    # process, so its real stderr is what is checked
    path = tmp_path / "p.csv"
    path.write_text("3.5\n2.25\n1.0\n")
    proc = python_m_bealloc(
        ["zcheck", "--prices", str(path), "--min-shares", "0",
         "--max-shares", "4", f"--beta={beta}"]
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        "error: beta must be finite and 2n * |beta| * lambda_2 a float, "
        f"got beta = {float(beta)} (n = 4, lambda_2 = 3.25)\n"
    )
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("flags", [
    ["solve"], ["enumerate", "--l", "2"], ["zcheck"],
], ids=" ".join)
def test_fit_energies_past_float_range_are_an_input_error(tmp_path, flags):
    # 2n * lambda_2 = 2e4 * 5e304 is no float, so neither is the fit's
    # energy shift E - n*lambda_s; in a fresh process, so its real stderr
    # is what is checked
    path = tmp_path / "p.csv"
    path.write_text("1e305\n5e304\n1\n")
    command, *rest = flags
    proc = python_m_bealloc(
        [command, "--prices", str(path), "--scale", "1", "--min-shares", "0",
         "--max-shares", "10000", "--budget", "3e308", *rest]
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.endswith(
        "error: 2n * lambda_2 must be a float (n = 10000, lambda_2 = 5e+304)\n"
    )
    assert proc.stderr.count("error:") == 1
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_zcheck_extreme_finite_beta_keeps_its_pole_error(capsys, prices_file):
    code, out, err = run(
        capsys,
        ["zcheck", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--beta", "1e306"],
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: sigma (nu) = ") and err.count("\n") == 1


WIDE_OFFSET_PRICES = {
    # lambda_2 - lambda_3 = 1e303 * 10^6 scaled units, past float range,
    # and 1e303 real units, within it
    "1e303": ["1", "1e303", "2"],
    # a price of 4300 nines, the longest text int() reads
    "4300 nines": ["1", "9" * 4300, "2"],
}


OFFSET_ERROR = "error: mode weights exceed float range at scale 1000000\n"
OFFSET_CASES = [
    pytest.param(name, flags, OFFSET_ERROR, id=f"{name} {flags[0]} {flags[1]}")
    for name, flags in [
        ("4300 nines", ["solve", "--budget", "20"]),
        ("4300 nines", ["zcheck", "--budget", "20"]),
        # lambda_2 itself is past float range here
        ("4300 nines", ["zcheck", "--beta", "0.5"]),
    ]
]


@pytest.mark.parametrize("name, flags, message", OFFSET_CASES)
def test_mode_offsets_past_float_range_are_an_input_error(
    capsys, tmp_path, name, flags, message
):
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"{p}\n" for p in WIDE_OFFSET_PRICES[name]))
    command, *rest = flags
    code, out, err = run(
        capsys,
        [command, "--prices", str(path), "--min-shares", "0",
         "--max-shares", "4", *rest],
    )
    assert (code, out, err) == (4, "", message)


@pytest.mark.parametrize("flags", [
    ["solve", "--budget", "2e303"],
    ["enumerate", "--budget", "2e303", "--l", "2"],
    ["zcheck", "--budget", "2e303"],
    ["zcheck", "--beta", "0.5"],
], ids=lambda flags: f"1e303 {flags[0]} {flags[1]}")
def test_offsets_within_float_range_are_fitted(capsys, tmp_path, flags):
    # each exact scaled offset is divided by the scale, so the offsets
    # are floats although lambda_2 - lambda_3 in scaled units is not
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"{p}\n" for p in WIDE_OFFSET_PRICES["1e303"]))
    command, *rest = flags
    code, out, err = run(
        capsys,
        [command, "--prices", str(path), "--min-shares", "0",
         "--max-shares", "4", *rest],
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == command


@pytest.mark.parametrize("flags", [
    ["solve"], ["enumerate", "--l", "2"], ["zcheck"],
], ids=lambda flags: f"1e303 {flags[0]}")
def test_offsets_within_float_range_do_not_converge_at_a_low_budget(
    capsys, tmp_path, flags
):
    # a known defect, pinned so that its mend shows: E = 20 lies strictly
    # inside [n * lambda_s, n * lambda_2], so the law exists, but the dual
    # Newton stops with NoConvergence (exit 3) on this weight ratio; the
    # mend should make these exit 0 (CHANGES.md, FOUND on solve_params)
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"{p}\n" for p in WIDE_OFFSET_PRICES["1e303"]))
    code, out, err = run(
        capsys,
        [*flags, "--prices", str(path), "--min-shares", "0",
         "--max-shares", "4", "--budget", "20"],
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: dual Newton residual ")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python's int() has no digit limit")
@pytest.mark.parametrize("flags", [
    ["enumerate", "--min-shares", "0"],
    ["enumerate", "--min-shares", "0", "--l", "2"],
    ["solve", "--min-shares", "1"],
], ids=" ".join)
def test_report_values_past_the_int_digit_limit_are_an_input_error(
    capsys, tmp_path, flags
):
    # the 4306-digit scaled price cannot be printed in the report (or, for
    # solve, in its BudgetInfeasible message)
    path = tmp_path / "wide.csv"
    prices = WIDE_OFFSET_PRICES["4300 nines"]
    path.write_text("".join(f"{p}\n" for p in prices))
    command, *rest = flags
    code, out, err = run(
        capsys,
        [command, "--prices", str(path), "--max-shares", "4",
         "--budget", "20", *rest],
    )
    assert (code, out) == (4, "")
    assert err == (
        f"error: a scaled value has more than {sys.get_int_max_str_digits()} "
        "digits, the limit of int-to-string conversion\n"
    )


def test_enumerate_without_l_counts_wide_offsets_exactly(capsys, tmp_path):
    # the count walk stays in exact integers: no float, no error
    path = tmp_path / "wide.csv"
    path.write_text("1\n1e303\n2\n")
    code, out, err = run(
        capsys,
        ["enumerate", "--prices", str(path), "--min-shares", "0",
         "--max-shares", "4", "--budget", "20"],
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["total_count"] == "1"


class UnlistedError(AllocError):
    """An error the exit-code table does not name."""


EXIT_CODES = {
    errors.AllocError: 3,
    errors.InputError: 4,
    errors.EmptyPrices: 4,
    errors.TooFewEnterprises: 4,
    errors.NonPositivePrice: 4,
    errors.ScaleMismatch: 4,
    errors.BoundsInverted: 4,
    errors.IndexRange: 4,
    errors.BudgetInfeasible: 2,
    errors.DegenerateBoundary: 2,
    errors.DomainError: 3,
    errors.NoConvergence: 3,
    errors.RepairFailed: 3,
    errors.CapExceeded: 5,
    errors.LowAcceptance: 5,
    UnlistedError: 3,
}


def test_exit_code_table_names_every_error_class():
    declared = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, AllocError)
    }
    assert declared == set(EXIT_CODES) - {UnlistedError}


@pytest.mark.parametrize(
    "error, expected", EXIT_CODES.items(),
    ids=[cls.__name__ for cls in EXIT_CODES],
)
def test_exit_code_per_error_class(capsys, prices_file, monkeypatch,
                                   error, expected):
    def fail(_inst):
        raise error(f"raised {error.__name__}")

    monkeypatch.setattr(solver, "solve_params", fail)
    code, out, err = run(
        capsys,
        ["solve", "--prices", prices_file, "--min-shares", "0",
         "--max-shares", "2", "--budget", "8"],
    )
    assert (code, out, err) == (
        expected, "", f"error: raised {error.__name__}\n"
    )


REQUIRED = {
    "solve": ["--prices", "--min-shares", "--max-shares", "--budget"],
    "enumerate": ["--prices", "--min-shares", "--max-shares", "--budget"],
    "zcheck": ["--prices", "--min-shares", "--max-shares"],
}


@pytest.mark.parametrize(
    "command, dropped",
    [(c, flag) for c, flags in REQUIRED.items() for flag in flags],
)
def test_missing_required_flag_is_a_usage_error(capsys, prices_file,
                                                command, dropped):
    values = {"--prices": prices_file, "--min-shares": "0",
              "--max-shares": "2", "--budget": "8"}
    argv = [command]
    for flag in REQUIRED[command]:
        if flag != dropped:
            argv += [flag, values[flag]]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 4
    err = capsys.readouterr().err
    assert err.endswith(
        f"error: the following arguments are required: {dropped}\n"
    )


# flag, dest, type, default, required; in usage order
INSTANCE_FLAGS = [
    ("--prices", "prices_path", None, None, True),
    ("--min-shares", "min_shares", int, None, True),
    ("--max-shares", "max_shares", int, None, True),
    ("--budget", "budget", None, None, True),
    ("--scale", "scale", int, 10**6, False),
]
SAMPLING_FLAGS = [
    ("--epsilon", "epsilon", float, 0.0, False),
    ("--samples", "samples", int, None, False),
    ("--seed", "seed", int, 0, False),
    ("--cap", "cap", int, oracle.DEFAULT_CAP, False),
]
OUT_FLAG = [("--out", "out_path", None, None, False)]
SUBCOMMAND_FLAGS = {
    "solve": INSTANCE_FLAGS + OUT_FLAG,
    "enumerate": INSTANCE_FLAGS + [("--l", "l", int, None, False)]
    + SAMPLING_FLAGS + OUT_FLAG,
    "verify": SAMPLING_FLAGS + OUT_FLAG,
    "zcheck": INSTANCE_FLAGS[:3]
    + [("--budget", "budget", None, None, False), INSTANCE_FLAGS[4],
       ("--beta", "beta_override", float, None, False),
       ("--grid", "grid", int, 4096, False)]
    + OUT_FLAG,
}


def test_subcommand_flags_and_defaults():
    parser = build_parser()
    (commands,) = [
        a.choices for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(commands) == list(SUBCOMMAND_FLAGS)
    for name, expected in SUBCOMMAND_FLAGS.items():
        flags = [
            (a.option_strings[0], a.dest, a.type, a.default, a.required)
            for a in commands[name]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert flags == expected, name


def report_of(argv):
    args = build_parser().parse_args(argv)
    return cli._COMMANDS[args.command](args)


REPORT_ARGV = {
    "solve": ["solve", "--min-shares", "0", "--max-shares", "10",
              "--budget", "55.25"],
    "enumerate": ["enumerate", "--min-shares", "0", "--max-shares", "4",
                  "--budget", "27.5", "--l", "5", "--samples", "200"],
    "verify": ["verify"],
    "verify sampled": ["verify", "--samples", "50", "--seed", "3"],
    "zcheck": ["zcheck", "--min-shares", "0", "--max-shares", "4",
               "--beta", "0.5"],
}


def report_argv(tmp_path, name):
    path = tmp_path / "p.csv"
    path.write_text("1.25\n0.75\n1\n0.5\n1.5\n1\n0.25\n1\n2\n0.75\n")
    command, *flags = REPORT_ARGV[name]
    prices = [] if command == "verify" else ["--prices", str(path)]
    return [command, *prices, *flags]


@pytest.mark.parametrize("name", REPORT_ARGV)
def test_dumps_matches_json_dumps_on_reports(tmp_path, name):
    report = report_of(report_argv(tmp_path, name))
    assert cli._dumps(report) == json.dumps(report, sort_keys=True, indent=2)


# The stdout of each REPORT_ARGV case, recorded before the sampler kept its
# draws as one int64 matrix and zcheck shared one z_exact profile. Rewrites
# of those paths must not move a count, a digit or a float's last bit.
REPORT_BYTES = json.loads(
    (Path(__file__).parent / "data" / "report_bytes.json").read_text()
)


@pytest.mark.parametrize("name", REPORT_ARGV)
def test_report_bytes_match_the_pinned_fixture(capsys, tmp_path, name):
    code, out, err = run(capsys, report_argv(tmp_path, name))
    assert (code, err) == (0, "")
    assert out == REPORT_BYTES[name]


def wide_prices(s):
    """s prices with 0 to 4 decimals, from a fixed integer sequence."""
    prices = []
    for i in range(s):
        digits = i % 5
        units = (i * 7919 + 104729) ** 2 % 10 ** (digits + 2) + 1
        whole, frac = divmod(units, 10**digits)
        prices.append(f"{whole}.{frac:0{digits}d}" if digits else str(whole))
    return prices


# sha256 of the stdout of one wide solve (s = 2000, mixed decimals, budget at
# 95 % of the energy range), recorded before the price parse and the
# rounding became whole-column passes.
WIDE_SOLVE_SHA256 = (
    "4a7333e5c82e3ef29d962cc6db6d37c3ba1e14196987fdb43704626488d41098"
)


def test_wide_solve_report_matches_its_pinned_digest(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"{p}\n" for p in wide_prices(2000)))
    code, out, err = run(
        capsys,
        ["solve", "--prices", str(path), "--min-shares", "3",
         "--max-shares", "103", "--budget", "9758289.3705"],
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert len(report["counts"]) == 2000
    assert report["rounding_shift"] == 5162
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SOLVE_SHA256


ENCODER_CASES = {
    "empty list": [],
    "empty dict": {},
    "empty nested": {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
    "nested lists": [[1, 2], [3, [4.5, [5]]], [], [[]]],
    "list of dicts": [{"b": 1, "a": [1.5, "x"]}, {}, {"c": {"d": [None]}}],
    "mixed scalars": [1, 2.5, "s", True, False, None, 0, ""],
    "scalars beside containers": [1, [2, 3], "x", {"k": 4}, None],
    "special floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300,
                       5e-324, 0.1],
    "big ints": [2**64, -(2**70) - 1, 10**30, 2**63 - 1],
    "text": ["é", "日本", " ", "\x00\x1f\n\t\"\\/", "😀", "a,b"],
    "keys": {"é": 1, "a\nb": [1, 2], "": {"z": -0.0, "y": math.nan}},
    "flat dict": {"b": math.inf, "a": "x", "c": [True]},
    "tuples": (1, (2.0, "3"), [()]),
    "deep": {"a": {"b": {"c": [[1.0], [2.0, {"d": [3]}]]}}},
    "scalar float": -0.0,
    "scalar str": "ü\n",
    "scalar none": None,
    "scalar nan": math.nan,
}


@pytest.mark.parametrize("obj", ENCODER_CASES.values(), ids=ENCODER_CASES)
def test_dumps_matches_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_parser_is_built_once_and_reused(capsys, prices_file, monkeypatch):
    real = cli.build_parser
    builds = []

    def counting_build_parser():
        builds.append(None)
        return real()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    solve = ["solve", "--prices", prices_file, "--min-shares", "0",
             "--max-shares", "2", "--budget", "9.4"]
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--prices", prices_file])
    assert excinfo.value.code == 4
    usage = capsys.readouterr()
    assert main(solve) == 0
    first = capsys.readouterr()
    assert len(builds) == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    help_text = capsys.readouterr()
    assert main(solve) == 0
    assert capsys.readouterr() == first
    assert len(builds) == 1

    # the reused parser prints what a freshly built one prints
    with pytest.raises(SystemExit):
        real().parse_args(["solve", "--prices", prices_file])
    assert capsys.readouterr() == usage
    with pytest.raises(SystemExit):
        real().parse_args(["--help"])
    assert capsys.readouterr() == help_text


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def test_zcheck_matches_the_golden_catalog(capsys, tmp_path):
    # every catalog zcheck variant, run the way the benchmark runs it:
    # log_z_exact within 1e-12 of the catalog's reference, which comes from
    # Newton's identities, not from the recurrence
    catalog = json.loads(GOLDEN.read_text())["zcheck"]
    checked = 0
    for cls in catalog:
        for entry in cls["variants"]:
            path = tmp_path / f"z-n{cls['n0']}-s{cls['s']}-{entry['id']}.csv"
            path.write_text("".join(f"{p}\n" for p in entry["prices"]))
            code, out, err = run(
                capsys,
                ["zcheck", "--prices", str(path), "--min-shares", "0",
                 "--max-shares", str(cls["n0"]), "--beta", entry["beta"],
                 "--grid", "4096"],
            )
            assert (code, err) == (0, ""), path.name
            rows = json.loads(out)["rows"]
            assert [r["n"] for r in rows] == [g["n"] for g in entry["rows"]]
            for row, gold in zip(rows, entry["rows"]):
                want = float(gold["log_z_exact"])
                got = float(row["log_z_exact"])
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (
                    path.name, row["n"], got, want
                )
            checked += 1
    assert checked == 75


# sha256 of the stdout of every golden crosscheck job (`enumerate --l
# --samples 10000`) and of `verify --samples 2000`, at seeds 1 and 2,
# recorded before the statistics walk closed its last two modes in closed
# form and the sampler read its bars off a per-row threshold.
CROSSCHECK_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "crosscheck_digests.json").read_text()
)


def test_crosscheck_matches_the_golden_catalog(capsys, tmp_path):
    catalog = json.loads(GOLDEN.read_text())["crosscheck"]
    assert len(catalog) == 15
    digests = {}
    for seed in (1, 2):
        for entry in catalog:
            path = tmp_path / f"{entry['id']}.csv"
            path.write_text("".join(f"{p}\n" for p in entry["prices"]))
            code, out, err = run(
                capsys,
                ["enumerate", "--prices", str(path), "--min-shares", "0",
                 "--max-shares", str(entry["n"]), "--budget", entry["budget"],
                 "--l", str(entry["l"]), "--samples", "10000",
                 "--seed", str(seed)],
            )
            assert (code, err) == (0, ""), entry["id"]
            assert json.loads(out)["total_count"] == entry["total_count"]
            digests[f"{entry['id']} seed {seed}"] = hashlib.sha256(
                out.encode()
            ).hexdigest()
        code, out, err = run(
            capsys, ["verify", "--samples", "2000", "--seed", str(seed)]
        )
        assert (code, err) == (0, "")
        digests[f"verify seed {seed}"] = hashlib.sha256(
            out.encode()
        ).hexdigest()
    assert digests == CROSSCHECK_SHA256


# sha256 of the stdout of zcheck on the first variant of every golden class
# at its catalog --beta, and of three runs that fit beta from a --budget at
# 40 % of the attainable range, recorded before the contour product took
# its ratios as complex numbers and the sampler sorted 32-bit keys.
ZCHECK_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "zcheck_digests.json").read_text()
)
ZCHECK_FITTED_BUDGETS = {0: "2332.1", 8: "118258.4", 13: "803294.16"}


def zcheck_digest_argvs(tmp_path):
    """{name: argv} of every pinned zcheck run."""
    argvs = {}
    for i, cls in enumerate(json.loads(GOLDEN.read_text())["zcheck"]):
        entry = cls["variants"][0]
        name = f"z-n{cls['n0']}-s{cls['s']}-{entry['id']}"
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(f"{p}\n" for p in entry["prices"]))
        argv = ["zcheck", "--prices", str(path), "--min-shares", "0",
                "--max-shares", str(cls["n0"])]
        argvs[f"{name} beta"] = [*argv, "--beta", entry["beta"]]
        if i in ZCHECK_FITTED_BUDGETS:
            argvs[f"{name} fitted"] = [
                *argv, "--budget", ZCHECK_FITTED_BUDGETS[i]
            ]
    return argvs


def test_zcheck_reports_match_their_pinned_digests(capsys, tmp_path):
    digests = {}
    for name, argv in zcheck_digest_argvs(tmp_path).items():
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), name
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    assert len(digests) == 18
    assert digests == ZCHECK_SHA256
