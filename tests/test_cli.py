"""End-to-end CLI behaviour: reports, determinism, exit codes."""

import json
import math

import pytest

from bealloc import solver
from bealloc.cli import main, read_prices
from bealloc.errors import InputError


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
