"""End-to-end tests of the command-line surface: CSV contracts, exit codes,
config handling, and the acceptance-check entry point."""

import contextlib
import hashlib
import io
import marshal
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krawtchouk_wkb.accuracy import CRITERIA, FIGURES
from krawtchouk_wkb.cli import load_config, main, render_ratio
from krawtchouk_wkb.exact_core import DomainError, Params, scaled_sum
from krawtchouk_wkb import region_formulas
from krawtchouk_wkb.region_formulas import approx_row as real_approx_row, evaluate_region
from fractions import Fraction

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split CLI output into (metadata dict, header list, rows of lists)."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_tiny_grid_exact_values(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--N", "2", "--q", "0.5")
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["x", "n", "N", "exact"]
        assert meta["q"] == "0.5" and meta["p"] == "0.5" and meta["N"] == "2"
        table = {(int(r[1]), int(r[0])): r[3] for r in rows}
        assert [table[(0, x)] for x in range(3)] == ["1", "1", "1"]
        assert [table[(1, x)] for x in range(3)] == ["-1", "0", "1"]
        assert [table[(2, x)] for x in range(3)] == ["0.25", "-0.25", "0.25"]

    def test_rows_are_degree_major(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--N", "3", "--q", "0.25")
        _, _, rows = parse_csv(out)
        order = [(int(r[1]), int(r[0])) for r in rows]
        assert order == [(n, x) for n in range(4) for x in range(4)]

    def test_column_zero_closed_form(self, capsys):
        # a generous digit budget makes the terminating decimals exact
        N = 7
        _, out, _ = run_cli(
            capsys, "eval", "--N", str(N), "--q", "0.74894783", "--x", "0", "--digits", "80"
        )
        _, _, rows = parse_csv(out)
        p = Fraction("0.25105217")
        for row in rows:
            n = int(row[1])
            expected = math.comb(N, n) * (-p) ** n
            assert Fraction(row[3]) == expected

    def test_probability_round_trips_in_metadata(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--N", "4", "--q", "0.74894783", "--n", "0")
        meta, _, _ = parse_csv(out)
        assert meta["q"] == "0.74894783"
        assert meta["p"] == "0.25105217"

    def test_digits_controls_rendering(self, capsys):
        # K_1(3) = 3 - 3p = 0.999999999: nine significant digits survive a
        # 30-digit budget but collapse to the canonical "1" at five
        base = ("eval", "--N", "3", "--q", "0.333333333", "--n", "1", "--x", "3")
        _, out, _ = run_cli(capsys, *base, "--digits", "30")
        assert parse_csv(out)[2][0][3] == "0.999999999"
        _, out, _ = run_cli(capsys, *base, "--digits", "5")
        assert parse_csv(out)[2][0][3] == "1"

    def test_digits_is_an_eval_flag_only(self, capsys):
        # compare and figures write no exact decimal; their p and eps meta
        # lines are rendered at 30 digits, and they take no --digits.
        for argv in (("compare", "--N", "4", "--q", "0.5", "--digits", "5"), ("figures", "3", "--digits", "5")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "") and "unrecognized arguments: --digits 5" in err

    def test_deterministic_output(self, capsys, tmp_path):
        args = ("eval", "--N", "12", "--q", "0.64894783")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(list(args) + ["--out", str(out_a)]) == 0
        assert main(list(args) + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_range_flags(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--N", "9", "--q", "0.5", "--n-range", "2:4", "--x-range", "0:1"
        )
        _, _, rows = parse_csv(out)
        assert len(rows) == 3 * 2
        assert {int(r[1]) for r in rows} == {2, 3, 4}
        assert {int(r[0]) for r in rows} == {0, 1}

    def test_n600_rows_and_meta_lines_are_pinned(self, capsys):
        # eval_N600.sha256 holds, in sha256sum's format, the digests of five
        # N=600 eval rows (n = 0, 1, 300, 599, 600), whose cells are ratios
        # of integers thousands of digits long, and of the '#' lines of a
        # compare, whose p and eps are rendered the same way at 30 digits.
        # The meta lines do not depend on the grid range, so one point does.
        pins = dict(reversed(line.split()) for line in (DATA / "eval_N600.sha256").read_text().splitlines())
        assert len(pins) == 6
        for n in (0, 1, 300, 599, 600):
            name = f"eval_N600_q0.54894787_n{n}.csv"
            code, out, err = run_cli(capsys, "eval", "--N", "600", "--q", "0.54894787", "--n", str(n))
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins[name], name
        code, out, _ = run_cli(capsys, "compare", "--N", "200", "--q", "0.64894783", "--n", "0", "--x", "0")
        meta = "".join(line + "\n" for line in out.splitlines() if line.startswith("#"))
        assert code == 0
        assert hashlib.sha256(meta.encode("utf-8")).hexdigest() == pins["compare_N200_q0.64894783.meta"]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


class TestCompare:
    def test_single_point_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--N", "100", "--q", "0.74894783", "--n", "80", "--x", "20"
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == [
            "x", "n", "N", "region", "mirrored", "exact_sign", "exact_ln_mag",
            "approx_sign", "approx_ln_mag", "norm_err", "im_residue",
        ]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["region"] == "VII"
        assert row["exact_sign"] == row["approx_sign"] == "1"
        assert float(row["norm_err"]) < 0.01
        assert float(row["im_residue"]) == 0.0

    def test_signs_match_exact_throughout_a_row(self, capsys):
        _, out, _ = run_cli(
            capsys, "compare", "--N", "50", "--q", "0.74894783", "--n", "40"
        )
        _, header, rows = parse_csv(out)
        for r in rows:
            row = dict(zip(header, r))
            if float(row["norm_err"]) < 0.3 and row["exact_sign"] != "0":
                assert row["approx_sign"] == row["exact_sign"], f"x={row['x']}"

    def test_forced_region_skips_out_of_domain_points(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--N", "100", "--q", "0.74894783",
            "--n", "10", "--x-range", "0:40", "--region", "X",
        )
        assert code == 0
        # one stderr line per exception class says how many were skipped and why
        assert err.splitlines() == [
            "compare --region X: skipped 5 of 41 points on DomainError, first at "
            "(x, n) = (0, 10): point (y=0.0, z=0.1) is not between the turning curves"
        ]
        meta, header, rows = parse_csv(out)
        assert meta["region_override"] == "X"
        blank = [r for r in rows if dict(zip(header, r))["approx_ln_mag"] == ""]
        filled = [r for r in rows if dict(zip(header, r))["approx_ln_mag"] != ""]
        assert len(blank) == 5 and filled  # exterior points blank, interior points filled
        for r in filled:
            assert float(dict(zip(header, r))["norm_err"]) < 0.10

    def test_forced_iv_reports_the_reflection(self, capsys):
        # Forced IV is III on the reflected grid, so every evaluated row says
        # mirrored = 1, as the library's value does; a refused point has no
        # value and keeps 0.
        N, q = 40, "0.74894783"
        code, out, _ = run_cli(capsys, "compare", "--N", str(N), "--q", q, "--region", "IV")
        assert code == 0
        _, header, rows = parse_csv(out)
        params = Params.from_q(N, q)
        filled = [dict(zip(header, r)) for r in rows if dict(zip(header, r))["approx_ln_mag"]]
        assert len(filled) == 238 and len(rows) == (N + 1) ** 2
        for row in filled:
            av = evaluate_region("IV", int(row["n"]), [int(row["x"])], params)[0]
            assert row["mirrored"] == str(int(av.region.mirrored)) == "1"
        assert {r[4] for r in rows if not dict(zip(header, r))["approx_ln_mag"]} == {"0"}

    def test_forced_corner_evaluates_where_hermite_leaves_the_doubles(self, capsys):
        # Forced II far above its layer: H_999(-22.36) overflows a double, and
        # the point was skipped; its log form now matches mpmath's value of
        # the corner form (pq/(2 eps))^(n/2) H_n(eta) / n!.
        N, q, n = 1000, "0.5", 999
        code, out, err = run_cli(capsys, "compare", "--N", str(N), "--q", q,
                                 "--region", "II", "--n", str(n), "--x", "0")
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        params = Params.from_q(N, q)
        p, q, eps = params.pf, params.qf, params.eps
        with mp.workdps(60):
            H = mp.hermite(n, -p / math.sqrt(2.0 * p * q * eps))
            ln_ref = 0.5 * n * mp.log(p * q / (2 * eps)) - mp.loggamma(n + 1) + mp.log(abs(H))
        assert row["approx_sign"] == str(int(mp.sign(H)))
        assert float(row["approx_ln_mag"]) == pytest.approx(float(ln_ref), rel=1e-10)

    @pytest.mark.parametrize("region, limit", [("III", "z < p"), ("IV", "z < q")])
    def test_forced_exterior_skips_name_the_z_limit(self, capsys, region, limit):
        code, _, err = run_cli(
            capsys, "compare", "--N", "40", "--q", "0.74894783", "--region", region,
        )
        assert code == 0
        assert len(err.splitlines()) == 1
        assert limit in err and "y_pm" not in err

    def test_approximation_beyond_double_range_of_envelope(self, capsys):
        # At the far right of this top row the exact values are ~e^-970 while
        # the forced top-row formula gives ~e^-12 (the classifier mirrors
        # that point): the windowed error is unbounded and must be reported
        # as inf rather than crash the metric.
        code, out, _ = run_cli(
            capsys, "compare", "--N", "150", "--q", "0.001", "--n", "146", "--region", "XI"
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 151
        errs = {int(r[0]): dict(zip(header, r))["norm_err"] for r in rows}
        assert errs[149] == "inf"
        assert math.isfinite(float(errs[0]))

    def test_large_N_single_row(self, capsys):
        # One row of an N=800 table: computed on its own, not from the full
        # table, and still exact.
        N, q = 800, "0.64894783"
        code, out, _ = run_cli(capsys, "compare", "--N", str(N), "--q", q, "--n", "10")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == N + 1
        params = Params.from_q(N, q)
        for x in (0, 3, 281, 555, 800):
            row = dict(zip(header, rows[x]))
            scaled = scaled_sum(10, x, params)  # denom**10 * K_10(x); math.log takes big ints
            sign, ln = (scaled > 0) - (scaled < 0), math.log(abs(scaled)) - 10 * math.log(params.denom)
            assert int(row["exact_sign"]) == sign
            assert float(row["exact_ln_mag"]) == pytest.approx(ln, rel=1e-11, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ("--N", "1040", "--q", "0.7", "--n", "312"),
        ("--N", "3000", "--q", "0.77", "--n", "690", "--x-range", "0:20"),
        ("--N", "3000", "--q", "0.23", "--n", "690"),  # the mirrored case: z = q
    ])
    def test_row_z_equal_p_where_n_eps_misses_p(self, capsys, argv):
        # pN is an integer, but n*eps is one ulp off the float p (or q).
        code, out, err = run_cli(capsys, "compare", *argv)
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        ln_mags = {float(dict(zip(header, row))["approx_ln_mag"]) for row in rows}
        assert not any(math.isnan(v) or v == math.inf for v in ln_mags)  # -inf: D_x(0) = 0 at odd x

    def test_exact_cylinder_zero_on_the_grid(self, capsys):
        # N=16, q=1/2 puts the zero D_2(1) = 0 under several VI and XII
        # points; each reports an exact zero and the grid completes.
        code, out, err = run_cli(capsys, "compare", "--N", "16", "--q", "0.5")
        assert code == 0, err
        _, header, rows = parse_csv(out)
        assert len(rows) == 17 * 17
        row = dict(zip(header, rows[6 * 17 + 2]))  # (x, n) = (2, 6)
        assert (row["region"], row["approx_sign"], row["approx_ln_mag"]) == ("VI", "0", "-inf")

    def test_golden_csv_byte_for_byte(self, capsys):
        # A fixed invocation must keep printing the same bytes.  The file is
        # this command's output, covering 11 labels (IX and the mirrored IV*,
        # VI*, VIII* among them); a change that fixes a documented defect
        # regenerates it in the same diff.
        golden = Path(__file__).parent / "data" / "compare_N24_q0.74894783.csv"
        code, out, _ = run_cli(capsys, "compare", "--N", "24", "--q", "0.74894783")
        assert code == 0
        assert out.encode("utf-8") == golden.read_bytes()

    @pytest.mark.parametrize("q, region", [("0.34894783", "VIII"), ("0.74894783", "IX")])
    def test_forced_strip_golden_byte_for_byte(self, capsys, q, region):
        # Forcing each turning-strip formula over the whole N=24 grid pins
        # 800 strip evaluations: VIII below z = p, IX above it, 317 of them
        # on airy_ai's asymptotic branch.  Refused points print empty
        # approx cells and a skip line, so the files also pin each formula's
        # domain.
        stem = f"compare_N24_q{q}_{region}"
        code, out, err = run_cli(capsys, "compare", "--N", "24", "--q", q, "--region", region)
        assert code == 0
        assert out.encode("utf-8") == (DATA / f"{stem}.csv").read_bytes()
        assert err.encode("utf-8") == (DATA / f"{stem}.err").read_bytes()

    @pytest.mark.parametrize("q, region", [
        ("0.74894783", "X"), ("0.74894783", "VII"), ("0.34894783", "III"),
        ("0.34894783", "IV"),
    ])
    def test_forced_branch_golden_byte_for_byte(self, capsys, q, region):
        # The branch-log regions forced over the whole N=24 grid, with the
        # skip lines on stderr: X refuses 244 points, the first in y_pm at
        # z = 0; VII refuses points both on DomainError and, on the top row,
        # on SingularityError; IV is III on the reflected grid.  The files pin
        # each region's values, its domain, and which error each refused
        # point raises first.
        stem = f"compare_N24_q{q}_{region}"
        code, out, err = run_cli(capsys, "compare", "--N", "24", "--q", q, "--region", region)
        assert code == 0
        assert out.encode("utf-8") == (DATA / f"{stem}.csv").read_bytes()
        assert err.encode("utf-8") == (DATA / f"{stem}.err").read_bytes()

    @pytest.mark.parametrize("region", ["I", "II", "V", "VI", "XI", "XII"])
    def test_forced_layer_golden_byte_for_byte(self, capsys, region):
        # The layer formulas forced over the whole N=24 grid: V refuses the
        # 200 points outside p < z < 1; I, II, VI, XI and XII evaluate all 625
        # and print no skip line, so their stderr files are empty.  With the
        # strip and branch goldens this pins all twelve tags.
        stem = f"compare_N24_q0.74894783_{region}"
        code, out, err = run_cli(capsys, "compare", "--N", "24", "--q", "0.74894783", "--region", region)
        assert code == 0
        assert out.encode("utf-8") == (DATA / f"{stem}.csv").read_bytes()
        assert err.encode("utf-8") == (DATA / f"{stem}.err").read_bytes()

    @pytest.mark.parametrize("q, digest", [
        ("0.34894783", "c2f8c8551075825e16ebe708215bb7a121a357ed71a93fa252be2c725f8c1894"),
        ("0.64894783", "1c9ffc72a24c51e84ee679a1796cf4dd6e63ce24378558e5b06f52635009e984"),
        ("0.74894783", "88649154d7a5996fb0955a7a68ddc30bc5c1d86b0ec6a98f99199122b0c60850"),
    ])
    def test_full_grid_bytes_are_pinned(self, q, digest):
        # The SHA-256 of the whole N=100 grid's output, recorded before the
        # branch regions were evaluated a row at a time: every one of the
        # 10,201 lines must keep its bytes.  full_grid_errors.csv pins only
        # the error quantiles per region.
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["compare", "--N", "100", "--q", q]) == 0
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_figures_bytes_are_pinned(self, capsys):
        # figures.sha256 holds, in sha256sum's format, the digest of each
        # built-in sweep's stdout: the N = 20, 40 and 50 rows it covers
        # appear in no other golden.
        pins = [line.split() for line in (DATA / "figures.sha256").read_text().splitlines()]
        assert [name for _, name in pins] == [f"figures_{k}.csv" for k in range(3, 15)]
        for digest, name in pins:
            code, out, err = run_cli(capsys, "figures", name[len("figures_"):-len(".csv")])
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name

    def test_forced_layers_at_N100_are_pinned(self, capsys):
        # forced_N100.sha256 holds the digests of stdout (.csv) and stderr
        # (.err) for each of the twelve regions forced over the whole N=100
        # grid at three q, pinned above the N=24 goldens: every formula,
        # evaluated on each row's run from one record per row, and the skip
        # lines of the points it refuses.  forced_N16.sha256 adds
        # the N=16 grid with p = 1/4, where XI refuses y = q in the middle
        # of each row's run and V, VIII and IX refuse points on both errors.
        pins = {}
        for name in ("forced_N100.sha256", "forced_N16.sha256"):
            pins.update(reversed(line.split()) for line in (DATA / name).read_text().splitlines())
        stems = sorted({name.rsplit(".", 1)[0] for name in pins})
        assert len(stems) == 48 and len(pins) == 96
        for stem in stems:
            _, N, q, region = stem.split("_")
            code, out, err = run_cli(capsys, "compare", "--N", N[1:], "--q", q[1:], "--region", region)
            assert code == 0, stem
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins[f"{stem}.csv"], stem
            assert hashlib.sha256(err.encode("utf-8")).hexdigest() == pins[f"{stem}.err"], stem

    def test_full_grid_never_loads_mpmath(self):
        # One fresh interpreter runs every subcommand: mpmath is only
        # imported by the special functions that no command reaches.  It
        # runs them on one usable CPU, so that no row or criterion runs in
        # a child whose imports this process cannot see.
        import krawtchouk_wkb

        runs = [
            ["compare", "--N", "60", "--q", "0.64894783"],
            ["eval", "--N", "30", "--q", "0.64894783"],
            ["regions", "--N", "60", "--q", "0.54894783"],
            *(["figures", str(k)] for k in range(3, 15)),
            ["check"],
        ]
        code = (
            "import io, sys, contextlib\n"
            "import krawtchouk_wkb.cli as cli\n"
            "cli._usable_cpus = lambda: 1\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('mpmath' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(krawtchouk_wkb.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_compare_start_up_loads_no_pool_or_mpmath(self):
        # Forked children pickle only an exception, and only the special
        # functions no command reaches import mpmath: a plain compare in a
        # fresh interpreter pays for none of them, nor for select or
        # multiprocessing.
        import krawtchouk_wkb

        code = (
            "import io, sys, contextlib\n"
            "import krawtchouk_wkb.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['compare', '--N', '20', '--q', '0.64894783']) == 0\n"
            "print(sorted(m for m in ('pickle', 'select', 'multiprocessing', 'mpmath') if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(krawtchouk_wkb.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"


@contextlib.contextmanager
def _on_cpus(cpus, block_rows=3):
    """compare's rows on `cpus` usable CPUs, in blocks of `block_rows` rows."""
    with mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=cpus), \
            mock.patch("krawtchouk_wkb.cli._BLOCK_ROWS", block_rows):
        yield


class TestRowBlocks:
    """compare's rows on forked children, in blocks of three rows here so
    that each child serves several blocks and the last block is short."""

    @pytest.mark.parametrize("argv", [
        ("compare", "--N", "40", "--q", "0.64894783"),
        ("compare", "--N", "24", "--q", "0.74894783", "--region", "VII"),
        ("compare", "--N", "60", "--q", "0.34894783", "--n-range", "7:20", "--x-range", "5:44"),
    ])
    def test_two_cpus_write_the_bytes_of_one(self, capsys, tmp_path, argv):
        runs = []
        for cpus in (1, 2):
            path = tmp_path / f"cpus{cpus}.csv"
            with _on_cpus(cpus), mock.patch("os.fork", wraps=os.fork) as fork:
                code, out, err = run_cli(capsys, *argv)
                assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
            assert fork.call_count == (0 if cpus == 1 else 4)  # two children per run
            runs.append((code, out, err, path.read_bytes()))
        assert runs[0] == runs[1]
        code, out, err, written = runs[1]
        assert code == 0 and written == out.encode("utf-8")
        if "--region" in argv:
            # Two skip classes, each with its count over all blocks and the
            # first point it was raised at, as the golden holds them.
            assert err.count("\n") == 2
            assert err.encode("utf-8") == (DATA / "compare_N24_q0.74894783_VII.err").read_bytes()

    @pytest.mark.parametrize("fault, rows_kept, error", [
        ("raises", 10, "error: row ten could not run\n"),
        ("killed", 9, "error: rows n = 9..11: its worker ended without a result\n"),
    ])
    def test_failure_mid_block_keeps_the_rows_before_it(self, capsys, fault, rows_kept, error):
        # Row 10 is the second row of the block 9..11.  Raised there, the
        # child sends row 9 and then the exception, so two CPUs print what
        # one does; a child killed there takes row 9 with it.
        parent = os.getpid()

        def approx_row(n, xs, params, cfg):
            if n == 10:
                if fault == "killed" and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise DomainError("row ten could not run")
            return real_approx_row(n, xs, params, cfg)

        runs = []
        for cpus in (1, 2):
            with _on_cpus(cpus), mock.patch("krawtchouk_wkb.cli.approx_row", approx_row):
                runs.append(run_cli(capsys, "compare", "--N", "20", "--q", "0.64894783"))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert runs[0][0] == runs[1][0] == 1
        assert runs[0][2] == "error: row ten could not run\n" and runs[1][2] == error
        _, _, rows = parse_csv(runs[1][1])
        assert [row[1] for row in rows] == [str(n) for n in range(rows_kept) for _ in range(21)]
        assert runs[0][1].startswith(runs[1][1])
        if fault == "raises":
            assert runs[0] == runs[1]

    def test_worker_killed_while_it_sends_a_block(self, capsys):
        # The child sends half of its first block's object and dies: the
        # short object reads as a worker that ended without a result.
        parent = os.getpid()

        def dump(obj, out):
            assert os.getpid() != parent, "the block was sent in process"
            data = marshal.dumps(obj)
            out.write(data[:len(data) // 2])
            out.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        with _on_cpus(2, block_rows=16), \
                mock.patch("krawtchouk_wkb.cli.marshal", SimpleNamespace(dump=dump, load=marshal.load)):
            code, out, err = run_cli(capsys, "compare", "--N", "40", "--q", "0.64894783")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert (code, err) == (1, "error: rows n = 0..15: its worker ended without a result\n")
        assert parse_csv(out)[2] == []

    def test_writer_that_fails_stops_every_child(self):
        # stdout fails after the header, as on a full disk: the children
        # still computing are stopped and reaped before main returns.  A
        # fresh interpreter runs it, so that a child left blocked on its
        # pipe fails the test after the timeout instead of stalling the suite.
        import krawtchouk_wkb

        code = (
            "import contextlib, errno, io, os\n"
            "from unittest import mock\n"
            "import krawtchouk_wkb.cli as cli\n"
            "class Full(io.StringIO):\n"
            "    def write(self, text):\n"
            "        if self.tell():\n"
            "            raise OSError(errno.ENOSPC, 'No space left on device')\n"
            "        return super().write(text)\n"
            "with mock.patch.object(cli, '_usable_cpus', return_value=2), contextlib.redirect_stdout(Full()):\n"
            "    code = cli.main(['compare', '--N', '200', '--q', '0.64894783'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print(code, 'no child left')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(krawtchouk_wkb.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
        assert (done.stdout, done.stderr) == ("1 no child left\n", "error: [Errno 28] No space left on device\n")


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


class TestRegions:
    def test_full_grid_and_bottom_row(self, capsys):
        N = 30
        code, out, _ = run_cli(capsys, "regions", "--N", str(N), "--q", "0.64894783")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["x", "n", "region"]
        assert len(rows) == (N + 1) ** 2
        bottom = {r[2] for r in rows if r[1] == "0"}
        assert bottom <= {"I", "II"}
        top = {r[2] for r in rows if r[1] == str(N)}
        assert top <= {"XI", "XII"}

    def test_golden_map_byte_for_byte(self, capsys):
        # The map as written before the classifier read per-row constants;
        # N=40 at this q has eleven regions (all but VII) and five mirrored
        # labels (IV*, V*, VI*, VIII*, XI*).
        golden = Path(__file__).parent / "data" / "regions_N40_q0.54894783.csv"
        code, out, _ = run_cli(capsys, "regions", "--N", "40", "--q", "0.54894783")
        assert code == 0
        assert out.encode("utf-8") == golden.read_bytes()

    def test_zero_width_map_byte_for_byte(self, capsys):
        # Every layer width zero: no corner, edge or strip label, so each row
        # is cut by the turning curves alone.
        golden = DATA / "regions_N40_q0.54894783_zero.csv"
        code, out, _ = run_cli(capsys, "regions", "--N", "40", "--q", "0.54894783",
                               "--config", str(DATA / "zero_widths.cfg"))
        assert code == 0
        assert out.encode("utf-8") == golden.read_bytes()

    @pytest.mark.parametrize("N, q, config, digest", [
        ("400", "0.54894783", None, "96499ed32849604297c3abe2911c5ff6357a094d32a20ae1a88ff871cf96e3d7"),
        ("400", "1/2", None, "fdd7290158e847cfb20caab6daade94c15c207bb48ec65861b3436acbfacafc2"),
        ("100", "0.74894783", "zero_widths.cfg",
         "58bdac48c847f40829234ba8c5738f21a5674f4b84d75899c16974537547fe32"),
    ])
    def test_map_bytes_are_pinned(self, N, q, config, digest):
        # The SHA-256 of the whole map, recorded while the classifier still
        # tested every point on its own: each label must keep its bytes.
        argv = ["regions", "--N", N, "--q", q]
        if config:
            argv += ["--config", str(DATA / config)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_config_overrides_change_the_map(self, capsys, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("beta_max=0\n")
        _, out_default, _ = run_cli(capsys, "regions", "--N", "40", "--q", "0.64894783")
        _, out_zero, _ = run_cli(
            capsys, "regions", "--N", "40", "--q", "0.64894783", "--config", str(cfg)
        )
        tags_default = {r[2].rstrip("*") for r in parse_csv(out_default)[2]}
        tags_zero = {r[2].rstrip("*") for r in parse_csv(out_zero)[2]}
        assert "VIII" in tags_default
        assert "VIII" not in tags_zero and "IX" not in tags_zero

    def test_config_values_take_the_field_types(self, tmp_path):
        cfg_file = tmp_path / "types.cfg"
        cfg_file.write_text("x_small=3\nbeta_max=1\n")
        cfg = load_config(str(cfg_file))
        assert type(cfg.x_small) is int and cfg.x_small == 3
        assert type(cfg.beta_max) is float and cfg.beta_max == 1.0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


class TestFigures:
    @pytest.mark.parametrize(
        "fig_id,N,q,n",
        [(5, 100, "0.34894783", 10), (13, 20, "0.74894783", 19), (14, 20, "0.74894783", 20)],
    )
    def test_builtin_sweep_parameters(self, capsys, fig_id, N, q, n):
        code, out, _ = run_cli(capsys, "figures", str(fig_id))
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert meta["figure"] == str(fig_id)
        assert meta["N"] == str(N) and meta["q"] == q and meta["n"] == str(n)
        assert len(rows) == N + 1

    def test_crossover_figure_reports_corner_variable(self, capsys):
        _, out, _ = run_cli(capsys, "figures", "8")
        meta, _, _ = parse_csv(out)
        assert meta["u"] == "0.024265"

    def test_unknown_id_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "figures", "2")
        assert code == 1
        assert "unknown figure id" in err


# ---------------------------------------------------------------------------
# output: written a row at a time, to stdout or --out
# ---------------------------------------------------------------------------


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ("compare", "--N", "24", "--q", "0.74894783"),
        ("compare", "--N", "24", "--q", "0.74894783", "--region", "VII"),
        ("eval", "--N", "12", "--q", "0.64894783"),
        ("regions", "--N", "40", "--q", "0.54894783"),
        ("figures", "13"),
    ])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        path = tmp_path / "out.csv"
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("command", ["compare", "eval"])
    def test_memory_holds_one_row(self, tmp_path, command):
        # The whole grid's exact integers grow as N³ bits and take 3.2 MB
        # at N=80; one row and its lines take a small fraction of that.
        # tracemalloc sees this process alone, so the rows run here.
        peaks = []
        for N in (40, 80):
            tracemalloc.start()
            try:
                with mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=1):
                    assert main([command, "--N", str(N), "--q", "0.64894783", "--out", str(tmp_path / "o.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1_000_000, peaks

    @pytest.mark.parametrize("argv", [
        ("compare", "--N", "200", "--q", "0.64894783"),
        ("regions", "--N", "400", "--q", "0.54894783"),
    ])
    def test_closed_pipe_ends_quietly(self, argv):
        # The reader takes one line and leaves, as `| head -1` does; stdout
        # is block-buffered, so the writer meets the closed pipe mid-grid.
        import krawtchouk_wkb

        env = {**os.environ, "PYTHONPATH": str(Path(krawtchouk_wkb.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        with subprocess.Popen([sys.executable, "-m", "krawtchouk_wkb", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"# tool=krawtchouk-wkb\n"
            proc.stdout.close()
            try:
                _, err = proc.communicate(timeout=30)  # a writer blocked on a full pipe fails here
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert (proc.returncode, err) == (1, b"")  # no traceback, no message

    @pytest.mark.parametrize("argv, target", [
        (("compare", "--N", "10", "--q", "0.5"), "missing/x.csv"),
        (("regions", "--N", "10", "--q", "0.5"), "."),
    ])
    def test_unwritable_out_is_an_error(self, capsys, tmp_path, argv, target):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / target))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("figures", "2"),
        ("compare", "--N", "10", "--q", "1.5"),
        ("eval", "--N", "10", "--q", "0.5", "--n-range", "3:11"),
        ("regions", "--N", "10", "--q", "0.5", "--config", "missing.cfg"),
        ("compare", "--N", "10", "--q", "0.5", "--region", "XIII"),
    ])
    def test_refused_arguments_open_no_out_file(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 1 and err.startswith("error:")
        assert not path.exists()


# ---------------------------------------------------------------------------
# argument and config errors (exit code 1)
# ---------------------------------------------------------------------------


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--N", "0", "--q", "0.5"),
            ("eval", "--N", "10", "--q", "0.5", "--x-range", "5"),
            ("eval", "--N", "10", "--q", "0.5", "--x-range", "7:3"),
            ("eval", "--N", "10", "--q", "0.5", "--n", "2", "--n-range", "0:3"),
            ("eval", "--N", "10", "--q", "0.5", "--x", "11"),
            ("eval", "--N", "10", "--q", "1.5"),
            ("compare", "--N", "10", "--q", "0.5", "--region", "XIII"),
            ("check", "--criteria", "9"),
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("listed", ["5,5", "5,7,5"])
    def test_repeated_criterion_is_refused(self, capsys, listed):
        code, out, err = run_cli(capsys, "check", "--criteria", listed)
        assert code == 1 and out == ""
        assert err == "error: criterion 5 listed twice\n"

    def test_repeated_config_key_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("x_small=3\nx_small=9\n")
        code, out, err = run_cli(capsys, "regions", "--N", "10", "--q", "0.5", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: {cfg}:2: x_small set twice\n"

    def test_bad_config_keys_and_values(self, capsys, tmp_path):
        bad_key = tmp_path / "k.cfg"
        bad_key.write_text("strip_width=1.0\n")
        code, _, err = run_cli(
            capsys, "regions", "--N", "10", "--q", "0.5", "--config", str(bad_key)
        )
        assert code == 1 and "unknown config key" in err
        bad_tol = tmp_path / "t.cfg"
        bad_tol.write_text("tol_overlp=0.0001\n")
        code, _, err = run_cli(capsys, "check", "--criteria", "5", "--config", str(bad_tol))
        assert code == 1 and "unknown config key" in err
        bad_value = tmp_path / "v.cfg"
        bad_value.write_text("beta_max=wide\n")
        code, _, err = run_cli(
            capsys, "regions", "--N", "10", "--q", "0.5", "--config", str(bad_value)
        )
        assert code == 1 and "bad value" in err
        missing = tmp_path / "missing.cfg"
        code, _, err = run_cli(
            capsys, "regions", "--N", "10", "--q", "0.5", "--config", str(missing)
        )
        assert code == 1 and "cannot read config" in err


    @pytest.mark.parametrize("argv", [("check", "--criteria", "5"), ("regions", "--N", "5", "--q", "0.5")])
    def test_tolerance_keys_are_refused(self, capsys, tmp_path, argv):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol_overlap=0.2\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: {cfg}:1: unknown config key 'tol_overlap'\n"

    def test_eval_takes_no_config(self, capsys, tmp_path):
        cfg = tmp_path / "widths.cfg"
        cfg.write_text("x_small=3\n")
        code, out, err = run_cli(capsys, "eval", "--N", "5", "--q", "0.5", "--config", str(cfg))
        assert code == 1 and out == "" and "unrecognized arguments: --config" in err

    @pytest.mark.parametrize("line", ["x_small=33", "j_small=33", "corner_width=10.606601717798213"])
    def test_widths_past_the_cylinder_bounds_evaluate(self, capsys, tmp_path, line):
        # These widths were refused while pcf_d returned a double and took
        # orders up to 32 and arguments up to 15.  Now the grid completes,
        # and each VI and XII value is the one its formula takes with
        # mpmath's D_n in place of pcf_d.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "compare", "--N", "200", "--q", "0.64894783", "--config", str(cfg))
        assert (code, err) == (0, "")
        _, header, rows = parse_csv(out)
        assert len(rows) == 201 * 201 and "nan" not in out
        corner = {}
        for r in rows:
            r = dict(zip(header, r))
            if r["region"] in ("VI", "XII"):
                corner.setdefault(int(r["n"]), []).append(r)
        assert corner

        def mp_pcf_d(n, z):
            with mp.workdps(30):
                d = mp.pcfd(n, z)
                return float(mp.sign(d)), float(mp.log(abs(d)))

        params, config = Params.from_q(200, "0.64894783"), load_config(str(cfg))
        with mock.patch.object(region_formulas, "pcf_d", mp_pcf_d):
            for n, points in corner.items():
                for r, av in zip(points, real_approx_row(n, [int(r["x"]) for r in points], params, config)):
                    assert float(r["approx_ln_mag"]) == pytest.approx(av.ln_scale, rel=1e-10, abs=1e-10)
                    assert r["approx_sign"] == str(int(math.copysign(1.0, av.value)))

    @pytest.mark.parametrize("q", ["0.34894783", "0.64894783", "0.74894783"])
    def test_widest_accepted_widths_run_the_full_grid(self, tmp_path, q):
        # The largest widths accepted while pcf_d took orders up to 32 and
        # arguments up to 15.
        cfg = tmp_path / "widest.cfg"
        cfg.write_text("x_small=32\nj_small=32\ncorner_width=10.606601717798211\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compare", "--N", "200", "--q", q, "--config", str(cfg)]) == 0
        assert out.getvalue().count("\n") == 9 + 201 * 201

    @pytest.mark.parametrize("line", ["corner_width=1e308", "beta_max=1e308"])
    def test_widths_wider_than_the_grid_run(self, capsys, tmp_path, line):
        # The map cuts each row where a layer's test flips, from a guess
        # that such a width makes infinite: one layer then covers its rows.
        # The grid completes, and check fails its criteria with no error.
        cfg = tmp_path / "wider.cfg"
        cfg.write_text(line + "\n")
        for command in ("regions", "compare"):
            code, out, err = run_cli(capsys, command, "--N", "100", "--q", "0.5", "--config", str(cfg))
            assert (code, err) == (0, "")
            assert len(parse_csv(out)[2]) == 101 * 101
        code, out, err = run_cli(capsys, "check", "--config", str(cfg))
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert len(lines) == 8 and all(l.startswith(("PASS", "FAIL")) for l in lines[:7])
        assert lines[7] == "acceptance: FAIL"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


class TestCheck:
    def test_fast_criteria_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--criteria", "5,7")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 2
        assert all(l.startswith("PASS") for l in lines)
        assert out.splitlines()[-1] == "acceptance: PASS"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_output_matches_golden(self, capsys, cpus):
        # Every PASS line, detail and all, is pinned; only the seconds vary.
        # The file is this command's output with "(N.Ns)" for the seconds.
        # One usable CPU runs the criteria in process, two on two workers.
        golden = Path(__file__).parent / "data" / "check_stdout.txt"
        with mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=cpus):
            code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert re.sub(r"\(\d+\.\ds\)", "(N.Ns)", out) == golden.read_text(encoding="utf-8")

    def test_lines_keep_the_requested_order(self, capsys):
        # Criterion 5 finishes long before 1 on the other worker.
        with mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=2):
            code, out, _ = run_cli(capsys, "check", "--criteria", "1,5,7")
        assert code == 0
        assert [line[:17] for line in out.splitlines()] == [
            "PASS  criterion-1", "PASS  criterion-5", "PASS  criterion-7", "acceptance: PASS"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fail_on_a_worker_prints_its_line(self, capsys, tmp_path, cpus):
        cfg = tmp_path / "no_strips.cfg"
        cfg.write_text("beta_max=0\n")
        with mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=cpus):
            code, out, _ = run_cli(capsys, "check", "--criteria", "4,5", "--config", str(cfg))
        assert code == 2
        lines = out.splitlines()
        assert lines[0].startswith("FAIL  criterion-4 matching overlaps")
        assert lines[1].startswith("PASS  criterion-5")
        assert lines[2:] == ["acceptance: FAIL"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_exception_in_a_criterion_is_an_error_after_the_lines_before_it(self, capsys, cpus):
        def raises(cfg):
            raise DomainError("criterion six could not run")

        with mock.patch.dict(CRITERIA, {6: ("expansion residuals", raises)}), \
                mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=cpus):
            code, out, err = run_cli(capsys, "check", "--criteria", "5,6,7")
        assert code == 1
        assert [line[:17] for line in out.splitlines()] == ["PASS  criterion-5"]
        assert err == "error: criterion six could not run\n"

    def test_worker_killed_before_it_answers(self, capsys):
        parent = os.getpid()

        def dies(cfg):
            assert os.getpid() != parent, "criterion 7 ran in process"
            os.kill(os.getpid(), signal.SIGKILL)

        with mock.patch.dict(CRITERIA, {7: ("special-function anchors", dies)}), \
                mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=2):
            code, out, err = run_cli(capsys, "check", "--criteria", "5,7")
        assert code == 1
        assert err == "error: criterion 7: its worker ended without a result\n"

    @pytest.mark.parametrize("fault, code", [(None, 0), ("raises", 1), ("killed", 1)])
    def test_no_child_is_left_behind(self, capsys, fault, code):
        # Criterion 1 is still running when 6 fails first in the order wanted.
        def raises(cfg):
            raise DomainError("criterion six could not run")

        def killed(cfg):
            os.kill(os.getpid(), signal.SIGKILL)

        faults = {None: {}, "raises": {6: ("expansion residuals", raises)},
                  "killed": {6: ("expansion residuals", killed)}}
        with mock.patch.dict(CRITERIA, faults[fault]), \
                mock.patch("krawtchouk_wkb.cli._usable_cpus", return_value=2):
            assert run_cli(capsys, "check", "--criteria", "6,1,5")[0] == code
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_small_tolerance_prints_its_digits(self, capsys):
        with mock.patch.dict(FIGURES, {3: FIGURES[3]._replace(bar=0.001)}), \
                mock.patch("krawtchouk_wkb.accuracy._OVERLAP_BAR", 0.0001):
            code, out, _ = run_cli(capsys, "check", "--criteria", "2,4")
        assert code == 2
        assert "fig3: worst 4.53% > 0.1% at x=56" in out
        assert "III-VIII: gap 9.73% > 0.01%" in out

    def test_figure_sweep_reads_its_own_bar(self, capsys):
        # Figure 10's worst error is 6.44%: inside its 8% bar, outside 6%.
        with mock.patch.dict(FIGURES, {10: FIGURES[10]._replace(bar=0.06)}):
            code, out, _ = run_cli(capsys, "check", "--criteria", "2")
        assert code == 2
        assert out.startswith("FAIL  criterion-2 figure reproduction")
        assert out.splitlines()[0].endswith(": fig10: worst 6.44% > 6% at x=94")

    def test_degenerate_config_fails_overlap_criterion(self, capsys, tmp_path):
        cfg = tmp_path / "no_strips.cfg"
        cfg.write_text("beta_max=0\n")
        code, out, _ = run_cli(
            capsys, "check", "--criteria", "4", "--config", str(cfg)
        )
        assert code == 2
        assert "FAIL" in out
        assert out.splitlines()[-1] == "acceptance: FAIL"


# ---------------------------------------------------------------------------
# rendering helper
# ---------------------------------------------------------------------------


def ref_render_fraction(value, digits):
    """The renderer as it was when it took a Fraction, but for its integer
    test, which no longer turns a huge integer into a string."""
    if value == 0:
        return "0"
    if value.denominator == 1 and abs(value.numerator) < 10**digits:
        return str(value.numerator)
    with localcontext() as ctx:
        ctx.prec = digits
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    text = str(dec)
    if "E" not in text and "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def rendered(value: Fraction, digits: int) -> str:
    return render_ratio(value.numerator, value.denominator, digits)


@st.composite
def ratios(draw):
    """(num, den, digits): integers, short exact decimals, repeating decimals,
    values past the digit budget and eval-sized cells, with den not in lowest
    terms, and exact ties at the digit budget."""
    kind = draw(st.sampled_from(["integer", "decimal", "any", "huge", "eval", "tie"]))
    if kind == "integer":
        num, den = draw(st.integers(-10**40, 10**40)), 1
    elif kind == "decimal":
        num = draw(st.integers(-10**12, 10**12))
        den = 2 ** draw(st.integers(0, 20)) * 5 ** draw(st.integers(0, 20))
    elif kind == "any":
        num, den = draw(st.integers(-10**30, 10**30)), draw(st.integers(1, 10**15))
    elif kind == "huge":
        num = draw(st.integers(-10**80, 10**80)) * 10 ** draw(st.integers(0, 40))
        den = draw(st.integers(1, 10**6))
    elif kind == "eval":  # an N=600 eval cell: up to ~16,000 bits over denom**n
        n = draw(st.integers(0, 600))
        bits = draw(st.integers(1, 16_000))
        num, den = draw(st.integers(-2**bits, 2**bits)), 10 ** (8 * n)
    else:  # exactly half-way between two values of `digits` digits
        digits = draw(st.integers(1, 40))
        num = (10 * draw(st.integers(10 ** (digits - 1), 10**digits - 1)) + 5) * draw(st.sampled_from([1, -1]))
        return num, 10 ** draw(st.integers(0, 60)), digits
    k = draw(st.integers(1, 10**6))
    return num * k, den * k, draw(st.integers(1, 40))


class TestRendering:
    def test_exact_decimal_round_trip(self):
        assert rendered(Fraction("0.74894783"), 30) == "0.74894783"
        assert rendered(Fraction("0.25105217"), 30) == "0.25105217"

    def test_integers_render_without_point(self):
        assert rendered(Fraction(252), 30) == "252"
        assert rendered(Fraction(-1), 30) == "-1"
        assert rendered(Fraction(0), 30) == "0"

    def test_repeating_decimal_is_correctly_rounded(self):
        assert rendered(Fraction(1, 3), 5) == "0.33333"
        assert rendered(Fraction(2, 3), 5) == "0.66667"

    def test_huge_values_use_scientific_notation(self):
        text = rendered(Fraction(10) ** 45 + 1, 10)
        assert "E" in text or "e" in text

    @given(case=ratios())
    @example(case=(0, 7, 3))
    @example(case=(10**45 * 7, 7, 10))  # an exact integer past the budget
    @example(case=(10**4400 * 7, 7, 30))  # past int's 4300-digit str() limit
    @example(case=(30, 4, 30))  # 7.5, unreduced
    @example(case=(-123456789, 1000, 4))
    @settings(max_examples=300, deadline=None)
    def test_unreduced_ratio_renders_as_its_fraction(self, case):
        # eval renders each cell from the row's integer and denom**n without
        # reducing them; the quotient, and so its text, must be the same.
        num, den, digits = case
        assert render_ratio(num, den, digits) == ref_render_fraction(Fraction(num, den), digits)
