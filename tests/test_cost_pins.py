"""Cost pins: each quantity is computed once per row, or once per point of
the regions that need it, held by call counts of the package's public
functions and module-level kernels.  Unlike wall times, a call count is the
same on every run, so a bound here fails only on a real change.  Each bound
is an upper bound written as a formula in N, so a change that lowers a count
passes unchanged."""

import cProfile
import csv
import os
import pstats
from collections import Counter

import pytest

from krawtchouk_wkb import cli, exact_core, region_formulas, special_fns, state_space, wkb_core

PINNED_Q = ["0.34894783", "0.64894783", "0.74894783"]
N = 100

#: The region kernels; IV has none of its own (it is III on the reflected grid).
KERNELS = [f"k{i}" for i in range(1, 13) if i != 4]


def profiled(argv):
    """Run the CLI in process under cProfile: its exit code, and the calls
    of a function by its code object."""
    profile = cProfile.Profile()
    with pytest.MonkeyPatch.context() as patch:
        # One usable CPU: the rows run in this process, where the profile is.
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code = profile.runcall(cli.main, argv)
    stats = pstats.Stats(profile).stats  # (file, first line, name) -> (primitive calls, all calls, ...)

    def calls(fn):
        c = fn.__code__
        return stats.get((c.co_filename, c.co_firstlineno, c.co_name), (0, 0))[1]

    return code, calls


@pytest.fixture(scope="module", params=PINNED_Q)
def full_compare(request, tmp_path_factory):
    """A full in-process compare --N 100 at one pinned q under cProfile: the
    calls of each function the tests name, and the points of each region in
    the CSV it wrote."""
    out = tmp_path_factory.mktemp("cost") / "compare.csv"
    code, calls = profiled(["compare", "--N", str(N), "--q", request.param, "--out", str(out)])
    assert code == 0
    with out.open(encoding="utf-8", newline="") as f:
        data = (line for line in f if not line.startswith("#"))
        points = Counter(record["region"] for record in csv.DictReader(data))
    assert sum(points.values()) == (N + 1) ** 2
    return calls, points


def test_full_compare_builds_each_exact_row_once(full_compare):
    calls, _ = full_compare
    assert 0 < calls(exact_core.exact_row) <= N + 1
    assert 0 < calls(exact_core.ExactRow.__init__) <= N + 1


def test_row_terms_solved_once_per_row(full_compare):
    # The classifier and the kernels read one record per row and
    # orientation: y_pm and u0 run at most once per Row built, wherever the
    # package imports them, and compare builds at most one Row per row and
    # orientation.
    calls, _ = full_compare
    rows = calls(state_space.Row.__init__)
    assert 0 < rows <= 2 * (N + 1)
    assert calls(state_space.y_pm) <= rows and calls(state_space.u0) <= rows


def test_each_kernel_is_called_once_per_run(full_compare):
    # A kernel takes a run of one row, so it is called at most once per row
    # and orientation however many points the run holds.
    calls, _ = full_compare
    counts = {name: calls(getattr(region_formulas, name)) for name in KERNELS}
    assert {name: count for name, count in counts.items() if count > 2 * (N + 1)} == {}


def test_left_edge_phase_is_solved_once_per_row(full_compare):
    # V's phase phi0(z) is a row term: its kernel solves it once per run.
    calls, _ = full_compare
    assert 0 < calls(wkb_core.phi0) <= 2 * (N + 1)


def test_special_functions_run_once_per_point_of_their_regions(full_compare):
    calls, points = full_compare
    assert 0 < calls(special_fns.airy_ai) <= points["VIII"] + points["IX"]
    assert 0 < calls(special_fns.pcf_d) <= points["VI"] + points["XII"]
    assert 0 < calls(special_fns.hermite) <= points["II"]


#: The kernel a forced region calls; IV is III on the reflected grid.
FORCED_KERNEL = {"IV": "k3", "V": "k5", "VIII": "k8", "IX": "k9", "X": "k10"}


@pytest.mark.parametrize("region", FORCED_KERNEL)
def test_forced_compare_reads_one_record_per_row(region, tmp_path):
    # A forced formula evaluates each row's run on its row's one record (and
    # the mirror's, for IV), not on a record of its own: so the strip
    # coefficients of VIII, too, are solved at most once per row record.
    # Its kernel is called once per run, and again after each refused point
    # for the rest of the run, so V's phase phi0, a row term, is solved
    # once per call that passes the row's checks.
    out = tmp_path / "forced.csv"
    code, calls = profiled(["compare", "--N", str(N), "--q", "0.64894783", "--region", region,
                            "--out", str(out)])
    assert code == 0
    with out.open(encoding="utf-8", newline="") as f:
        data = (line for line in f if not line.startswith("#"))
        refused = sum(record["approx_ln_mag"] == "" for record in csv.DictReader(data))
    assert 0 < calls(state_space.Row.__init__) <= 2 * (N + 1)
    assert 0 < calls(exact_core.exact_row) <= N + 1
    assert 0 < calls(getattr(region_formulas, FORCED_KERNEL[region])) <= refused + 2 * (N + 1)
    if region == "V":
        assert 0 < calls(wkb_core.phi0) <= 2 * (N + 1)
    if region == "VIII":
        assert 0 < calls(state_space.Row.strip.solve) <= 2 * (N + 1)


@pytest.mark.parametrize("q", PINNED_Q)
def test_a_map_evaluates_no_formula(q, tmp_path):
    # regions reads each row's record for the classifier's tests alone: no
    # exact row, no region kernel and no special function.
    code, calls = profiled(["regions", "--N", str(N), "--q", q, "--out", str(tmp_path / "map.csv")])
    assert code == 0
    rows = calls(state_space.Row.__init__)
    assert 0 < rows <= 2 * (N + 1) and calls(state_space.y_pm) <= rows
    unused = [exact_core.exact_row, *(getattr(region_formulas, name) for name in KERNELS),
              special_fns.airy_ai, special_fns.pcf_d, special_fns.hermite]
    assert {fn.__name__: calls(fn) for fn in unused if calls(fn)} == {}
