import math
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krawtchouk_wkb import accuracy, exact_core
from krawtchouk_wkb.exact_core import (
    DomainError,
    ExactRow,
    ExactTable,
    Params,
    build_table,
    exact_row,
    check_index,
    gram_matrix,
    krawtchouk_sum,
    lemma3_value,
    scaled_sum,
    scaled_sum_row,
    scaled_weight,
    symmetry_image,
)
from krawtchouk_wkb.region_formulas import ApproxValue, approx, approx_row, evaluate_region
from krawtchouk_wkb.state_space import DEFAULT_CONFIG, classify_row

# Frozen oracle values produced by tests/_oracle_gen/gen_exact_literals.py,
# which expands the generating function (1+qt)^x (1-pt)^(N-x) with sympy and
# reads off the t^n coefficient -- an independent route from both the
# binomial sum and the recurrence used by the package.
GF_LITERALS = [
    (((3, 4), 10, "1/2"), Fraction("1")),
    (((5, 2), 12, "1/3"), Fraction("4/9")),
    (((4, 9), 11, "2/7"), Fraction("40350/2401")),
    (
        ((7, 7), 14, "64894783/100000000"),
        Fraction(
            "2840241984364153389359685270376060441982455077982987117"
            "/12500000000000000000000000000000000000000000000000000000"
        ),
    ),
    (((2, 0), 9, "3/5"), Fraction("324/25")),
    (((6, 13), 13, "1/4"), Fraction("312741/1024")),
]

P_POOL = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction("0.64894783")]

#: The approximate value 1, for metric reads that need one.
ONE = ApproxValue(1.0, None, 0.0)


def table_value(table: ExactTable, n: int, x: int) -> Fraction:
    """Exact K_n(x) from the table's row n: its scaled integer over denom**n."""
    return Fraction(table.row(n).nums[x], table.params.denom**n)


def every_row(params):
    """The exact records of rows 0..N, in order."""
    return [ExactRow(n, params) for n in range(params.N + 1)]


@pytest.mark.parametrize("case,expected", GF_LITERALS)
def test_sum_against_generating_function(case, expected):
    (n, x), N, p = case
    params = Params.from_p(N, p)
    assert krawtchouk_sum(n, x, params) == expected


@pytest.mark.parametrize("case,expected", GF_LITERALS)
def test_table_against_generating_function(case, expected):
    (n, x), N, p = case
    table = build_table(Params.from_p(N, p))
    assert table_value(table, n, x) == expected


@pytest.mark.parametrize("case,expected", GF_LITERALS)
def test_lazy_table_against_generating_function(case, expected):
    (n, x), N, p = case
    table = ExactTable(Params.from_p(N, p))
    assert table_value(table, n, x) == expected


def test_sum_degree_zero_is_one():
    params = Params.from_p(7, Fraction(2, 5))
    for x in range(8):
        assert krawtchouk_sum(0, x, params) == 1


def test_sum_degree_one_closed_form():
    # K_1(x) = qx - p(N-x) = x - pN
    params = Params.from_p(9, Fraction(1, 3))
    for x in range(10):
        assert krawtchouk_sum(1, x, params) == x - params.p * 9


def test_sum_left_boundary():
    # K_n(0) = C(N,n)(-p)^n
    params = Params.from_p(11, Fraction(2, 7))
    for n in range(12):
        assert krawtchouk_sum(n, 0, params) == math.comb(11, n) * (-params.p) ** n


def test_sum_right_boundary():
    # K_n(N) = C(N,n) q^n
    params = Params.from_p(11, Fraction(2, 7))
    for n in range(12):
        assert krawtchouk_sum(n, 11, params) == math.comb(11, n) * params.q**n


def two_power_sum(n, x, params):
    """``krawtchouk_sum`` before the running products: two ``**`` per term."""
    check_index("n", n, params.N)
    check_index("x", x, params.N)
    N = params.N
    ap, aq = params.p_num, params.q_num
    total = 0
    for k in range(min(n, x) + 1):
        c = math.comb(x, k) * math.comb(N - x, n - k)
        if c:
            total += c * aq**k * (-ap) ** (n - k)
    return Fraction(total, params.denom**n)


@st.composite
def cell_cases(draw, max_N=60):
    N = draw(st.integers(min_value=1, max_value=max_N))
    n, x = draw(st.integers(min_value=0, max_value=N)), draw(st.integers(min_value=0, max_value=N))
    return N, draw(st.sampled_from(P_POOL)), n, x


@given(case=cell_cases())
@example(case=(60, Fraction("0.64894783"), 0, 0))
@example(case=(60, Fraction("0.64894783"), 0, 60))
@example(case=(60, Fraction("0.64894783"), 60, 0))
@example(case=(60, Fraction("0.64894783"), 60, 60))
@example(case=(60, Fraction(2, 7), 60, 17))  # n = N: one live term, k = x
@example(case=(60, Fraction(1, 3), 23, 0))  # x = 0: one live term, k = 0
@example(case=(1, Fraction(1, 2), 1, 1))
@settings(max_examples=200, deadline=None)
def test_sum_equals_two_power_reference(case):
    N, p, n, x = case
    params = Params.from_p(N, p)
    got = krawtchouk_sum(n, x, params)
    assert type(got) is Fraction and got == two_power_sum(n, x, params)


@given(case=cell_cases())
@example(case=(60, Fraction("0.64894783"), 60, 60))
@example(case=(1, Fraction(1, 2), 1, 0))
@settings(max_examples=100, deadline=None)
def test_scaled_sum_is_the_sum_times_the_scale(case):
    N, p, n, x = case
    params = Params.from_p(N, p)
    scale = params.denom**n
    got = scaled_sum(n, x, params)
    assert type(got) is int and got == krawtchouk_sum(n, x, params) * scale


@st.composite
def sum_row_cases(draw, max_N=40):
    N = draw(st.integers(min_value=1, max_value=max_N))
    n = draw(st.integers(min_value=0, max_value=N))
    xs = draw(st.lists(st.integers(min_value=0, max_value=N), max_size=N + 3))
    return N, draw(st.sampled_from(P_POOL)), n, xs


@given(case=sum_row_cases())
@example(case=(40, Fraction(1, 2), 0, [0, 40]))
@example(case=(40, Fraction(1, 2), 0, [40, 0]))
@example(case=(40, Fraction(1, 2), 40, [0, 40]))
@example(case=(40, Fraction(1, 2), 40, [40, 0]))
@example(case=(40, Fraction(1, 2), 40, [40]))  # one live term and one product, k = n = x
@example(case=(40, Fraction(1, 2), 0, [0]))
@example(case=(25, Fraction("0.64894783"), 12, list(range(25, -1, -1))))  # criterion 1's reversed row
@example(case=(25, Fraction(2, 7), 12, [25, 3, 3, 0, 17]))  # unsorted, with a repeat
@example(case=(10, Fraction(1, 3), 4, []))
@settings(max_examples=100, deadline=None)
def test_sum_row_equals_fraction_reference_in_any_order(case):
    # The row form forms the products q^k (-p)^(n-k) once for every k some x
    # reads, whatever order xs come in; each value is the Fraction
    # reference's, the one-point scaled_sum's, and (-1)^n times the swapped
    # instance's value at N - x, as criterion 1 reads the symmetry.
    N, p, n, xs = case
    params = Params.from_p(N, p)
    got = scaled_sum_row(n, xs, params)
    assert all(type(v) is int for v in got)
    assert [Fraction(v, params.denom**n) for v in got] == [two_power_sum(n, x, params) for x in xs]
    assert got == [scaled_sum(n, x, params) for x in xs]
    image = scaled_sum_row(n, [N - x for x in xs], params.swapped())
    assert got == [-v if n % 2 else v for v in image]


def test_sum_rejects_out_of_range():
    params = Params.from_p(5, Fraction(1, 2))
    with pytest.raises(DomainError):
        krawtchouk_sum(6, 0, params)
    with pytest.raises(DomainError):
        krawtchouk_sum(0, -1, params)


# --- table / recurrence ----------------------------------------------------


def test_table_seed_example():
    table = build_table(Params.from_p(2, Fraction(1, 2)))
    assert table_value(table, 1, 1) == 0


def test_table_matches_sum_exhaustively():
    params = Params.from_p(17, Fraction("0.64894783"))
    table = build_table(params)
    for n in range(18):
        for x in range(18):
            assert table_value(table, n, x) == krawtchouk_sum(n, x, params)


def test_implied_next_row_vanishes():
    # One more degree-recurrence step past n = N must give C(x, N+1) = 0;
    # a check of the identity itself, in rational arithmetic at N = 3.
    params = Params.from_p(3, Fraction(1, 3))
    table = build_table(params)
    N, p, q = 3, params.p, params.q
    n = N
    for x in range(N + 1):
        nxt = (
            -p * q * (N - n + 1) * table_value(table, n - 1, x)
            - (p * (N - n) + n * q - x) * table_value(table, n, x)
        ) / (n + 1)
        assert nxt == 0


def test_table_boundary_rows_and_columns():
    params = Params.from_p(13, Fraction(2, 7))
    table = build_table(params)
    N, p, q = 13, params.p, params.q
    for x in range(N + 1):
        assert table_value(table, 0, x) == 1
    for n in range(N + 1):
        assert table_value(table, n, 0) == math.comb(N, n) * (-p) ** n
        assert table_value(table, n, N) == math.comb(N, n) * q**n


@given(p=st.sampled_from(P_POOL), N=st.integers(min_value=1, max_value=14))
@settings(max_examples=25, deadline=None)
def test_table_equals_sum_property(p, N):
    params = Params.from_p(N, p)
    table = build_table(params)
    for n in range(N + 1):
        for x in range(N + 1):
            assert table_value(table, n, x) == krawtchouk_sum(n, x, params)


@st.composite
def row_cases(draw, max_N=60):
    N = draw(st.integers(min_value=1, max_value=max_N))
    return N, draw(st.sampled_from(P_POOL)), draw(st.integers(min_value=0, max_value=N))


@given(case=row_cases())
@example(case=(1, Fraction(1, 3), 0))
@example(case=(1, Fraction(1, 3), 1))
@example(case=(60, Fraction("0.64894783"), 0))
@example(case=(60, Fraction("0.64894783"), 60))
@example(case=(10, Fraction(1, 2), 5))  # n = pN: the x = 0 step gives K_n(1) = 0
@example(case=(14, Fraction(2, 7), 4))  # n = pN again, p not 1/2
@settings(max_examples=40, deadline=None)
def test_exact_row_equals_sum(case):
    N, p, n = case
    params = Params.from_p(N, p)
    row = exact_row(n, params)
    assert len(row) == N + 1
    for x in range(N + 1):
        assert Fraction(row[x], params.denom**n) == krawtchouk_sum(n, x, params)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: ExactTable(p).row(True),
        lambda p: ExactTable(p).signed_log(0, False),
        lambda p: krawtchouk_sum(True, 0, p),
        lambda p: krawtchouk_sum(0, True, p),
        lambda p: exact_row(True, p),
        lambda p: ExactRow(True, p),
        lambda p: scaled_weight(True, p),
        lambda p: scaled_sum_row(0, [2, True], p),
        lambda p: symmetry_image(0, True, p),
    ],
    ids=["row-n", "signed_log-x", "sum-n", "sum-x", "exact_row", "ExactRow", "weight", "sum_row-x",
         "symmetry-x"],
)
def test_bool_is_not_an_index(call):
    # bool subclasses int; the shared validator still refuses it
    with pytest.raises(DomainError):
        call(Params.from_p(5, Fraction(1, 2)))


def test_exact_row_rejects_out_of_range():
    params = Params.from_p(5, Fraction(1, 2))
    with pytest.raises(DomainError):
        exact_row(6, params)
    with pytest.raises(DomainError):
        exact_row(-1, params)


@pytest.mark.parametrize("bad", [-1, 11, True], ids=["negative", "N+1", "bool"])
@pytest.mark.parametrize(
    "read",
    [
        lambda table, i: table.row(i),
        lambda table, i: ExactRow(i, table.params),
        lambda table, i: table.signed_log(i, 2),
        lambda table, i: table.signed_log(2, i),
        lambda table, i: accuracy.norm_err_row([ONE], table.row(2), [i]),
        lambda table, i: accuracy.norm_err_row([ONE] * 3, table.row(2), [1, 2, 3, 4, 5]),
        lambda table, i: accuracy.formula_gap(ONE, ONE, table.row(2), i),
    ],
    ids=["row", "ExactRow", "signed_log-n", "signed_log-x", "norm_err_row-x", "norm_err_row-len",
         "formula_gap-x"],
)
def test_table_reads_reject_bad_indices(read, bad):
    table = ExactTable(Params.from_p(10, Fraction(1, 2)))
    for n in (1, 2, 10):  # built rows are what a wrapped or bool index would read
        table.row(n)
    with pytest.raises(DomainError):
        read(table, bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda params, xs: approx_row(3, xs, params),
        lambda params, xs: classify_row(3, xs, params),
        lambda params, xs: evaluate_region("X", 3, xs, params),
        lambda params, xs: accuracy.norm_err_row([ONE] * 5, ExactRow(3, params), xs),
        lambda params, xs: scaled_sum_row(3, xs, params),
    ],
    ids=["approx_row", "classify_row", "evaluate_region", "norm_err_row", "scaled_sum_row"],
)
def test_a_one_shot_iterator_of_indices_is_refused(call):
    # Checking a one-shot iterator would use it up before the row reads it,
    # so a row function refuses one by name; a list or a range passes.
    params = Params.from_p(10, Fraction(1, 2))
    for xs in (iter(range(5)), (x for x in range(5))):
        with pytest.raises(DomainError, match="^x must be a list or range"):
            call(params, xs)
    for xs in (range(5), list(range(5))):
        assert len(call(params, xs)) == 5


def test_norm_err_row_refuses_one_shot_approximations():
    # len() of a one-shot iterator is a raw TypeError, and reading it to
    # count would use it up: the metric refuses one by name, as it does xs.
    row = ExactRow(3, Params.from_p(10, Fraction(1, 2)))
    for avs in (iter([ONE] * 5), (av for av in [ONE] * 5)):
        with pytest.raises(DomainError, match="^avs must be a list or tuple"):
            accuracy.norm_err_row(avs, row, range(5))
    for avs in ([ONE] * 5, (ONE,) * 5):
        assert len(accuracy.norm_err_row(avs, row, range(5))) == 5


def test_table_computes_only_the_rows_read(monkeypatch):
    computed = []

    def counting_row(n, params):
        computed.append(n)
        return exact_row(n, params)

    monkeypatch.setattr(exact_core, "exact_row", counting_row)
    params = Params.from_p(30, Fraction(2, 7))
    table = ExactTable(params)
    for x in range(31):
        assert table_value(table, 7, x) == krawtchouk_sum(7, x, params)
    table.signed_log(7, 3)
    table.row(19)
    # log reads build rows only as integer reads do
    for n in (7, 19):
        table.signed_log(n, 30)
        accuracy.norm_err(ONE, table, n, 12)
        assert table.row(n) is table.row(n)
    assert computed == [7, 19]


def per_cell_signed_log(num, n, params):
    """A record's sign and log before row logs: one big-integer log per read."""
    if num == 0:
        return 0, float("-inf")
    return (1 if num > 0 else -1), exact_core._ln_abs_int(num) - n * math.log(params.denom)


def per_cell_env_log(logs, x):
    """A record's envelope before the row-wide pass: the clipped window read cell by cell."""
    lo, hi = max(0, x - 5), min(len(logs) - 1, x + 5)
    return max(logs[xx] for xx in range(lo, hi + 1))


def per_cell_record(row, n, params):
    """``ExactRow.__init__`` with each sign, log and envelope read cell by cell."""
    row.n, row.params = n, params
    row.nums = exact_row(n, params)
    row.signs, row.logs = zip(*(per_cell_signed_log(num, n, params) for num in row.nums))
    row.env = tuple(per_cell_env_log(row.logs, x) for x in range(params.N + 1))


@given(case=row_cases(max_N=40))
@example(case=(10, Fraction(1, 2), 5))  # K_5(5) = 0: exact zeros in the row
@example(case=(40, Fraction("0.64894783"), 20))  # clipped edges and full interior windows
@example(case=(7, Fraction(1, 3), 3))  # N < 11: the window covers the whole row
@settings(max_examples=25, deadline=None)
def test_envelope_matches_per_cell_reference(case):
    N, p, n = case
    params = Params.from_p(N, p)
    avs = [approx(x, n, params, DEFAULT_CONFIG) for x in range(N + 1)]

    def metrics():
        table, row = ExactTable(params), ExactRow(n, params)
        out = []
        for x, av in enumerate(avs):
            sign, ln = table.signed_log(n, x)
            exact = ApproxValue(float(sign), av.region, ln)
            out.append((
                sign, ln, row.signs[x], row.logs[x], row.env[x],
                accuracy.norm_err(av, table, n, x), accuracy.formula_gap(av, exact, row, x),
            ))
        return out, accuracy.norm_err_row(avs, row, range(N + 1))

    got = metrics()
    with mock.patch.object(ExactRow, "__init__", per_cell_record):
        want = metrics()
    # repr is exact for floats and tells nan, inf and -0.0 apart
    assert repr(got) == repr(want)


# --- weight and orthogonality ----------------------------------------------


def orthogonality_row(i, params):
    """Row i of the orthogonality sums as ``Fraction``s, before the Gram matrix."""
    N, ap, aq = params.N, params.p_num, params.q_num
    check_index("i", i, N)
    wi = [math.comb(N, k) * ap**k * aq ** (N - k) * v for k, v in enumerate(exact_row(i, params))]
    return tuple(
        Fraction(sum(map(mul, wi, exact_row(j, params))), params.denom ** (i + j + N)) for j in range(N + 1)
    )


def unscaled_gram_row(gram, i, params):
    """Row i of :func:`gram_matrix` with each entry (i, j) divided by denom**(i+j+N)."""
    return tuple(Fraction(g, params.denom ** (i + j + params.N)) for j, g in enumerate(gram[i]))


def test_weight_endpoints():
    params = Params.from_p(9, Fraction(3, 5))
    assert Fraction(scaled_weight(0, params), params.denom**9) == params.q**9
    assert Fraction(scaled_weight(9, params), params.denom**9) == params.p**9


def test_weights_sum_to_one():
    params = Params.from_p(21, Fraction("0.34894783"))
    assert sum(scaled_weight(x, params) for x in range(22)) == params.denom**21


def test_orthogonality_examples():
    params = Params.from_p(6, Fraction(1, 3))
    gram = gram_matrix(every_row(params))
    assert unscaled_gram_row(gram, 0, params) == (1, 0, 0, 0, 0, 0, 0)
    assert unscaled_gram_row(gram, 2, params) == (0, 0, Fraction(60, 81), 0, 0, 0, 0)


@given(p=st.sampled_from(P_POOL), N=st.integers(min_value=1, max_value=10))
@settings(max_examples=15, deadline=None)
def test_orthogonality_property(p, N):
    params = Params.from_p(N, p)
    gram = gram_matrix(every_row(params))
    assert len(gram) == N + 1
    for i in range(N + 1):
        sums = unscaled_gram_row(gram, i, params)
        assert len(sums) == N + 1
        for j in range(N + 1):
            expected = math.comb(N, j) * (params.p * params.q) ** j if i == j else 0
            assert sums[j] == expected
        # the diagonal at the Gram matrix's own scale
        assert gram[i][i] == math.comb(N, i) * (params.p_num * params.q_num) ** i * params.denom**N


@given(p=st.sampled_from(P_POOL), N=st.integers(min_value=1, max_value=10))
@example(p=Fraction("0.64894783"), N=10)
@settings(max_examples=25, deadline=None)
def test_gram_matrix_equals_fraction_reference(p, N):
    params = Params.from_p(N, p)
    gram = gram_matrix(every_row(params))
    for i in range(N + 1):
        assert unscaled_gram_row(gram, i, params) == orthogonality_row(i, params)
        assert all(type(g) is int and g == gram[j][i] for j, g in enumerate(gram[i]))


@pytest.mark.parametrize("bad", [-1, 11, True], ids=["negative", "N+1", "bool"])
def test_gram_matrix_has_no_bad_index(bad):
    # The Gram matrix takes no index: it covers the rows it is given, each
    # already checked by its record, and the reference row it replaces still
    # refuses a bad one.
    params = Params.from_p(10, Fraction(1, 2))
    gram = gram_matrix(every_row(params))
    assert len(gram) == 11 and {len(row) for row in gram} == {11}
    with pytest.raises(DomainError):
        orthogonality_row(bad, params)


def test_criterion_1_names_a_corrupted_cell(monkeypatch):
    # K_7(3) at N=25 off by one unit of the scaled row: every identity that
    # reads the cell must report it, and every pair of row 7 and column 7
    # (51 of the 26 x 26 orthogonality matrix) must be compared and fail.
    def corrupted_row(n, params):
        row = exact_row(n, params)
        if params.N == 25 and n == 7:
            row = row[:3] + (row[3] + 1,) + row[4:]
        return row

    monkeypatch.setattr(exact_core, "exact_row", corrupted_row)
    failures, _ = accuracy.CRITERIA[1][1](DEFAULT_CONFIG)
    pairs = sorted({(7, j) for j in range(26)} | {(i, 7) for i in range(26)})
    assert len(pairs) == 51
    assert failures == [
        "N=25: recurrence!=sum at (n=7,x=3)",
        *(f"N=25: orthogonality fails at (i={i},j={j})" for i, j in pairs),
        "N=25: symmetry fails at (n=7,x=3)",
    ]


def test_criterion_1_names_corrupted_boundary_cells(monkeypatch):
    # Beside K_7(3), K_3(0) on the left boundary and K_25(5) on the degree-N
    # row at N=25, each off by one scaled unit: the boundary checks must name
    # both, next to the recurrence, orthogonality and symmetry messages.  The
    # list is the one criterion 1 gave when it still compared Fractions.
    cells = {7: 3, 3: 0, 25: 5}

    def corrupted_row(n, params):
        row = exact_row(n, params)
        if params.N == 25 and n in cells:
            x = cells[n]
            row = row[:x] + (row[x] + 1,) + row[x + 1:]
        return row

    monkeypatch.setattr(exact_core, "exact_row", corrupted_row)
    failures, _ = accuracy.CRITERIA[1][1](DEFAULT_CONFIG)
    bad = sorted(cells.items())
    pairs = [(i, j) for i in range(26) for j in range(26) if i in cells or j in cells]
    assert len(pairs) == 147
    assert failures == [
        *(f"N=25: recurrence!=sum at (n={n},x={x})" for n, x in bad),
        *(f"N=25: orthogonality fails at (i={i},j={j})" for i, j in pairs),
        *(f"N=25: symmetry fails at (n={n},x={x})" for n, x in bad),
        "N=25: left boundary fails at n=3",
        "N=25: degree-N row fails at x=5",
    ]


# --- symmetry ----------------------------------------------------------------


def test_symmetry_small_example():
    params = Params.from_p(2, Fraction(1, 2))
    assert symmetry_image(1, 2, params) == krawtchouk_sum(1, 2, params) == 1


@given(
    p=st.sampled_from(P_POOL),
    N=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_symmetry_property(p, N, data):
    n = data.draw(st.integers(min_value=0, max_value=N))
    x = data.draw(st.integers(min_value=0, max_value=N))
    params = Params.from_p(N, p)
    assert symmetry_image(n, x, params) == krawtchouk_sum(n, x, params)


# --- small-x envelope (log-gamma path) --------------------------------------


def test_lemma3_exact_for_m0_m1():
    params = Params.from_p(30, Fraction("0.64894783"))
    table = build_table(params)
    for n in range(31):
        for m in (0, 1):
            exact = float(table_value(table, n, m))
            assert lemma3_value(m, n, params) == pytest.approx(exact, rel=1e-10, abs=1e-300)


def test_lemma3_error_shrinks_with_N():
    errs = []
    for N in (100, 200, 400):
        params = Params.from_p(N, Fraction(1, 3))
        n = N // 2
        exact = krawtchouk_sum(n, 3, params)
        approx = lemma3_value(3, n, params)
        errs.append(abs(approx - float(exact)) / abs(float(exact)))
    assert errs[0] > errs[1] > errs[2]


def test_lemma3_sign_for_large_n():
    # the base 1 - n/(pN) is negative once n > pN; sign must follow (-1)^n times
    # the parity of m
    params = Params.from_p(20, Fraction(1, 4))
    got = lemma3_value(3, 10, params)  # n=10 > pN=5, even n, odd m -> negative
    assert got < 0


@pytest.mark.parametrize("m, n, expected", [(0, 1000, math.inf), (0, 1001, -math.inf),
                                            (1, 1000, math.inf)])
def test_lemma3_saturates_beyond_double_range(m, n, expected):
    # C(2000, 1000) 0.9^1000 is about e^1277: the value saturates with the
    # tracked sign (-1)^n instead of raising OverflowError.
    assert lemma3_value(m, n, Params.from_q(2000, "0.1")) == expected


def test_lemma3_rejects_bool_m():
    with pytest.raises(DomainError, match="m must be a nonnegative integer"):
        lemma3_value(True, 1, Params.from_q(10, "0.5"))


# --- params / misc -----------------------------------------------------------


def test_params_rejects_float_p():
    with pytest.raises(DomainError):
        Params.from_q(10, 0.64894783)


def test_params_rejects_bool_N():
    # bool subclasses int: True would build a one-point grid whose N prints as True
    with pytest.raises(DomainError, match="N must be a positive integer"):
        Params.from_q(True, "0.5")


def test_params_decimal_string_is_exact():
    params = Params.from_q(100, "0.64894783")
    assert params.q == Fraction(64894783, 10**8)
    assert params.p == Fraction(35105217, 10**8)
    assert params.denom == 10**8


def test_params_validation():
    with pytest.raises(DomainError):
        Params.from_p(0, Fraction(1, 2))
    with pytest.raises(DomainError):
        Params.from_p(10, Fraction(3, 2))
    with pytest.raises(DomainError):
        Params(10, Fraction(1, 2), Fraction(1, 3))
    params = Params.from_q(10, "1/2")
    with pytest.raises(DomainError):
        params._replace(N=0)  # _replace runs the same checks
    with pytest.raises(AttributeError):
        params.N = 20
    assert repr(params) == "Params(N=10, p=Fraction(1, 2), q=Fraction(1, 2))"


def test_ln_abs_int_matches_direct_log():
    assert exact_core._ln_abs_int(-3) == math.log(3)
    assert exact_core._ln_abs_int(0) == float("-inf")


def test_ln_abs_int_huge_values():
    # Far past float range: the top 64 bits plus the shifted-out power of 2.
    ln = exact_core._ln_abs_int(-(10**500 // 3))
    assert ln == pytest.approx(500 * math.log(10) - math.log(3), rel=1e-12)
