"""Request generation and output verification for the four benchmark workloads.

A workload is an endless sequence of CLI requests drawn from the seed.  The
parameters of request ``i`` come from an additive low-discrepancy sequence
started at a seeded offset, so any prefix of the sequence spreads over the
whole q range (and, for ``row``, the whole degree range).  A run therefore
samples the same input distribution whatever the seed, and two seeds differ
only in where inside it their points land.  The q range is never narrowed.

The verifiers return a list of problems (empty when the output is right).
They check the CLI's output against an exact value computed here from the
terminating binomial sum, independently of the package's recurrence.
"""

from __future__ import annotations

import csv
import io
import math
import random
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

WORKLOADS = ("grid", "row", "regions", "check")

Q_LO, Q_HI = 0.30, 0.75

# Golden-ratio and plastic-number steps: the 1-D and 2-D additive sequences
# with the most even coverage of every prefix.
_PHI_STEP = 0.6180339887498949
_R2_STEP_1 = 0.7548776662466927
_R2_STEP_2 = 0.5698402909980532

#: grid sizes per scale: the real benchmark, and the self-test's tiny one
SIZES = {
    "full": {"grid": 200, "row": 600, "regions": 400},
    "tiny": {"grid": 24, "row": 40, "regions": 30},
}
#: acceptance criteria a ``check`` request runs (all seven at full scale)
CHECK_CRITERIA = {"full": None, "tiny": (5, 7)}

COMPARE_HEADER = [
    "x", "n", "N", "region", "mirrored", "exact_sign", "exact_ln_mag",
    "approx_sign", "approx_ln_mag", "norm_err", "im_residue",
]
REGION_TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII")
SIGNS = ("-1", "0", "1")

#: grid points checked against the exact sum in each compare/eval output
EXACT_SAMPLE = 12
#: grid points checked against classify in each regions output
LABEL_SAMPLE = 200


class Request(NamedTuple):
    kind: str                  # compare, eval, regions or check
    argv: List[str]            # arguments after ``python -m krawtchouk_wkb``
    N: int = 0
    q: str = ""
    n: Optional[int] = None    # single degree, or None for the full grid
    criteria: Optional[Sequence[int]] = None

    @property
    def points(self) -> int:
        """Grid points in the output (0 for ``check``)."""
        if self.kind == "check":
            return 0
        rows = 1 if self.n is not None else self.N + 1
        return rows * (self.N + 1)


def q_text(t: float) -> str:
    """q near position t in [0, 1) of the range, as an 8-digit decimal string.

    The last digit is one of 1, 3, 7, 9, so q's denominator is exactly 10**8.
    A trailing 0, 2, 4, 5, 6 or 8 would shrink it, and with it every big
    integer of the exact table: at N = 600 the table's peak memory falls from
    405 MB to 294-391 MB.  Fixing it keeps the exact work of a request
    independent of where q lands.
    """
    digits = round((Q_LO + (Q_HI - Q_LO) * t) * 10**7)
    return f"0.{digits:07d}{(1, 3, 7, 9)[digits % 4]}"


def requests(workload: str, seed: int, scale: str = "full") -> Iterator[Request]:
    """The endless request sequence of one workload for one seed."""
    rng = random.Random(seed)
    u, v = rng.random(), rng.random()
    i = 0
    while True:
        t = (u + i * _PHI_STEP) % 1.0
        if workload == "grid":
            N, q = SIZES[scale]["grid"], q_text(t)
            yield Request("compare", ["compare", "--N", str(N), "--q", q], N, q)
        elif workload == "row":
            N = SIZES[scale]["row"]
            q = q_text((u + i * _R2_STEP_1) % 1.0)
            k = min(N, int((N + 1) * ((v + i * _R2_STEP_2) % 1.0)))
            for kind in ("compare", "eval"):
                yield Request(kind, [kind, "--N", str(N), "--q", q, "--n", str(k)], N, q, k)
        elif workload == "regions":
            N, q = SIZES[scale]["regions"], q_text(t)
            yield Request("regions", ["regions", "--N", str(N), "--q", q], N, q)
        elif workload == "check":
            crit = CHECK_CRITERIA[scale]
            argv = ["check"] + (["--criteria", ",".join(map(str, crit))] if crit else [])
            yield Request("check", argv, criteria=crit or tuple(range(1, 8)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        i += 1


# ---------------------------------------------------------------------------
# Independent exact values
# ---------------------------------------------------------------------------


def exact_scaled(n: int, x: int, N: int, q: Fraction) -> int:
    """b**n * K_n(x) as an integer, from the binomial sum (b = q's denominator).

    K_n(x) = sum_k C(x, k) C(N - x, n - k) q^k (-p)^(n - k), with p = 1 - q.
    """
    a, b = q.numerator, q.denominator
    c = -(b - a)
    total = 0
    qk, pk = 1, c ** n
    for k in range(min(n, x) + 1):
        if k:
            qk *= a
            pk //= c
        total += math.comb(x, k) * math.comb(N - x, n - k) * qk * pk
    return total


def exact_signed_log(n: int, x: int, N: int, q: Fraction):
    s = exact_scaled(n, x, N, q)
    if s == 0:
        return 0, float("-inf")
    return (1 if s > 0 else -1), math.log(abs(s)) - n * math.log(q.denominator)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _data_rows(text: str) -> List[List[str]]:
    return list(csv.reader(io.StringIO("".join(
        line for line in text.splitlines(True) if not line.startswith("#")))))


def _expected_order(req: Request) -> List[tuple]:
    ns = [req.n] if req.n is not None else range(req.N + 1)
    return [(x, n) for n in ns for x in range(req.N + 1)]


def _check_grid(rows: List[List[str]], header: List[str], req: Request, problems: List[str]) -> bool:
    if not rows or rows[0] != header:
        problems.append(f"header {rows[0] if rows else None} != {header}")
        return False
    body = rows[1:]
    order = _expected_order(req)
    if len(body) != len(order):
        problems.append(f"{len(body)} rows, expected {len(order)}")
        return False
    for i, (row, (x, n)) in enumerate(zip(body, order)):
        if (len(row) != len(header) or row[0] != str(x) or row[1] != str(n)
                or (header[2] == "N" and row[2] != str(req.N))):
            problems.append(f"row {i} is {row[:3]}, expected x={x} n={n} N={req.N} (degree-major order)")
            return False
    return True


def _sample(req: Request, seed_text: str, count: int) -> List[int]:
    """Seeded row indices into the output, always including the two ends."""
    total = len(_expected_order(req))
    rng = random.Random(seed_text)
    picks = {0, total - 1} | {rng.randrange(total) for _ in range(count)}
    return sorted(picks)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def verify_compare(text: str, req: Request) -> List[str]:
    problems: List[str] = []
    rows = _data_rows(text)
    if not _check_grid(rows, COMPARE_HEADER, req, problems):
        return problems
    body = rows[1:]
    qf = Fraction(req.q)
    for i, row in enumerate(body):
        tag, mirrored = row[3], row[4]
        if tag not in REGION_TAGS or mirrored not in ("0", "1"):
            problems.append(f"row {i}: bad region {tag!r} mirrored={mirrored!r}")
            return problems
        if not (row[5] in SIGNS and row[7] in SIGNS and all(map(_is_float, (row[6], *row[8:])))):
            problems.append(f"row {i}: malformed values {row[5:]}")
            return problems
    for i in _sample(req, "compare" + " ".join(req.argv), EXACT_SAMPLE):
        row = body[i]
        x, n = int(row[0]), int(row[1])
        sign, ln = exact_signed_log(n, x, req.N, qf)
        if int(row[5]) != sign or not _close(float(row[6]), ln):
            problems.append(f"(x={x}, n={n}): exact ({row[5]}, {row[6]}) != ({sign}, {ln:.12g})")
    return problems


def verify_eval(text: str, req: Request, digits: int = 30) -> List[str]:
    problems: List[str] = []
    rows = _data_rows(text)
    if not _check_grid(rows, ["x", "n", "N", "exact"], req, problems):
        return problems
    body = rows[1:]
    qf = Fraction(req.q)
    for i in _sample(req, "eval" + " ".join(req.argv), EXACT_SAMPLE):
        row = body[i]
        x, n = int(row[0]), int(row[1])
        exact = Fraction(exact_scaled(n, x, req.N, qf), qf.denominator ** n)
        try:
            shown = Fraction(Decimal(row[3]))
        except (InvalidOperation, ValueError):
            problems.append(f"(x={x}, n={n}): unparsable value {row[3]!r}")
            continue
        if abs(shown - exact) > abs(exact) * Fraction(1, 10 ** (digits - 1)):
            problems.append(f"(x={x}, n={n}): {row[3]} is not K_n(x) to {digits} digits")
    return problems


def verify_regions(text: str, req: Request, classify_label: Callable[[int, int], str]) -> List[str]:
    problems: List[str] = []
    rows = _data_rows(text)
    if not _check_grid(rows, ["x", "n", "region"], req, problems):
        return problems
    body = rows[1:]
    for i in _sample(req, "regions" + " ".join(req.argv), LABEL_SAMPLE):
        x, n, label = int(body[i][0]), int(body[i][1]), body[i][2]
        want = classify_label(x, n)
        if label != want:
            problems.append(f"(x={x}, n={n}): label {label!r} != classify {want!r}")
    return problems


def verify_check(text: str, req: Request, returncode: int) -> List[str]:
    problems: List[str] = []
    if returncode != 0:
        problems.append(f"check exited {returncode}")
    lines = text.splitlines()
    for k in req.criteria:
        if not any(line.startswith(f"PASS  criterion-{k} ") for line in lines):
            problems.append(f"no PASS line for criterion {k}")
    if sum(line.startswith("PASS  criterion-") for line in lines) != len(req.criteria):
        problems.append("unexpected number of PASS lines")
    if "acceptance: PASS" not in lines:
        problems.append("no 'acceptance: PASS' line")
    return problems


def norm_errs(text: str) -> List[float]:
    """The norm_err column of a compare output."""
    return [float(row[9]) for row in _data_rows(text)[1:] if len(row) == len(COMPARE_HEADER)]


def quantile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def label_name(rid) -> str:
    """Metric-safe label of a classifier RegionId: a mirrored tag is written ``<TAG>_m``."""
    return rid.tag + ("_m" if rid.mirrored else "")


#: every label the classifier assigns on the benchmark grids
LABELS = (
    "I", "II", "III", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII",
    "IV_m", "V_m", "VI_m", "VII_m", "VIII_m", "IX_m",
)
