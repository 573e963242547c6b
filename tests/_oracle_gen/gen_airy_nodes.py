"""Print the Taylor-node table of the float Airy function.

``special_fns.airy_ai`` evaluates Ai(x) for |x| <= 8.5 from a Taylor series
re-centred at the nearest integer node c in [-8, 8], seeded with Ai(c) and
Ai'(c).  This script evaluates those 34 seeds with mpmath at 50 digits and
rounds each to the nearest double; ``repr`` then prints the shortest literal
that reads back as that double.

    python tests/_oracle_gen/gen_airy_nodes.py

Paste the output over ``_AI_NODES`` in src/krawtchouk_wkb/special_fns.py.
``tests/test_special_fns.py::test_airy_node_table_matches_mpmath`` recomputes
the same values and requires them to be equal to the table.
"""

import mpmath as mp

NODES = range(-8, 9)


def node_values(c):
    """(Ai(c), Ai'(c)) rounded to the nearest double."""
    with mp.workdps(50):
        return float(mp.airyai(c)), float(mp.airyai(c, derivative=1))


if __name__ == "__main__":
    print("_AI_NODES = (  # (Ai(c), Ai'(c)) for c = -8, -7, ..., 8")
    for c in NODES:
        ai, aip = node_values(c)
        print(f"    ({ai!r}, {aip!r}),")
    print(")")
