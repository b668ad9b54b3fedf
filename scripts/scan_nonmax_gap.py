#!/usr/bin/env python3
"""Scan the average-state entropy gap of the nonmaximally-entangled family.

For the first three members of the four-state family {a|00>+b|11>,
-b|00>+a|11>, a|01>+b|10>, -b|01>+a|10>} the fixed-transform gap has the
closed form (1/3)[2 - (2-b^2)log2(2-b^2) - (1+b^2)log2(1+b^2)], which
``nle.reproduce`` checks; this script sweeps b, compares the numerical value
against the expression, and also reports the full-set and best-pair values
for context.
"""

import argparse

from nle import catalog
from nle.quantify import Mode, average_entropy_gap
from nle.reproduce import _ghosh_three


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=19, help="grid points in (0, 1)")
    args = parser.parse_args()

    fixed, assign = Mode("fixed"), Mode("assign")
    print(f"{'b':>6} {'gap(first3)':>12} {'expression':>12} {'abs err':>10} "
          f"{'full set':>10} {'pair':>8}")
    for i in range(1, args.points + 1):
        b = i / (args.points + 1)
        pairs, expr = _ghosh_three(b)
        params = dict(pairs)
        first3 = catalog.build("ghosh-nonmax", params)
        full = catalog.build("ghosh-nonmax", {**params, "count": 4})
        got = average_entropy_gap(first3, fixed).right
        full_gap = average_entropy_gap(full, fixed).right
        pair_gap = average_entropy_gap(full.subset([0, 2]), assign).right
        print(f"{b:6.3f} {got:12.8f} {expr:12.8f} {abs(got - expr):10.2e} "
              f"{full_gap:10.2e} {pair_gap:8.4f}")


if __name__ == "__main__":
    main()
