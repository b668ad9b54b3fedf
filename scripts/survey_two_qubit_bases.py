#!/usr/bin/env python3
"""Survey random two-qubit product bases: shift-generated entanglement vs
irreducibility of the side that starts.

Draws bases {|0 eta1>, |1 eta2>, |0 eta1perp>, |1 eta2perp>} with the local
states either basis-aligned or generic, then tabulates the left-direction
fixed value against reducibility from side B. Every draw should land in the
diagonal cells: positive value with an irreducible side, zero with a
reducible one.
"""

import argparse

import numpy as np

from nle.reproduce import walgate_hardy_draws


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cells = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    values = []
    for report, irreducible in walgate_hardy_draws(args.seed, args.draws):
        cells[(irreducible, report.left > 1e-9)] += 1
        if report.left > 1e-9:
            values.append(report.left)

    print(f"draws: {args.draws}")
    print(f"irreducible from B, value > 0 : {cells[(True, True)]:5d}")
    print(f"irreducible from B, value = 0 : {cells[(True, False)]:5d}  (should be 0)")
    print(f"reducible from B,   value > 0 : {cells[(False, True)]:5d}  (should be 0)")
    print(f"reducible from B,   value = 0 : {cells[(False, False)]:5d}")
    if values:
        arr = np.array(values)
        print(f"positive values: mean {arr.mean():.4f}, min {arr.min():.4f}, "
              f"max {arr.max():.4f}")


if __name__ == "__main__":
    main()
