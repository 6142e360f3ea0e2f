#!/usr/bin/env python3
"""Entanglement scan over the permutation-invariant coupling family.

For each mode count n, builds the pure state whose A matrix has zero
diagonal and constant off-diagonal coupling theta, checks complete
entanglement across every basis-aligned bipartition, prints the weakest
split (one minimum cut) with its off-diagonal norm, and reports the
thermal character of the one-mode marginal.

Run:
    python scripts/entanglement_scan.py --max-modes 5
"""

import argparse

import numpy as np

from gausskit.states import (
    GaussianState,
    is_completely_entangled_pure,
    marginal,
    weakest_split,
)


def theta_state(n: int, theta: float) -> GaussianState:
    a = theta * (np.ones((n, n)) - np.eye(n))
    return GaussianState.from_a_lambda(a, np.zeros((n, n)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-modes", type=int, default=4)
    parser.add_argument("--theta-fraction", type=float, default=0.8,
                        help="theta as a fraction of the 1/(2(n-1)) bound")
    args = parser.parse_args()

    for n in range(2, args.max_modes + 1):
        bound = 1.0 / (2 * (n - 1))
        theta = args.theta_fraction * bound
        st = theta_state(n, theta)
        fully = is_completely_entangled_pure(st)
        left, right = weakest_split(st)
        norm = np.linalg.norm(st.params.a[np.ix_(left, right)])
        sub = marginal(st, [0]).params
        print(f"n={n}  theta={theta:.4f} (bound {bound:.4f})  "
              f"completely entangled: {fully}")
        print(f"      weakest split {left}|{right}, off-diagonal norm: {norm:.4f}")
        print(f"      one-mode marginal: Lambda = {sub.lam[0, 0].real:.6f}, "
              f"|A| = {abs(sub.a[0, 0]):.2e}")


if __name__ == "__main__":
    main()
