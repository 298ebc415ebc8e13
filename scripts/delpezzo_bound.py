#!/usr/bin/env python3
"""Print the admissible type-A/B/C tables for a four-dimensional minimum.

Each row lists the weights at the point maximum, the counts (n_A, n_B,
n_C), the exact volume of the level-0 reduced space, and the resulting
second Betti number of the minimum.  The totals never exceed 8, so
b2(M_min) <= 9, and the bound is attained.
"""

from hamfano.fano6 import enumerate_04


def main() -> None:
    rows = enumerate_04()
    header = f"{'max weights':>14s} {'n_A':>4s} {'n_B':>4s} {'n_C':>4s} {'vol(M_0)':>9s} {'b2':>4s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{str(row['max_type']):>14s} {row['n_A']:>4d} {row['n_B']:>4d} "
            f"{row['n_C']:>4d} {str(row['volume']):>9s} "
            f"{row['b2_min']:>4d}"
        )
    print(f"\n{len(rows)} admissible rows; max total {max(r['total'] for r in rows)}; "
          f"max b2 {max(r['b2_min'] for r in rows)}")


if __name__ == "__main__":
    main()
