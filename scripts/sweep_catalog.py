#!/usr/bin/env python3
"""Sweep circle directions over the toric del Pezzo catalog.

For every primitive direction up to the chosen bound this prints, per
polygon: the Hamiltonian range, the fixed-point count, the localisation
sum (always 0), and whether the lemma suite passed.  A one-line summary
per polygon closes the sweep.

usage: python scripts/sweep_catalog.py [--bound N] [--verbose]
"""

import argparse

from hamfano.toric import delpezzo_catalog, fixed_data_from_polytope, scan_directions


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=3)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    for entry in delpezzo_catalog():
        total = ok = suites = 0
        for item in scan_directions(entry.polytope, args.bound):
            total += 1
            if item.report.ok:
                ok += 1
            data = fixed_data_from_polytope(entry.polytope, item.xi)
            if not data.surfaces():  # a fixed sphere means a non-generic direction
                suites += 1
            if args.verbose:
                print(
                    f"  {entry.name} xi={item.xi} H=[{data.h_min()},"
                    f" {data.h_max()}] comps={len(data.components)}"
                    f" sum={item.abbv_sum}"
                    f" {'ok' if item.report.ok else 'VIOLATIONS'}"
                )
        print(
            f"{entry.name:9s} degree {entry.degree}: {total} directions, "
            f"{suites} generic lemma suites, {ok} clean reports"
        )


if __name__ == "__main__":
    main()
