#!/usr/bin/env python3
"""Walk the two scaling-conjugation families and watch the structure move.

Part 1 conjugates a random polynomial automorphism through the uniform
scaling family: degree-k coefficients shrink like t^(k-1) until only the
linear part survives at t = 0.

Part 2 runs the graded family on a Jordan block J(alpha, n): the
superdiagonal becomes exactly t, and the numerically computed Jordan block
structure jumps from one n-block to n one-blocks at t = 0.  Contraction
certificates are printed along the way.

Usage:
    python3 scripts/deformation_demo.py [--alpha A] [--size N] [--seed S]
"""

import argparse
import sys

import numpy as np

from hopflck import hopf, maps as mp

T_VALUES = (1.0, 0.5, 0.1, 0.0)


def random_automorphism(dim, max_degree, rng):
    while True:
        lin = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if abs(np.linalg.det(lin)) > 0.1:
            break
    tables = []
    for i in range(dim):
        table = {tuple(1 if k == j else 0 for k in range(dim)): complex(lin[i, j])
                 for j in range(dim)}
        for _ in range(3):
            mono = tuple(int(e) for e in rng.integers(0, max_degree + 1, dim))
            if 2 <= sum(mono) <= max_degree:
                table[mono] = complex(rng.normal(), rng.normal())
        tables.append(table)
    return mp.PolyAutomorphism.from_tables(tables)


def show_map(g):
    for i, comp in enumerate(g.components):
        parts = ["%.3g%+.3gj * z^%s" % (c.real, c.imag, list(m))
                 for m, c in sorted(comp.coeffs.items())]
        print("      w%d = %s" % (i + 1, "  +  ".join(parts) if parts else "0"))


def part_one(seed):
    print("== linearizing family: T_t^-1 . g . T_t, uniform weights ==")
    g = random_automorphism(2, 3, np.random.default_rng(seed))
    fam = hopf.family_to_linear(g)
    for t in T_VALUES:
        at = fam.at(t)
        print("  t = %g   (degree %d)" % (t, at.degree()))
        show_map(at)
    lim = fam.limit0()
    print("  limit agrees with the linear part: %s"
          % np.array_equal(lim.linear_part(), g.linear_part()))


def part_two(alpha, size):
    print("== diagonalizing family on the Jordan block J(%g, %d) ==" % (alpha, size))
    block = np.diag([alpha] * size).astype(complex)
    for i in range(size - 1):
        block[i, i + 1] = 1.0
    fam = hopf.family_to_diagonal(block)
    for t in T_VALUES:
        at = fam.at(t)
        dec = mp.jordan_form(at.linear_part())
        blocks = ", ".join("J(%.3g%+.3gj, %d)" % (l.real, l.imag, s)
                           for l, s in dec.blocks)
        contraction = mp.contraction_test(at)
        cert = ("contraction in %s iterations" % contraction.iterations_needed
                if contraction.is_contraction
                else "not a contraction (%s)" % contraction.reason)
        print("  t = %-5g  blocks: %-28s %s" % (t, blocks, cert))
    print("  superdiagonal at t is exactly t; the block structure jumps at 0.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="Jordan eigenvalue, 0 < |alpha| < 1")
    parser.add_argument("--size", type=int, default=3,
                        help="Jordan block size (2..6)")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if not 0 < abs(args.alpha) < 1:
        parser.error("alpha must satisfy 0 < |alpha| < 1")
    if not 2 <= args.size <= 6:
        parser.error("size must be between 2 and 6")
    part_one(args.seed)
    print()
    part_two(args.alpha, args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
