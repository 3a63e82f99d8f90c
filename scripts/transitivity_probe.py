#!/usr/bin/env python3
"""Probe order-like laws of the preference relations on real values.

The selfish <= is proven a partial order in the preferences docstring,
so its strict order here is a regression check.  The open question is
the prudent strict order, which is not asymmetric: at --max-n 6 this
script finds [1,[[1,[1,3]]]] and [3,[1,3],[[1,[1,3]]]] each below the
other for player 2, and exits 1.  The script collects every distinct raw
value of the 1xn boards up to a length, then checks on all pairs/triples
(or a random sample when that is too many):

  irreflexivity   not (x < x)
  asymmetry       not (x < y and y < x)
  transitivity    x < y and y < z  implies  x < z

for the selfish strict order and the prudent strict order, from each
perspective.  Violations print with their witnesses, and any violation
makes the exit status 1.

Usage:
    python3 scripts/transitivity_probe.py --max-n 6 --sample 200000
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys

from nclobber.enumeration import raw_values, run_keys
from nclobber.preferences import leq, prudent_less
from nclobber.values import render_value


def _strict_selfish(x, y, p):
    return leq(x, y, p) and not leq(y, x, p)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6, help="largest board length")
    parser.add_argument(
        "--sample", type=int, default=200_000,
        help="max random triples per relation/perspective",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    keys = (key for n in range(2, args.max_n + 1) for key in run_keys(n))
    # Bar text orders the values as census inventories do, so a seed
    # samples the same triples.
    values = sorted(raw_values(keys), key=lambda v: render_value(v, "bar"))
    print(f"{len(values)} distinct raw values from lengths 2..{args.max_n}")

    rng = random.Random(args.seed)
    total = len(values) ** 3
    exhaustive = total <= args.sample
    print("triples:", "exhaustive" if exhaustive else f"sampling {args.sample} of {total}")

    violations = 0
    for name, strict in (("selfish", _strict_selfish), ("prudent", prudent_less)):
        for p in (1, 2, 3):
            for x in values:
                if strict(x, x, p):
                    violations += 1
                    print(f"irreflexivity broken ({name}, p={p}): {x}")
            for x, y in itertools.combinations(values, 2):
                if strict(x, y, p) and strict(y, x, p):
                    violations += 1
                    print(f"asymmetry broken ({name}, p={p}): {x} / {y}")
            if exhaustive:
                triples = itertools.product(values, repeat=3)
            else:
                triples = (
                    (rng.choice(values), rng.choice(values), rng.choice(values))
                    for _ in range(args.sample)
                )
            for x, y, z in triples:
                if strict(x, y, p) and strict(y, z, p) and not strict(x, z, p):
                    violations += 1
                    print(f"transitivity broken ({name}, p={p}):")
                    print(f"  x = {x}\n  y = {y}\n  z = {z}")
            print(f"{name} p={p}: done")

    print(f"\n{violations} violation(s) found")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
