"""Tour of the genus-one catalog and the classification pipeline.

Builds the six standard genus-one trisection diagrams, prints their
certified parameters and invariants, then scrambles a connected sum
with handleslides and watches standardize recover the summand names.
"""

import random

from trisect.catalog import FIGURE_ONE, FIGURE_TWO, genus_one_diagram
from trisect.diagio import format_diagram
from trisect.diagram import (euler_characteristic, trisection_h1,
                             trisection_params)
from trisect.moves import connected_sum, handleslide, standardize, sum_name


def show(name, t):
    params, verdict = trisection_params(t)
    print("%-8s params=(%d;%d,%d,%d)  chi=%d  h1=%s  [%s]"
          % (name, params.genus, *params.ks,
             euler_characteristic(params), trisection_h1(t),
             verdict.status))


def main():
    print("== genus-one catalog ==")
    for name in FIGURE_ONE + FIGURE_TWO:
        show(name, genus_one_diagram(name))

    print()
    print("== a connected sum, in file form ==")
    # keep max(k) >= g-1 so the sum stays inside the classified range
    t = connected_sum(genus_one_diagram("S1xS3"),
                      connected_sum(genus_one_diagram("S1xS3"),
                                    genus_one_diagram("CP2")))
    print(format_diagram(t))
    show("sum", t)

    print()
    print("== scramble with handleslides, then standardize ==")
    rng = random.Random(2026)
    systems = {}
    for label in ("alpha", "beta", "gamma"):
        cs = t.system(label)
        for _ in range(4):
            i = rng.randrange(1, t.genus + 1)
            j = rng.randrange(1, t.genus + 1)
            if i == j:
                continue
            try:
                cs = handleslide(cs, i, j, sign=rng.choice((1, -1)))
            except ValueError:
                continue
        systems[label] = cs
    scrambled = type(t)(t.genus, systems["alpha"], systems["beta"],
                        systems["gamma"], t.declared_params)
    names, verdict = standardize(scrambled)
    print("recovered: %s  [%s]" % (sum_name(names), verdict.status))


if __name__ == "__main__":
    main()
