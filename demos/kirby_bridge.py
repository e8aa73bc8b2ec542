"""Round trip between Heegaard-Kirby diagrams and trisections.

Validates the 0-framed unknot on the standard genus-1 splitting,
completes it to a trisection, then goes the other way: picks a
primitive gamma/beta pair on the CP2 diagram, rebuilds a trisection
from the extracted surgery diagram, and prints its catalog name.
"""

from trisect.catalog import genus_one_diagram, match_genus_one
from trisect.diagio import format_diagram
from trisect.diagram import curve_from_template, standard_heegaard
from trisect.kirby import (FramedComponent, HeegaardKirbyDiagram, find_primitive_pairs,
                           hk_to_trisection, trisection_to_hk, validate_hk)


def main():
    print("== 0-framed unknot over the standard genus-1 splitting ==")
    H = HeegaardKirbyDiagram(1, standard_heegaard(1, 0),
                             (FramedComponent(curve_from_template(1, 1, 1, 0)),),
                             m=1)
    print(format_diagram(H))
    verdict = validate_hk(H)
    print("validate: %s (%s)" % (verdict.status, verdict.reason))

    # the bridge's verdict is trisection_params' on the trisection it
    # assembles, so the declared parameters it checks are the computed ones
    t, bridge = hk_to_trisection(H)
    print("completed trisection parameters: (%d;%d,%d,%d)  [%s]"
          % (t.genus, *t.declared_params, bridge.status))
    print()
    print(format_diagram(t))

    print()
    print("== back the other way, starting from CP2 ==")
    cp2 = genus_one_diagram("CP2")
    pairs, exact = find_primitive_pairs(cp2)
    print("primitive gamma/beta pairs on CP2: %s  [%s]"
          % (pairs, "exact" if exact else "inexact"))
    H2, hv = trisection_to_hk(cp2, [pairs[0]])
    print("extracted surgery diagram [%s]:" % hv.status)
    print(format_diagram(H2))
    back, bv = hk_to_trisection(H2)
    name = match_genus_one(back)
    print("round trip rebuilds a diagram named %s: %s  [%s]"
          % (name, name == "CP2", bv.status))


if __name__ == "__main__":
    main()
