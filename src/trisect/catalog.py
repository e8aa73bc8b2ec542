"""The built-in genus-one diagrams and the genus-zero identity diagram.

Slope conventions are frozen here once and used everywhere: each entry is
the (alpha, beta, gamma) slope triple on the single handle.

* CP2    = ((1,0), (0,1), (1,1))   parameters (1;0,0,0), triangle sign +1
* CP2R   = ((1,0), (0,1), (1,-1))  parameters (1;0,0,0), triangle sign -1
* S1xS3  = ((1,0), (1,0), (1,0))   parameters (1;1,1,1)
* S4STAB1 = ((1,0), (1,0), (0,1))  parameters (1;1,0,0)
* S4STAB2 = ((0,1), (1,0), (1,0))  parameters (1;0,1,0)
* S4STAB3 = ((1,0), (0,1), (1,0))  parameters (1;0,0,1)

CP2R is CP2 with the opposite orientation; the two are told apart by the
sign of det(a,b)*det(b,c)*det(c,a) over the slope triple, which is
invariant under slope sign flips and common SL(2,Z) changes of the
handle basis.

``name_slopes`` is the one genus-one namer, from the three slopes alone
(a pair's H1 is Z/|det|): the classifier's pass, its replay and
``destabilize`` name a piece with it, with no search and no diagram.

``genus_one_diagram`` and ``genus_zero_diagram`` build and check each
diagram once per process and return that object after: a diagram is
``Frozen``, so a sum or stabilization that starts from a shared piece
cannot change it, and its curves are the shared template curves of
``diagram.curve_from_template``.
"""

from __future__ import annotations

from functools import cache

from .diagram import CutSystem, TrisectionDiagram, system_from_templates

GENUS_ONE_SLOPES = {
    "CP2": ((1, 0), (0, 1), (1, 1)),
    "CP2R": ((1, 0), (0, 1), (1, -1)),
    "S1xS3": ((1, 0), (1, 0), (1, 0)),
    "S4STAB1": ((1, 0), (1, 0), (0, 1)),
    "S4STAB2": ((0, 1), (1, 0), (1, 0)),
    "S4STAB3": ((1, 0), (0, 1), (1, 0)),
}


def _slope_key(a, b, c):
    """``(ks, sign)`` of three slopes.  ``ks`` holds k = 1 - |det| of the
    pairs (a, b), (b, c) and (c, a), or is None when some |det| > 1 (see
    ``name_slopes``); ``sign`` is the sign of the three determinants'
    product."""
    dets = [p1 * q2 - q1 * p2
            for (p1, q1), (p2, q2) in ((a, b), (b, c), (c, a))]
    ks = tuple(1 - abs(d) for d in dets)
    prod = dets[0] * dets[1] * dets[2]
    return (ks if min(ks) >= 0 else None), (prod > 0) - (prod < 0)


GENUS_ONE_PARAMS = {name: _slope_key(*slopes)[0]
                    for name, slopes in GENUS_ONE_SLOPES.items()}

# (parameters, slope-triangle sign) -> catalog name
_NAMES = {_slope_key(*slopes): name
          for name, slopes in GENUS_ONE_SLOPES.items()}

# display groups: the three balanced diagrams and the three stabilizations
FIGURE_ONE = ("CP2", "CP2R", "S1xS3")
FIGURE_TWO = ("S4STAB1", "S4STAB2", "S4STAB3")

ALL_NAMES = FIGURE_ONE + FIGURE_TWO


@cache
def genus_one_diagram(name):
    """The catalog piece ``name``, built and checked on its first call and
    shared after; an unknown name raises on every call."""
    slopes = GENUS_ONE_SLOPES.get(name)
    if slopes is None:
        raise ValueError("unknown catalog name %r (try one of %s)"
                         % (name, ", ".join(ALL_NAMES)))
    systems = [system_from_templates(1, [(1, p, q)]) for (p, q) in slopes]
    return TrisectionDiagram(1, systems[0], systems[1], systems[2],
                             declared_params=GENUS_ONE_PARAMS[name])


@cache
def genus_zero_diagram():
    empty = CutSystem(0, ())
    return TrisectionDiagram(0, empty, empty, empty, declared_params=(0, 0, 0))


def triangle_sign(t):
    """Orientation sign of a genus-one diagram's slope triangle."""
    return _slope_key(*(cs.curves[0].homology.handle_part(1)
                        for cs in t.systems()))[1]


def genus_one_name(ks, sign):
    """The catalog diagram with parameters ``ks`` and slope-triangle sign
    ``sign``, or None.

    The parameters name every entry but CP2 and CP2R, which share
    (0,0,0) and have opposite signs; every other entry has sign 0.  On a
    genus-one diagram without torsion the parameters fix the sign: k = 1
    on a pair makes its slopes equal and the sign 0, and (0,0,0) makes
    every determinant +-1.  So a None here means the parameters match no
    entry.
    """
    return _NAMES.get((tuple(ks), sign))


def name_slopes(a, b, c):
    """Name a genus-one piece from its alpha, beta and gamma slopes, or
    None on torsion.

    The pair of slopes u, v is S3, S1xS2 or a lens space with
    H1 = Z/|det(u, v)|, so |det| > 1 is torsion and otherwise
    k = 1 - |det|; the triangle sign tells CP2 from CP2R.
    """
    return _NAMES.get(_slope_key(a, b, c))


def match_genus_one(t):
    """``name_slopes`` of a genus-one diagram; None also when its declared
    parameters are not the named entry's, as ``pair_homology`` refutes."""
    if t.genus != 1:
        raise ValueError("match_genus_one needs a genus-one diagram")
    name = name_slopes(*(cs.curves[0].homology.handle_part(1)
                         for cs in t.systems()))
    if t.declared_params in (None, GENUS_ONE_PARAMS.get(name)):
        return name
    return None
