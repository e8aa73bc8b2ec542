"""Cut systems, Heegaard diagrams, trisection diagrams, and their invariants.

Index conventions shared across the package:

* handles are numbered 1..g, and so are the curves inside a system;
* a slope (p, q) on handle h is the primitive homology class
  p*a_h + q*b_h, realized by the standard embedded curve of that slope
  supported in the handle's once-punctured torus;
* the parameter triple (k1, k2, k3) is read off the three boundary
  Heegaard pairs in the fixed order (alpha, beta), (beta, gamma),
  (gamma, alpha).

``pair_homology`` is the one home of what homology says of those three
pairs: their H1, the ranks, and the refutation (a declared-parameter
mismatch, then a torsion pair).  It runs no search; ``trisection_params``
adds the Tietze confirmations on top, reusing its H1s, and the classifier
and witness replay use it alone, on the input (never on a piece).  At
genus <= 1 the surface relator makes pi1 of a pair abelian, so
``detect_k`` reads k from H1 there and runs no Tietze search either.

Geometric intersection numbers are exact only between slope-template
curves; for word curves the engine reports the algebraic count as an
honest lower bound instead of guessing minimal position.

Which constructors check: ``SlopeTemplate``, ``Curve`` and ``CutSystem``
check their data, and parsed files and link completions go through them.
``curve_from_word``, ``curve_from_template`` and ``reembed`` compute a
curve's word and class themselves, so they skip the Curve checks;
``moved_system`` skips the Lagrangian check for the systems moves build
out of checked ones (its docstring gives the invariant).
``curve_from_template`` returns one shared curve per (genus, handle,
sign-normalized slope), and one shared ``SlopeTemplate`` per (handle,
slope), so ``reembed``, sums, stabilizations and parsed ``@h(p,q)``
curves build no copies.  Sharing is safe because every value is
``Frozen``: equal by its fields, never changed after it is built (the
``_support`` cache is no field), and no engine code compares curves by
identity.
"""

from __future__ import annotations

from math import gcd
from operator import index, mul

from . import words
from .homology import (HomologyClass, abelianize, algebraic_intersection,
                       lagrangian_verdict)
from .intmatrix import cokernel
from .presentations import presentation, tietze_simplify
from .verdict import (Frozen, recorded_finding, refuted, unknown, verified,
                      weakest)


class SlopeTemplate(Frozen):
    """The (p, q) curve supported in handle ``handle``.

    Stored sign-normalized (p > 0, or p == 0 and q > 0) since a slope and
    its negative are the same unoriented curve, and as exact ints (True
    becomes 1; a float is a TypeError), so equal templates share a key.
    """
    _fields = ("handle", "p", "q")

    def __post_init__(self):
        if self.handle < 1:
            raise ValueError("handle index %d out of range" % self.handle)
        if self.p == 0 and self.q == 0:
            raise ValueError("slope (0, 0) is not a curve")
        for name in self._fields:
            object.__setattr__(self, name, index(getattr(self, name)))
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError("slope (%d, %d) is not primitive" % (self.p, self.q))
        if self.p < 0 or (self.p == 0 and self.q < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    @property
    def slope(self):
        return (self.p, self.q)

    def word(self):
        raw = words.christoffel_word(self.p, self.q)
        base = 2 * (self.handle - 1)
        return tuple((base + abs(v)) * (1 if v > 0 else -1) for v in raw)

    def homology(self, genus):
        coeffs = [0] * (2 * genus)
        coeffs[2 * (self.handle - 1)] = self.p
        coeffs[2 * self.handle - 1] = self.q
        return _unchecked(HomologyClass, genus=genus, coeffs=tuple(coeffs))


class Curve(Frozen):
    """A curve on the genus-g model surface.

    The word is the free-homotopy representative (cyclically reduced), the
    homology class is its abelianization, and the template, when present,
    pins the curve to an exact slope model in one handle.
    """
    _fields = ("genus", "word", "homology", "template")
    _defaults = {"template": None}
    __slots__ = ("_support",)

    def __post_init__(self):
        if self.homology.genus != self.genus:
            raise ValueError("curve genus mismatch")
        if tuple(words.cyclic_reduce(self.word)) != tuple(self.word):
            raise ValueError("curve word must be cyclically reduced")
        if abelianize(self.genus, self.word) != self.homology:
            raise ValueError("homology does not match the curve word")
        if self.template is not None:
            if self.template.handle > self.genus:
                raise ValueError("template handle %d exceeds genus %d"
                                 % (self.template.handle, self.genus))
            if self.template.homology(self.genus) != self.homology:
                raise ValueError("template slope does not match homology")

    def key(self):
        """Unoriented free-homotopy key (cyclic word up to inversion)."""
        return words.cyclic_min(self.word)

    def support(self):
        """The frozenset of handles the word runs over, built once per
        curve and kept in the slot ``_support``, which is no field, so
        equality, hashing and repr are unchanged."""
        supp = getattr(self, "_support", None)
        if supp is None:
            supp = frozenset([(abs(v) + 1) // 2 for v in self.word])
            object.__setattr__(self, "_support", supp)
        return supp


def _unchecked(cls, **fields):
    """A frozen ``cls`` with ``fields`` set and its __post_init__ skipped.

    Each field fills its slot; a name that is no slot of ``cls`` raises
    ``AttributeError``."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


# The shared template values: (handle, p, q) -> its SlopeTemplate, and
# (genus, handle, p, q) -> its Curve, slopes sign-normalized.  A key is
# read off a template that SlopeTemplate accepted and an int genus, so a
# rejected input raises on every call and stores nothing.
_TEMPLATES = {}
_TEMPLATE_CURVES = {}


def curve_from_template(genus, handle, p, q):
    """The slope-(p, q) curve of handle ``handle`` on the genus-``genus``
    surface: one shared object per (genus, handle, sign-normalized
    slope), built on its first call."""
    if handle > genus:
        raise ValueError("handle %d exceeds genus %d" % (handle, genus))
    tpl = SlopeTemplate(handle, p, q)
    genus = index(genus)
    key = (genus, tpl.handle, tpl.p, tpl.q)
    curve = _TEMPLATE_CURVES.get(key)
    if curve is None:
        tpl = _TEMPLATES.setdefault(key[1:], tpl)
        # the Christoffel word is cyclically reduced and abelianizes to (p, q)
        curve = _unchecked(Curve, genus=genus, word=tpl.word(),
                           homology=tpl.homology(genus), template=tpl)
        _TEMPLATE_CURVES[key] = curve
    return curve


def curve_from_word(genus, word):
    w = words.cyclic_reduce(word)
    return _unchecked(Curve, genus=genus, word=w,
                      homology=abelianize(genus, w), template=None)


def reembed(curve, genus, handle_map):
    """``curve`` on the genus-``genus`` surface, handle h moved to
    ``handle_map[h]``.

    The map must be defined and injective on the curve's support, with
    values in 1..genus.  A word curve's letters x_h, y_h become x_h',
    y_h' for h' = handle_map[h].  A slope template keeps its slope on the
    new handle: only ``curve_from_template`` makes template curves, so the
    result is ``curve_from_template(genus, h', p, q)``, the shared curve.
    """
    tpl = curve.template
    if tpl is not None:
        return curve_from_template(genus, handle_map[tpl.handle], tpl.p, tpl.q)
    word = []
    for v in curve.word:
        h = (abs(v) + 1) // 2
        step = 2 * (handle_map[h] - h)
        word.append(v + step if v > 0 else v - step)
    return curve_from_word(genus, tuple(word))


def same_curve(c1, c2):
    """Equality as unoriented free-homotopy classes of the stored words."""
    return c1.genus == c2.genus and c1.key() == c2.key()


def geometric_intersection(c1, c2):
    """(count, exact) with exact counts only for template curves.

    Template vs template on one handle is |p1 q2 - q1 p2|; on distinct
    handles the curves are disjoint.  Anything else falls back to the
    algebraic count, a lower bound for the geometric one.
    """
    if c1.genus != c2.genus:
        raise ValueError("genus mismatch %d vs %d" % (c1.genus, c2.genus))
    if c1.template is not None and c2.template is not None:
        t1, t2 = c1.template, c2.template
        if t1.handle != t2.handle:
            return (0, True)
        return (abs(t1.p * t2.q - t1.q * t2.p), True)
    return (abs(algebraic_intersection(c1.homology, c2.homology)), False)


class CutSystem(Frozen):
    """g disjoint curves cutting the genus-g handlebody to a ball.

    ``CutSystem(genus, curves)`` enforces the homological necessary
    condition: the g classes must span a rank-g Lagrangian direct
    summand.  Input data (parsed files, link completions) goes through
    it.  Moves go through ``moved_system`` instead: a move keeps a cut
    system a cut system, so re-proving the condition after every slide,
    split or destabilization would only repeat a fact already checked.
    Embeddedness and disjointness of word curves are declared input data.
    """
    _fields = ("genus", "curves")

    def __post_init__(self):
        if len(self.curves) != self.genus:
            raise ValueError("cut system needs exactly %d curves, got %d"
                             % (self.genus, len(self.curves)))
        for c in self.curves:
            if c.genus != self.genus:
                raise ValueError("curve genus mismatch in cut system")
        v = lagrangian_verdict(self.classes(), self.genus)
        if not v.is_verified:
            raise ValueError("invalid cut system: %s" % v.reason)

    def classes(self):
        return [c.homology for c in self.curves]

    def curve(self, i):
        """1-based accessor."""
        if not 1 <= i <= self.genus:
            raise ValueError("curve index %d out of range 1..%d" % (i, self.genus))
        return self.curves[i - 1]

    def member(self, curve):
        return any(same_curve(c, curve) for c in self.curves)


def moved_system(genus, curves):
    """A cut system built by a move from checked ones, without re-checking.

    Callers keep the invariant that makes the Lagrangian check redundant:
    the new classes are a unimodular image, direct sum or direct summand
    of the classes of systems that were already checked.

    * a handleslide maps h_i to h_i +- h_j (a guide only conjugates);
    * a connected sum joins checked systems on disjoint handle sets, and
      a Heegaard stabilization adds (1,0) or (0,1) on a new handle;
    * a destabilization keeps the curves on one side of a
      support-disjoint sum, and a direct summand of a Lagrangian summand
      is one on its own handles.
    """
    return _unchecked(CutSystem, genus=genus, curves=curves)


def system_from_templates(genus, slopes):
    """Cut system from a list of (handle, p, q) triples."""
    return CutSystem(genus, tuple(curve_from_template(genus, h, p, q)
                                  for (h, p, q) in slopes))


class HeegaardDiagram(Frozen):
    _fields = ("genus", "alpha", "beta")

    def __post_init__(self):
        if self.alpha.genus != self.genus or self.beta.genus != self.genus:
            raise ValueError("cut system genus mismatch")


class TrisectionDiagram(Frozen):
    _fields = ("genus", "alpha", "beta", "gamma", "declared_params")
    _defaults = {"declared_params": None}

    def __post_init__(self):
        for cs in (self.alpha, self.beta, self.gamma):
            if cs.genus != self.genus:
                raise ValueError("cut system genus mismatch")
        if self.declared_params is not None:
            ks = tuple(self.declared_params)
            if len(ks) != 3 or any(k < 0 or k > self.genus for k in ks):
                raise ValueError("declared params %r out of range for genus %d"
                                 % (self.declared_params, self.genus))
            object.__setattr__(self, "declared_params", ks)

    def systems(self):
        return (self.alpha, self.beta, self.gamma)

    def system(self, name):
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}[name]


class TrisectionParams(Frozen):
    _fields = ("genus", "k1", "k2", "k3")

    def __post_init__(self):
        for k in (self.k1, self.k2, self.k3):
            if k < 0 or k > self.genus:
                raise ValueError("parameter %d out of range for genus %d"
                                 % (k, self.genus))

    @property
    def ks(self):
        return (self.k1, self.k2, self.k3)

    def __str__(self):
        return "(%d;%d,%d,%d)" % (self.genus, self.k1, self.k2, self.k3)


def euler_characteristic(params):
    """chi from the handle counts (1, k1, g - k2, k3, 1)."""
    return 2 + params.genus - (params.k1 + params.k2 + params.k3)


# -- Heegaard pair invariants -------------------------------------------------

def heegaard_h1(d):
    """H1 of the split 3-manifold: the cokernel of the g x g matrix
    M[i][j] = <alpha_i, beta_j>.

    H1 is Z^{2g} modulo both systems' classes.  The alpha classes span a
    Lagrangian direct summand L (``CutSystem`` checks it and
    ``moved_system`` keeps it).  The intersection pairing is unimodular
    and L is a summand, so x -> (<alpha_i, x>)_i maps Z^{2g} onto Z^g; its
    kernel is the orthogonal complement of L, which is L itself.  So
    Z^{2g}/L is Z^g, and H1 is Z^g modulo the images of the beta classes,
    the columns of M.  Each dot product is taken against the beta class's
    symplectic dual, (b1, -a1, ..., bg, -ag).
    """
    rows = [c.coeffs for c in d.alpha.classes()]
    cols = []
    for c in d.beta.classes():
        dual = [0] * (2 * d.genus)
        dual[0::2] = c.coeffs[1::2]
        dual[1::2] = [-x for x in c.coeffs[0::2]]
        cols.append([sum(map(mul, row, dual)) for row in rows])
    return cokernel(cols, d.genus)


def commutator_word(handles):
    """Product of the commutators [x_h, y_h] over ``handles``, in order.

    It is the boundary word of the subsurface those handles span, so it
    is null-homologous.
    """
    out = []
    for h in handles:
        x, y = 2 * h - 1, 2 * h
        out.extend((x, y, -x, -y))
    return tuple(out)


def surface_relator(genus):
    """Boundary word of the standard polygon: product of commutators."""
    return commutator_word(range(1, genus + 1))


def quotient_presentation(genus, systems):
    """pi1 of the surface modulo the given systems' curves.

    Generators x1, y1, .., xg, yg as letters 1..2g; relators are the
    surface relator plus every curve word.
    """
    relators = []
    if genus > 0:
        relators.append(surface_relator(genus))
    for cs in systems:
        relators.extend(c.word for c in cs.curves)
    return presentation(2 * genus, relators)


def torsion_refutation(h1):
    """The refutation a Heegaard pair with first homology ``h1`` gets from
    its torsion, or None when ``h1`` is free."""
    if h1.is_free:
        return None
    return refuted(
        "H1 has torsion, so the diagram presents no #^k(S1xS2)",
        {"kind": "torsion", "h1": str(h1), "factors": list(h1.torsion)})


def detect_k(d, h1=None, recorded=None):
    """Which #^k(S1xS2) does this Heegaard diagram present, if any?

    Homology pins the candidate k (Refuted on torsion or when no free
    candidate exists); a Tietze run on pi1 confirms freeness of rank k.
    At genus <= 1 pi1 is abelian, hence H1, and the witness has no trace.
    ``h1`` is the diagram's H1, when the caller has it.  Given a
    ``recorded`` detect-k witness, the Tietze run replays its trace
    instead of searching; a null trace is a ValueError.
    """
    if h1 is None:
        h1 = heegaard_h1(d)
    k = h1.free_rank
    bad = torsion_refutation(h1)
    if bad is not None:
        return k, bad
    witness = {"kind": "detect-k", "k": k, "h1": str(h1)}
    if d.genus <= 1:
        return k, verified("pi1 is abelian at genus %d, so it is H1 = Z^%d"
                           % (d.genus, k), witness)
    _, v = tietze_simplify(quotient_presentation(d.genus, [d.alpha, d.beta]),
                           None if recorded is None
                           else recorded_finding(recorded["trace"], "trace"))
    if not v.is_verified:
        return k, unknown("H1 is Z^%d but pi1 freeness unconfirmed: %s"
                          % (k, v.reason))
    if v.witness["rank"] != k:
        raise AssertionError("pi1 rank %d contradicts H1 rank %d"
                             % (v.witness["rank"], k))
    witness["trace"] = v.witness["trace"]
    return k, verified("pi1 is free of rank %d, matching H1" % k, witness)


# -- trisection parameters ----------------------------------------------------

_PAIRS = (("alpha", "beta"), ("beta", "gamma"), ("gamma", "alpha"))


def pair_diagrams(t):
    """The three boundary Heegaard pairs of ``t``, in ``_PAIRS`` order."""
    return [HeegaardDiagram(t.genus, t.system(a), t.system(b))
            for a, b in _PAIRS]


def pair_homology(t):
    """(h1s, ks, refutation): what homology alone says of the three pairs.

    ``h1s`` are the pairs' first homology groups in ``_PAIRS`` order and
    ``ks`` their free ranks.  ``refutation`` is None or the first of: a
    params-mismatch when declared parameters differ from ``ks``, then a
    torsion refutation of the first pair with torsion.  No search runs.
    """
    h1s = [heegaard_h1(d) for d in pair_diagrams(t)]
    ks = tuple(h1.free_rank for h1 in h1s)
    if t.declared_params is not None and ks != t.declared_params:
        return h1s, ks, refuted(
            "declared parameters %r do not match computed %s"
            % (t.declared_params, TrisectionParams(t.genus, *ks)),
            {"kind": "params-mismatch",
             "declared": list(t.declared_params), "computed": list(ks)})
    torsion = next((h1 for h1 in h1s if not h1.is_free), None)
    return h1s, ks, None if torsion is None else torsion_refutation(torsion)


def trisection_params(t, recorded=None):
    """(k1, k2, k3) from the three boundary Heegaard pairs.

    k1 comes from (alpha, beta), k2 from (beta, gamma), k3 from
    (gamma, alpha).  ``pair_homology`` refutes first; otherwise a Tietze
    run confirms each pair, and the verdict is the weakest of the three.
    Given a ``recorded`` params witness, each pair replays its recorded
    pair witness (``detect_k``); anything but three, or a null one, is a
    ValueError.
    """
    h1s, ks, bad = pair_homology(t)
    params = TrisectionParams(t.genus, *ks)
    if bad is not None:
        return params, bad
    pairs = [None] * 3 if recorded is None else \
        [recorded_finding(pw, "pair witness") for pw in recorded["pairs"]]
    verdicts = [detect_k(d, h1, pw)[1] for d, h1, pw
                in zip(pair_diagrams(t), h1s, pairs, strict=True)]
    v = weakest(verdicts)
    if v.is_verified:
        return params, verified(
            "parameters %s verified on all three pairs" % params,
            {"kind": "params", "ks": list(ks),
             "pairs": [w.witness for w in verdicts]})
    return params, v


def pi1_presentation(t):
    """Fundamental group of the 4-manifold built on the diagram."""
    return quotient_presentation(t.genus, [t.alpha, t.beta, t.gamma])


def trisection_h1(t):
    """H1 of the 4-manifold: Z^{2g} modulo all three systems' classes."""
    cols = [list(c.coeffs)
            for cs in t.systems() for c in cs.classes()]
    return cokernel(cols, 2 * t.genus)


def standard_heegaard(g, k):
    """The (g,k)-standard diagram: first k pairs equal, the rest dual."""
    if not 0 <= k <= g:
        raise ValueError("need 0 <= k <= g")
    alpha = system_from_templates(g, [(h, 1, 0) for h in range(1, g + 1)])
    beta = system_from_templates(
        g, [(h, 1, 0) if h <= k else (h, 0, 1) for h in range(1, g + 1)])
    return HeegaardDiagram(g, alpha, beta)

