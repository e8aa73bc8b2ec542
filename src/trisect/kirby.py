"""Framed links on Heegaard surfaces and the trisection bridge.

A Heegaard diagram of #^n(S1xS2) together with a surface-framed link
determines a trisection whose third system is the link completed by
curves parallel to the beta side; conversely a trisection with a full
set of primitive gamma/beta pairs hands back the framed link.  The
linking-matrix calculus at the bottom tracks the homological shadow of
framed-link handleslides and stabilizations.

That calculus needs only ``intmatrix`` and ``verdict``, so the modules
the bridge runs (``diagram``, ``homology``, ``presentations``) are
imported inside the functions that call them, and a linking-matrix
command loads none of the three.
"""

from __future__ import annotations

from .intmatrix import IntegerMatrix, cokernel, invariant_factors, kernel_basis
from .verdict import (Frozen, recorded_finding, refuted, unknown, verified,
                      weakest)

SURFACE = "surface"


class FramedComponent(Frozen):
    """A link component on the surface: a curve plus its framing.

    The framing is either the surface framing induced by the Heegaard
    surface or an integer; integer framings only make sense over an S3
    background (n = 0), which validate_hk enforces.
    """
    _fields = ("curve", "framing")
    _defaults = {"framing": SURFACE}

    def __post_init__(self):
        if self.framing != SURFACE and not isinstance(self.framing, int):
            raise ValueError("framing must be %r or an integer" % SURFACE)

    @property
    def is_surface_framed(self):
        return self.framing == SURFACE


class HeegaardKirbyDiagram(Frozen):
    """A framed link (a tuple of FramedComponent) over a Heegaard
    diagram, with a declared target m."""
    _fields = ("genus", "background", "link", "m")

    def __post_init__(self):
        if self.background.genus != self.genus:
            raise ValueError("background genus %d does not match %d"
                             % (self.background.genus, self.genus))
        if len(self.link) > self.genus:
            raise ValueError("more link components than genus")
        for comp in self.link:
            if not isinstance(comp, FramedComponent):
                raise ValueError("link entries must be FramedComponent")
            if comp.curve.genus != self.genus:
                raise ValueError("link curve genus mismatch")
        if self.m < 0:
            raise ValueError("target count m must be nonnegative")

    @property
    def c(self):
        return len(self.link)


def _link_embedding_check(H):
    """Pairwise disjointness of link components, as far as data allows.

    Returns (refutation | None, number of pairs without exact counts).
    """
    from .diagram import geometric_intersection
    from .homology import algebraic_intersection

    inexact = 0
    comps = H.link
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            count, exact = geometric_intersection(comps[i].curve,
                                                  comps[j].curve)
            if exact and count != 0:
                return refuted(
                    "link components %d and %d intersect %d times, so the "
                    "link is not embedded" % (i + 1, j + 1, count),
                    {"kind": "link-crossing", "pair": [i + 1, j + 1],
                     "count": count}), inexact
            if not exact:
                alg = algebraic_intersection(comps[i].curve.homology,
                                             comps[j].curve.homology)
                if alg != 0:
                    return refuted(
                        "link components %d and %d have algebraic "
                        "intersection %d" % (i + 1, j + 1, alg),
                        {"kind": "link-crossing", "pair": [i + 1, j + 1],
                         "count": alg}), inexact
                inexact += 1
    return None, inexact


def _beta_extension_check(H):
    """The link classes must extend the beta classes to a primitive set."""
    cols = [c.coeffs for c in H.background.beta.classes()]
    cols += [comp.curve.homology.coeffs for comp in H.link]
    factors = invariant_factors(cols)
    if len(factors) != len(cols) or any(d != 1 for d in factors):
        return refuted(
            "link classes do not extend the beta system to a primitive "
            "family (a beta-parallel or cabled component)",
            {"kind": "link-extension", "factors": list(factors)})
    return None


def _surviving_beta_classes(H):
    """Integer combinations of beta classes pairing to zero with the link."""
    from .homology import algebraic_intersection

    beta = H.background.beta.classes()
    if not H.link:
        return [list(c.coeffs) for c in beta]
    pairing = IntegerMatrix.from_rows(
        [[algebraic_intersection(b, comp.curve.homology) for b in beta]
         for comp in H.link])
    out = []
    for combo in kernel_basis(pairing):
        vec = [0] * (2 * H.genus)
        for coef, b in zip(combo, beta):
            for k, x in enumerate(b.coeffs):
                vec[k] += coef * x
        out.append(vec)
    return out


def _surgery_homology(H):
    cols = [c.coeffs for c in H.background.alpha.classes()]
    cols += [comp.curve.homology.coeffs for comp in H.link]
    cols += _surviving_beta_classes(H)
    return cokernel(cols, 2 * H.genus)


def complete_link_to_system(H):
    """Link curves completed to a cut system by beta-parallel curves.

    Candidates are the beta curves themselves, taken in order, each
    required to meet every link component in exactly zero points (exact
    data only) and to keep the class family primitive.  Returns None
    when no full completion is found this way.
    """
    from .diagram import CutSystem, geometric_intersection

    g = H.genus
    curves = [comp.curve for comp in H.link]
    cols = [c.homology.coeffs for c in curves]
    for bc in H.background.beta.curves:
        if len(curves) == g:
            break
        if any(geometric_intersection(bc, comp.curve) != (0, True)
               for comp in H.link):
            continue
        trial = cols + [bc.homology.coeffs]
        factors = invariant_factors(trial)
        if len(factors) != len(trial) or any(d != 1 for d in factors):
            continue
        curves.append(bc)
        cols = trial
    if len(curves) != g:
        return None
    try:
        return CutSystem(g, tuple(curves))
    except ValueError:
        return None


def validate_hk(H, recorded=None):
    """Does the diagram present surgery data from #^n to #^m?

    Checks, in order: the background is a confirmed #^n diagram; integer
    framings only appear over S3; the link is embeddable as far as exact
    data goes; the link classes extend the beta system primitively; the
    surgered first homology is Z^m; and pi1 of the surgered manifold is
    confirmed free of rank m when a completion is available.  Given a
    ``recorded`` heegaard-kirby witness, the two Tietze runs replay its
    background's and its pi1's traces instead of searching; a null
    background witness or trace is a ValueError.
    """
    return _validate_hk(H, recorded)[0]


def surgery_data_check(H, h1):
    """The search-free steps of validate_hk, over a background whose
    first homology is ``h1``: its torsion, the framings, the embedding,
    the primitive extension of beta and the surgered homology, in order.

    Returns (verdict, the number of link pairs without exact counts, 0
    when it stops before the embedding): the first step's refutation,
    unknown when integer framings leave the homology undecided, or None
    when every step passes.
    """
    from .diagram import torsion_refutation

    bad = torsion_refutation(h1)
    if bad is not None:
        return refuted("background: %s" % bad.reason,
                       {"kind": "background", "inner": bad.witness}), 0
    n = h1.free_rank
    integer_framed = [k + 1 for k, comp in enumerate(H.link)
                      if not comp.is_surface_framed]
    if integer_framed and n > 0:
        return refuted(
            "integer framings are not defined over a #^%d background" % n,
            {"kind": "framing", "components": integer_framed, "n": n}), 0

    bad, inexact_pairs = _link_embedding_check(H)
    if bad is None and integer_framed:
        bad = unknown(
            "components %s carry integer framings; surgery homology for "
            "those needs linking data beyond the surface model"
            % integer_framed)
    if bad is None and H.link:
        bad = _beta_extension_check(H)
    if bad is not None:
        return bad, inexact_pairs

    surgered = _surgery_homology(H)
    if surgered.is_free and surgered.free_rank == H.m:
        return None, inexact_pairs
    return refuted(
        "surgered first homology is %s, but #^%d(S1xS2) needs Z^%d"
        % (surgered, H.m, H.m),
        {"kind": "surgery-homology", "h1": str(surgered),
         "target_m": H.m}), inexact_pairs


def _validate_hk(H, recorded=None):
    """validate_hk's verdict and the link completion: None if it stopped
    before looking for one, False if it looked and found none."""
    from .diagram import detect_k, heegaard_h1, quotient_presentation
    from .presentations import tietze_simplify

    h1 = heegaard_h1(H.background)
    n, nv = detect_k(H.background, h1, None if recorded is None else
                     recorded_finding(recorded["background"], "background"))
    if nv.is_unknown:
        return unknown("background #^n not confirmed: %s" % nv.reason), None
    bad, inexact_pairs = surgery_data_check(H, h1)
    if bad is not None:
        return bad, None

    gamma = complete_link_to_system(H)
    if gamma is None:
        return unknown(
            "homology agrees with #^%d but no template completion of the "
            "link was found, so pi1 is unconfirmed" % H.m), False
    _, tv = tietze_simplify(
        quotient_presentation(H.genus, [H.background.alpha, gamma]),
        None if recorded is None
        else recorded_finding(recorded["pi1"]["trace"], "pi1 trace"))
    if not tv.is_verified:
        return unknown("surgered homology is Z^%d but pi1 is unconfirmed: %s"
                       % (H.m, tv.reason)), gamma
    if tv.witness["rank"] != H.m:
        raise AssertionError("pi1 rank %d contradicts H1 rank %d"
                             % (tv.witness["rank"], H.m))
    word_only = [k + 1 for k, comp in enumerate(H.link)
                 if comp.curve.template is None]
    if word_only or inexact_pairs:
        return unknown(
            "homology and pi1 agree with #^%d but components %s carry "
            "no exact intersection data" % (H.m, word_only or "(pairs)")), gamma
    return verified(
        "surgery data from #^%d to #^%d over a genus-%d surface "
        "confirmed" % (n, H.m, H.genus),
        {"kind": "heegaard-kirby", "n": n, "c": H.c, "m": H.m,
         "background": nv.witness, "pi1": tv.witness}), gamma


def bridge_trisection(H, gamma=None):
    """The background's alpha and beta with the link's completion
    (``gamma``, if the caller has it) as third system, declaring (n, g-c, m)
    with n the k of detect_k; None if there is no completion.  Search-free.
    """
    from .diagram import TrisectionDiagram, heegaard_h1

    if gamma is None:
        gamma = complete_link_to_system(H)
        if gamma is None:
            return None
    n = heegaard_h1(H.background).free_rank
    return TrisectionDiagram(H.genus, H.background.alpha, H.background.beta,
                             gamma, declared_params=(n, H.genus - H.c, H.m))


def hk_to_trisection(H):
    """Trisection with the link (completed) as the third system.

    The declared parameters are (n, g-c, m).  The verdict combines the
    link validation with the parameter check of the assembled diagram.
    """
    from .diagram import trisection_params

    v, gamma = _validate_hk(H)
    if v.is_refuted:
        return None, v
    t = None if gamma is False else bridge_trisection(H, gamma)
    if t is None:
        return None, unknown(
            "no beta-parallel completion of the link in the template "
            "model; cannot assemble the third system")
    return t, weakest([v, trisection_params(t)[1]])


def find_primitive_pairs(t):
    """All (gamma-index, beta-index) pairs meeting exactly once.

    The verdict is Verified when every pair had exact intersection data,
    Unknown otherwise (word curves cannot certify counts).
    """
    from .diagram import geometric_intersection

    pairs = []
    inexact = 0
    for i, gc in enumerate(t.gamma.curves, 1):
        for j, bc in enumerate(t.beta.curves, 1):
            count, exact = geometric_intersection(gc, bc)
            if not exact:
                inexact += 1
            elif count == 1:
                pairs.append((i, j))
    if inexact:
        return pairs, unknown(
            "%d gamma/beta pairs lack exact intersection data" % inexact)
    return pairs, verified(
        "%d primitive pairs found with exact counts" % len(pairs),
        {"kind": "primitive-pairs", "pairs": [list(p) for p in pairs]})


def trisection_to_hk(t, picks):
    """Extract the framed link determined by primitive gamma/beta picks.

    Each picked gamma curve must meet its picked beta curve exactly once
    and the other picked beta curves exactly zero times (all counts
    exact); violations raise with the failing pair.  The diagram is
    bridge_hk's, with m the trisection's third parameter.
    """
    from .diagram import geometric_intersection, trisection_params

    g = t.genus
    gammas = [gi for gi, _ in picks]
    betas = [bi for _, bi in picks]
    if len(set(gammas)) != len(gammas) or len(set(betas)) != len(betas):
        raise ValueError("picks must use distinct gamma and beta indices")
    for gi, bi in picks:
        if not (1 <= gi <= g and 1 <= bi <= g):
            raise ValueError("pick (%d, %d) out of range 1..%d" % (gi, bi, g))
    for gi, bi in picks:
        gc = t.gamma.curve(gi)
        for gj, bj in picks:
            want = 1 if bj == bi else 0
            got = geometric_intersection(gc, t.beta.curve(bj))
            if got != (want, True):
                raise ValueError(
                    "pick (%d, %d): gamma %d meets beta %d in %s points "
                    "(need exactly %d, exact)"
                    % (gi, bi, gi, bj, got[0] if got[1] else "unknown", want))
    params, pv = trisection_params(t)
    if pv.is_refuted:
        return None, pv
    H = bridge_hk(t, picks, params.k3)
    return H, validate_hk(H)


def bridge_hk(t, picks, m):
    """Background (alpha, beta), the picked gamma curves as a surface-
    framed link, target ``m``.  Checks only the picks' range; search-free.
    """
    from .diagram import HeegaardDiagram

    return HeegaardKirbyDiagram(
        t.genus, HeegaardDiagram(t.genus, t.alpha, t.beta),
        tuple(FramedComponent(t.gamma.curve(gi)) for gi, _ in picks), m=m)


# -- linking-matrix calculus --------------------------------------------------

class LinkingMatrix(Frozen):
    """Symmetric integer matrix of linkings; diagonal holds framings."""
    _fields = ("rows",)

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("linking matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("linking matrix must be symmetric")

    @staticmethod
    def from_rows(rows):
        return LinkingMatrix(tuple(tuple(int(v) for v in r) for r in rows))

    @staticmethod
    def zero(n):
        return LinkingMatrix(tuple((0,) * n for _ in range(n)))

    @property
    def size(self):
        return len(self.rows)

    def framings(self):
        return tuple(self.rows[i][i] for i in range(self.size))

    def is_zero(self):
        return all(v == 0 for r in self.rows for v in r)


def surgery_h1(m):
    """H1 after integral surgery in S3: the cokernel of the matrix, whose
    rows are its columns."""
    return cokernel(m.rows, m.size)


def gprc_necessary_check(m):
    """Zero matrix or bust.

    Handleslides act by unimodular congruence and an unlink yielding
    #^c(S1xS2) has the zero matrix, so any nonzero entry refutes the
    possibility of sliding to a zero-framed unlink.
    """
    for i in range(m.size):
        for j in range(m.size):
            if m.rows[i][j] != 0:
                return refuted(
                    "entry (%d, %d) = %d is nonzero, so no handleslide "
                    "sequence reaches a zero-framed unlink"
                    % (i + 1, j + 1, m.rows[i][j]),
                    {"kind": "linking", "entry": [i + 1, j + 1],
                     "value": m.rows[i][j]})
    return verified("the linking matrix is zero",
                    {"kind": "linking", "size": m.size})


def matrix_handleslide(m, i, j, sign=1):
    """Congruence by E = I + sign * e_ij: component i slides over j."""
    if i == j:
        raise ValueError("cannot slide a component over itself")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = m.size
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range 1..%d" % n)
    e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    e[i - 1][j - 1] = sign
    em = IntegerMatrix.from_rows(e)
    prod = em * IntegerMatrix.from_rows(m.rows) * em.transpose()
    return LinkingMatrix(prod.rows)


def stabilize_link(m, kind):
    """Block sum with a distant zero-framed unknot or a Hopf pair."""
    if kind == "zero_unknot":
        block = ((0,),)
    elif kind == "hopf_pair":
        block = ((0, 1), (1, 0))
    else:
        raise ValueError("kind must be 'zero_unknot' or 'hopf_pair'")
    n, b = m.size, len(block)
    rows = [tuple(r) + (0,) * b for r in m.rows]
    rows += [(0,) * n + block[i] for i in range(b)]
    return LinkingMatrix(tuple(rows))
