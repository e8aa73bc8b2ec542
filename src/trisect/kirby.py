"""Framed links on Heegaard surfaces and the trisection bridge.

A Heegaard diagram of #^n(S1xS2) together with a surface-framed link
determines a trisection whose third system is the link completed by
curves parallel to the beta side; conversely a trisection with a full
set of primitive gamma/beta pairs hands back the framed link.  The
linking-matrix calculus at the bottom tracks the homological shadow of
framed-link handleslides and stabilizations.

Each Heegaard pair's #^k(S1xS2) check is ``diagram.detect_k``, run once
per pair, so kirby imports nothing from ``presentations``.  The
linking-matrix calculus needs only ``intmatrix`` and ``verdict``, so the
modules the bridge runs (``diagram``, ``homology``) are imported inside
the functions that call them, and a linking-matrix command loads neither.
"""

from __future__ import annotations

from .intmatrix import cokernel, invariant_factors, kernel_basis
from .verdict import Frozen, recorded_finding, refuted, unknown, verified

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
    pairing = [[algebraic_intersection(b, comp.curve.homology) for b in beta]
               for comp in H.link]
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

    The search-free ``surgery_data_check`` runs first, and its
    refutation or caveat is the verdict.  Otherwise ``detect_k`` checks
    the background (alpha, beta) is #^n and the pair of alpha and the
    completed link (``complete_link_to_system``) is #^m: its certificate
    is the witness's ``pi1``.  Given a ``recorded`` heegaard-kirby
    witness, each detect_k replays the trace of its ``background`` and
    ``pi1`` certificate instead of searching; a missing or null one is
    an error, so no replay searches.
    """
    from .diagram import HeegaardDiagram, detect_k, heegaard_h1

    def finding(name):
        return None if recorded is None \
            else recorded_finding(recorded[name], name)

    h1 = heegaard_h1(H.background)
    bad = surgery_data_check(H, h1)
    if bad is not None:
        return bad
    n, nv = detect_k(H.background, h1, finding("background"))
    if not nv.is_verified:
        return unknown("background #^%d not confirmed: %s" % (n, nv.reason))
    gamma = complete_link_to_system(H)
    if gamma is None:
        return unknown(
            "homology agrees with #^%d but no template completion of the "
            "link was found, so pi1 is unconfirmed" % H.m)
    m, pv = detect_k(HeegaardDiagram(H.genus, H.background.alpha, gamma),
                     None, finding("pi1"))
    if not pv.is_verified:
        return unknown("surgered homology is Z^%d but pi1 is unconfirmed: %s"
                       % (H.m, pv.reason))
    if m != H.m:
        raise AssertionError("pi1 rank %d contradicts H1 rank %d"
                             % (m, H.m))
    return verified(
        "surgery data from #^%d to #^%d over a genus-%d surface "
        "confirmed" % (n, H.m, H.genus),
        {"kind": "heegaard-kirby", "n": n, "c": H.c, "m": H.m,
         "background": nv.witness, "pi1": pv.witness})


def surgery_data_check(H, h1):
    """The search-free steps of validate_hk, over a background whose
    first homology is ``h1``: its torsion, the framings, the embedding,
    the primitive extension of beta, the surgered homology and the
    exactness of the link data, in order.

    Returns the first step's refutation; unknown when integer framings
    leave the homology undecided, or when a word-only component or a
    pair without exact counts leaves the geometry unconfirmed; or None
    when every step passes.
    """
    from .diagram import torsion_refutation

    bad = torsion_refutation(h1)
    if bad is not None:
        return refuted("background: %s" % bad.reason,
                       {"kind": "background", "inner": bad.witness})
    n = h1.free_rank
    integer_framed = [k + 1 for k, comp in enumerate(H.link)
                      if not comp.is_surface_framed]
    if integer_framed and n > 0:
        return refuted(
            "integer framings are not defined over a #^%d background" % n,
            {"kind": "framing", "components": integer_framed, "n": n})

    bad, inexact_pairs = _link_embedding_check(H)
    if bad is None and integer_framed:
        bad = unknown(
            "components %s carry integer framings; surgery homology for "
            "those needs linking data beyond the surface model"
            % integer_framed)
    if bad is None and H.link:
        bad = _beta_extension_check(H)
    if bad is not None:
        return bad

    surgered = _surgery_homology(H)
    if not (surgered.is_free and surgered.free_rank == H.m):
        return refuted(
            "surgered first homology is %s, but #^%d(S1xS2) needs Z^%d"
            % (surgered, H.m, H.m),
            {"kind": "surgery-homology", "h1": str(surgered),
             "target_m": H.m})
    word_only = [k + 1 for k, comp in enumerate(H.link)
                 if comp.curve.template is None]
    if word_only or inexact_pairs:
        return unknown(
            "surgered homology agrees with #^%d but components %s carry "
            "no exact intersection data" % (H.m, word_only or "(pairs)"))
    return None


def hk_to_trisection(H, recorded=None):
    """Trisection with the link, completed by beta-parallel curves, as
    the third system, declaring (n, g-c, m).

    ``surgery_data_check`` refutes first.  Otherwise the verdict is the
    assembled trisection's ``trisection_params``, so a verified one
    certifies the diagram this returns; under the check's caveat it
    stays unknown, unless homology refutes the trisection's parameters.
    A caveat with a target m over the genus assembles nothing: no
    genus-g trisection has k3 > g.
    Given its report's ``recorded`` params witness, trisection_params
    replays its three pair traces instead of searching.
    """
    from .diagram import (TrisectionDiagram, heegaard_h1, pair_homology,
                          trisection_params)

    h1 = heegaard_h1(H.background)
    caveat = surgery_data_check(H, h1)
    if caveat is not None and (caveat.is_refuted or H.m > H.genus):
        return None, caveat
    gamma = complete_link_to_system(H)
    if gamma is None:
        return None, unknown(
            "no beta-parallel completion of the link in the template "
            "model; cannot assemble the third system")
    t = TrisectionDiagram(H.genus, H.background.alpha, H.background.beta,
                          gamma, declared_params=(h1.free_rank,
                                                  H.genus - H.c, H.m))
    if caveat is None:
        return t, trisection_params(t, recorded)[1]
    return t, pair_homology(t)[2] or caveat


def find_primitive_pairs(t):
    """(pairs, exact): all (gamma-index, beta-index) pairs meeting exactly
    once, and whether every gamma/beta pair had exact intersection data
    (word curves cannot certify counts, so an inexact pair may be missed).
    """
    from .diagram import geometric_intersection

    pairs = []
    exact = True
    for i, gc in enumerate(t.gamma.curves, 1):
        for j, bc in enumerate(t.beta.curves, 1):
            count, known = geometric_intersection(gc, bc)
            exact = exact and known
            if known and count == 1:
                pairs.append((i, j))
    return pairs, exact


def trisection_to_hk(t, picks, recorded=None):
    """Extract the framed link determined by primitive gamma/beta picks.

    Each picked gamma curve must meet its picked beta curve exactly once
    and the other picked beta curves exactly zero times (all counts
    exact); violations raise ValueError with the failing pair.
    ``pair_homology`` refutes first; otherwise the diagram has background
    (alpha, beta), the picked gamma curves as a surface-framed link and
    target m = k3, and ``validate_hk`` gives the verdict.  Given its
    report's ``recorded`` witness, validate_hk replays its traces; the
    pick checks and the homology rerun.
    """
    from .diagram import HeegaardDiagram, geometric_intersection, pair_homology

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
    _, ks, bad = pair_homology(t)
    if bad is not None:
        return None, bad
    H = HeegaardKirbyDiagram(
        g, HeegaardDiagram(g, t.alpha, t.beta),
        tuple(FramedComponent(t.gamma.curve(gi)) for gi, _ in picks),
        m=ks[2])
    return H, validate_hk(H, recorded)


def parse_picks(spec):
    """The (gamma, beta) pairs of a '1:1,2:3' string, or a ValueError."""
    picks = []
    for part in spec.split(","):
        piece = part.strip()
        if not piece:
            continue
        bits = piece.split(":")
        if len(bits) != 2:
            raise ValueError("picks must look like '1:1,2:3', got %r" % piece)
        try:
            picks.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise ValueError("picks must be integer pairs, got %r" % piece)
    if not picks:
        raise ValueError("at least one gamma:beta pick is required")
    return picks


def format_picks(picks):
    return ",".join("%d:%d" % p for p in picks)


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
    """Congruence by E = I + sign * e_ij: component i slides over j, and
    E M E^T is row i += sign * row j, then column i += sign * column j."""
    if i == j:
        raise ValueError("cannot slide a component over itself")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = m.size
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range 1..%d" % n)
    rows = [list(r) for r in m.rows]
    rows[i - 1] = [x + sign * y for x, y in zip(rows[i - 1], rows[j - 1])]
    for r in rows:
        r[i - 1] += sign * r[j - 1]
    return LinkingMatrix(tuple(map(tuple, rows)))


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
