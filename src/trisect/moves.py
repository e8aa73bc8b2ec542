"""Moves on diagrams and the one classifier, ``standardize``.

The classifier refutes from the input's ``pair_homology``, then makes
one pass: unscramble once (greedy slide descent back to shortest words),
group the slid diagram's curves by support component at once
(``name_components``), and name each genus-one component from its three
slopes.  The pass runs on the diagram as given, with no Tietze search
and no parameter precondition, and never refutes.  Slides are searched
in a fixed deterministic order and every positive verdict carries them
as a replayable script.

Replay is the same pass: given a recorded witness, ``standardize``
takes the slides from its tree (``replay_decomposition``) instead of
searching, then names the components (``name_components``, which builds
no piece diagram) and writes the witness on the one code path.  The
search's descent works on raw words and writes each slide with the
guide ``handleslide`` takes, so each slid curve is built once;
``handleslide`` runs only in replay and the ``slide`` command.
``find_stabilization_certificate`` and ``destabilize`` are library
moves that the pass does not use (``standardize`` says why).
"""

from __future__ import annotations

from collections import deque

from . import words
from .catalog import genus_one_diagram, name_slopes
from .diagram import (_PAIRS, HeegaardDiagram, TrisectionDiagram,
                      curve_from_template, curve_from_word,
                      geometric_intersection, moved_system, reembed,
                      pair_homology)
from .verdict import Frozen, unknown, verified

_DESCENT_PLATEAU_CAP = 64
_DESCENT_STEP_CAP = 400


def handleslide(cs, i, j, guide=(), sign=1):
    """Slide curve i over curve j along a guide word.

    The slid word is reduce(w_i * guide * w_j^sign * guide^-1); the
    homology class moves by +-class_j and the slope template of curve i
    is dropped (slides generally leave the template family).  Indices
    are 1-based.
    """
    if i == j:
        raise ValueError("cannot slide a curve over itself")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    wi = cs.curve(i).word
    wj = cs.curve(j).word
    if sign < 0:
        wj = words.inverse(wj)
    guide = tuple(guide)
    curves = list(cs.curves)
    curves[i - 1] = curve_from_word(cs.genus,
                                    wi + guide + wj + words.inverse(guide))
    return moved_system(cs.genus, tuple(curves))


def connected_sum(t1, t2):
    """Concatenate the diagrams, re-indexing t2's handles above t1's."""
    g1, g = t1.genus, t1.genus + t2.genus
    same = {h: h for h in range(1, g1 + 1)}
    above = {h: h + g1 for h in range(1, t2.genus + 1)}
    systems = [moved_system(g, tuple(reembed(c, g, same) for c in cs1.curves)
                            + tuple(reembed(c, g, above) for c in cs2.curves))
               for cs1, cs2 in zip(t1.systems(), t2.systems())]
    declared = None
    if t1.declared_params is not None and t2.declared_params is not None:
        declared = tuple(a + b for a, b in
                         zip(t1.declared_params, t2.declared_params))
    return TrisectionDiagram(g, systems[0], systems[1], systems[2],
                             declared_params=declared)


def i_stabilize(t, i):
    """Connected sum with the i-th genus-one stabilization diagram."""
    return connected_sum(t, genus_one_diagram("S4STAB%d" % i))


def heegaard_stabilize(d):
    """Add a trivially dual handle pair: alpha (1,0), beta (0,1)."""
    g = d.genus + 1
    same = {h: h for h in range(1, g)}
    alpha = moved_system(g, tuple(reembed(c, g, same) for c in d.alpha.curves)
                         + (curve_from_template(g, g, 1, 0),))
    beta = moved_system(g, tuple(reembed(c, g, same) for c in d.beta.curves)
                        + (curve_from_template(g, g, 0, 1),))
    return HeegaardDiagram(g, alpha, beta)


# -- certificates -------------------------------------------------------------

class StabilizationCertificate(Frozen):
    """Witness that the diagram splits off the index-i genus-one piece.

    omega is a member of the two systems whose pair detects k_i and meets
    dual, and no other curve of the third system, exactly once.
    """
    _fields = ("index", "omega", "dual")


def _names_for_index(index):
    """Names of the pair of systems that detects k_index, then of the
    third system."""
    if index not in (1, 2, 3):
        raise ValueError("stabilization index must be 1, 2, or 3")
    first, second = _PAIRS[index - 1]
    return first, second, _PAIRS[index % 3][1]


def find_stabilization_certificate(t, index=None):
    """First certificate in deterministic order, or None.

    For index i the curve omega must bound in the two handlebodies whose
    pair detects k_i, witnessed by literal membership in both systems, and
    must meet exactly one curve of the third system in exactly one point,
    all counts exact.  Candidates are taken in key order.  Absence of a
    certificate proves nothing.  index, when given, restricts the search
    to that single stabilization type.
    """
    for i in (1, 2, 3) if index is None else (index,):
        first, second, third = (t.system(n) for n in _names_for_index(i))
        candidates = {}
        for c in first.curves:
            if second.member(c):
                candidates.setdefault(c.key(), c)
        for key in sorted(candidates):
            omega = candidates[key]
            counts = [geometric_intersection(omega, c) for c in third.curves]
            if all(exact for _, exact in counts) \
                    and sum(n for n, _ in counts) == 1:
                dual = next(c for c, (n, _) in zip(third.curves, counts)
                            if n == 1)
                return StabilizationCertificate(i, omega, dual)
    return None


def destabilize(t, cert):
    """Remove the certified genus-one summand; genus and k_index drop by 1.

    Requires the strict template shape: omega a literal member of both
    prescribed systems, the dual the unique third-system curve on the
    same handle, and no other curve touching that handle.
    """
    names = _names_for_index(cert.index)
    first, second, third = (t.system(n) for n in names)
    for cs, label in zip((first, second), names):
        if not cs.member(cert.omega):
            raise ValueError("stale certificate: omega is not a member of "
                             "the %s system" % label)
    if cert.omega.template is None:
        raise ValueError("destabilization needs a slope template on omega")
    h = cert.omega.template.handle
    if not third.member(cert.dual):
        raise ValueError("stale certificate: dual curve missing from the "
                         "%s system" % names[2])
    count = geometric_intersection(cert.omega, cert.dual)
    if count != (1, True):
        raise ValueError("certificate dual does not meet omega exactly once")

    piece_curves = []
    for cs, label in zip(t.systems(), ("alpha", "beta", "gamma")):
        on_handle = [c for c in cs.curves if h in c.support()]
        if len(on_handle) != 1 or on_handle[0].support() != {h}:
            raise ValueError("handle %d is not split off cleanly in the %s "
                             "system" % (h, label))
        piece_curves.append(on_handle[0])

    # the removed piece must be the matching stabilization diagram
    if any(c.template is None for c in piece_curves):
        raise ValueError("summand curve on handle %d lacks a template" % h)
    name = name_slopes(*(c.homology.handle_part(h) for c in piece_curves))
    if name != "S4STAB%d" % cert.index:
        raise ValueError("removed summand is %s, not the index-%d "
                         "stabilization" % (name, cert.index))

    g = t.genus - 1
    down = {k: k - (k > h) for k in range(1, t.genus + 1) if k != h}
    systems = [moved_system(g, tuple(reembed(c, g, down) for c in cs.curves
                                     if h not in c.support()))
               for cs in t.systems()]
    declared = None
    if t.declared_params is not None:
        ks = list(t.declared_params)
        ks[cert.index - 1] -= 1
        if min(ks) < 0:
            raise ValueError("declared parameters cannot drop below zero")
        declared = tuple(ks)
    return TrisectionDiagram(g, systems[0], systems[1], systems[2],
                             declared_params=declared)


def name_components(t):
    """``(genus, name)`` of each support component, in handle order.

    Handles are joined when a curve runs over both, then each system's
    curves are grouped by component in one pass.  A genus-one component
    is named from its slopes with ``name_slopes`` (None on torsion), a
    larger one gets None; no piece diagram is built.  Raises ValueError
    when a system has other than one curve per handle on some component.
    """
    parent = list(range(t.genus + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cs in t.systems():
        for c in cs.curves:
            supp = sorted(c.support())
            for h in supp[1:]:
                parent[find(h)] = find(supp[0])
    roots = {}
    for h in range(1, t.genus + 1):
        roots.setdefault(find(h), []).append(h)
    comps = sorted(roots.values())
    where = {h: n for n, comp in enumerate(comps) for h in comp}
    grouped = [[[] for _ in comps] for _ in range(3)]
    for on, cs in zip(grouped, t.systems()):
        for c in cs.curves:
            on[where[next(iter(c.support()))]].append(c)
    out = []
    for n, comp in enumerate(comps):
        g = len(comp)
        for on in grouped:
            if len(on[n]) != g:
                raise ValueError("a system has %d curves on a genus-%d "
                                 "support component" % (len(on[n]), g))
        out.append((g, None if g > 1 else name_slopes(
            *(on[n][0].homology.handle_part(comp[0]) for on in grouped))))
    return out


# -- unscrambling -------------------------------------------------------------

def _word_facts(w, memo):
    """``w``'s inverse, absolute letters and end letters, once per memo."""
    facts = memo.get(w)
    if facts is None:
        facts = memo[w] = (words.inverse(w), set(map(abs, w)),
                           {abs(w[0]), abs(w[-1])})
    return facts


def _pair_slides(wi, wj, inv_j):
    """The slides of ``wi`` over ``wj`` that do not lengthen it, as
    ``(sign, rotation, product)`` in ascending (sign 1 first, rotation)
    order; a product that would be empty is left out."""
    out = []
    for sign, base in ((1, wj), (-1, inv_j)):
        for r in words.cancelling_rotations(wi, base):
            new = words.rotation_product(wi, base, r)
            if new and len(new) <= len(wi):
                out.append((sign, r, new))
    return tuple(out)


def _raw_slides(state, memo):
    """Each slide of a word tuple that does not lengthen the slid word, as
    (move, slid state, change in total length).

    A move (i, j, sign, r) appends rotation r of word j, inverted when
    the sign is -1, to word i, as sliding with guide inverse(base[:r])
    does.  Only rotations that cancel against w_i can shorten or keep the
    total length (``words.cancelling_rotations``), so only those are
    built, and a pair is skipped outright when neither end letter of w_i
    occurs in w_j up to sign.  Slides that would empty word i are
    skipped.  The words are nonempty cut-system words.

    ``memo`` is one descent's dict.  It keys each word's inverse and
    letter sets on the word, and each pair's ``_pair_slides`` on
    ``(w_i, w_j)``: the candidates depend on those two words alone (a
    rule that read more of the system would need a larger key), and a
    slide changes one word, so most pairs of a state recur in the next.
    A product longer than w_i is left out, and that is exact: the
    steepest step takes only a strict drop and the plateau search only a
    strict drop or an equal-length step, so neither ever uses one.  The
    rest come in (i, j, sign, r) order, which fixes how ties break.
    """
    facts = [_word_facts(w, memo) for w in state]
    for i, wi in enumerate(state):
        ends = facts[i][2]
        for j, wj in enumerate(state):
            if i == j or ends.isdisjoint(facts[j][1]):
                continue
            slides = memo.get((wi, wj))
            if slides is None:
                slides = memo[wi, wj] = _pair_slides(wi, wj, facts[j][0])
            for sign, r, new in slides:
                yield ((i, j, sign, r), state[:i] + (new,) + state[i + 1:],
                       len(new) - len(wi))


def _guided(state, move):
    """The slide ``(i, j, sign, guide)`` that ``handleslide`` takes, 1-based,
    for a raw move on ``state``: with guide = inverse(base[:r]), the slid
    word reduces to w_i followed by rotation r of the base."""
    i, j, sign, r = move
    base = state[j] if sign > 0 else words.inverse(state[j])
    return (i + 1, j + 1, sign, words.inverse(base[:r]))


def _descend_words(state):
    """Greedy slide descent on raw word tuples, minimizing total length.

    Steepest strictly improving slide first; when stuck, a small
    breadth-first search over equal-length states looks for an escape.
    Returns the final state and the script of guided slides (``_guided``)
    that ``handleslide`` replays to it.  One memo (see ``_raw_slides``)
    serves every state of this descent and is dropped when it returns,
    so each word pair's slides are built once per descent.
    """
    memo = {}
    cur = state
    script = []
    for _ in range(_DESCENT_STEP_CAP):
        best = None
        best_change = 0
        for move, cand, change in _raw_slides(cur, memo):
            if change < best_change:
                best = (cand, move)
                best_change = change
        if best is not None:
            script.append(_guided(cur, best[1]))
            cur = best[0]
            continue
        # plateau: equal-length states, looking for a strict drop
        seen = {cur}
        queue = deque([(cur, [])])
        found = None
        while queue and found is None:
            node, path = queue.popleft()
            if len(path) >= 3:
                continue
            for move, cand, change in _raw_slides(node, memo):
                if change < 0:
                    found = (cand, path + [_guided(node, move)])
                    break
                if change == 0 and cand not in seen \
                        and len(seen) < _DESCENT_PLATEAU_CAP:
                    seen.add(cand)
                    queue.append((cand, path + [_guided(node, move)]))
        if found is None:
            break
        cur = found[0]
        script.extend(found[1])
    return cur, script


def unscramble(t):
    """Slide every system back to shortest words.

    Returns the diagram of the slid systems and the per-system slide
    scripts (the replayable part of any downstream certificate).  The
    descent computes each slid word, so a slid curve is built once, as a
    word curve, which is all naming needs: it reads only supports and
    classes.  A curve that no slide moved keeps its object and template.
    """
    slid = []
    scripts = {}
    for cs, name in zip(t.systems(), ("alpha", "beta", "gamma")):
        state, scripts[name] = _descend_words(tuple(c.word for c in cs.curves))
        moved = {i for i, _, _, _ in scripts[name]}
        if moved:
            cs = moved_system(t.genus, tuple(
                curve_from_word(t.genus, w) if n in moved else c
                for n, (c, w) in enumerate(zip(cs.curves, state), start=1)))
        slid.append(cs)
    return TrisectionDiagram(t.genus, *slid,
                             declared_params=t.declared_params), scripts


# -- parameter constraints ----------------------------------------------------

def check_classified_params(params):
    """The paper's constraint on parameter triples in the classified range.

    With k1 the maximum: k1 = g forces k2 = k3; k1 = g-1 forces
    |k2 - k3| <= 1.  Returns (case, holds), case "k1=g" or "k1=g-1", or
    None below g-1, which is outside the classified range.
    """
    k1, k2, k3 = sorted(params.ks, reverse=True)
    if k1 == params.genus:
        return "k1=g", k2 == k3
    if k1 == params.genus - 1:
        return "k1=g-1", abs(k2 - k3) <= 1
    return None


# -- standardization ----------------------------------------------------------

def standardize(t, recorded=None):
    """Name the diagram as a connected sum of genus-one pieces.

    Refutes from the input's pair homology, then makes one pass on ``t``
    as given: unscramble, cut into support components, and name every
    genus-one piece.  Verified with a ``classification`` witness when
    every piece is named, unknown with the first piece of genus >= 2
    (and the names of the genus-one pieces) otherwise.  The pass never
    refutes: a cut is a connected sum, so each pair's H1 is the direct
    sum of the pieces' and no piece shows torsion the input does not.
    No destabilization is tried: ``destabilize`` needs a handle that
    carries exactly one curve of each system, supported on it alone, and
    such a handle is its own support component, already cut off.  No
    Tietze search runs and no parameter range is required; the paper's
    theorem promises a sum of genus-one pieces only when
    ``max(k) >= g-1``.  Given a ``recorded`` classification witness, the
    slides come from its tree (``replay_decomposition``), not a descent.
    """
    bad = pair_homology(t)[2]
    if bad is not None:
        return [], bad
    cleaned, scripts = unscramble(t) if recorded is None else \
        replay_decomposition(t, recorded["tree"])
    comps = name_components(cleaned)
    names = [name for g, name in comps if g == 1]
    if None in names:
        raise AssertionError("a genus-one piece without torsion has no "
                             "catalog name")
    stuck = next((g for g, _ in comps if g > 1), None)
    if stuck is not None:
        return names, unknown("no reducing certificate at genus %d" % stuck)
    name = sum_name(names)
    return names, verified(
        "diagram is %s" % name,
        {"kind": "classification", "name": name, "names": list(names),
         "tree": {"op": "unscramble", "slides": scripts}})


def sum_name(names):
    """Manifold name from a summand multiset (S4 pieces vanish)."""
    s1xs3 = sum(1 for n in names if n == "S1xS3")
    cp2 = sum(1 for n in names if n == "CP2")
    cp2r = sum(1 for n in names if n == "CP2R")
    parts = []
    if s1xs3 == 1:
        parts.append("S1xS3")
    elif s1xs3 > 1:
        parts.append("#%d(S1xS3)" % s1xs3)
    parts.extend(["CP2"] * cp2)
    parts.extend(["CP2R"] * cp2r)
    return " # ".join(parts) if parts else "S4"


# -- witness replay -----------------------------------------------------------

def replay_decomposition(t, tree):
    """The slid diagram and per-system slide scripts of a classification's
    recorded ``tree``, found without search: what ``unscramble`` returns.

    Re-applies each system's recorded slides through ``handleslide``.
    Raises ValueError on an op other than ``unscramble`` or a slide that
    does not apply, and KeyError when a system's slide list is missing.
    """
    if tree["op"] != "unscramble":
        raise ValueError("unknown script op %r" % tree["op"])
    slid = []
    scripts = {}
    for cs, label in zip(t.systems(), ("alpha", "beta", "gamma")):
        scripts[label] = tree["slides"][label]
        for (i, j, sign, guide) in scripts[label]:
            cs = handleslide(cs, i, j, guide=guide, sign=sign)
        slid.append(cs)
    return TrisectionDiagram(t.genus, *slid,
                             declared_params=t.declared_params), scripts
