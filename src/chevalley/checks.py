"""Executable check suites behind the command line and the test battery.

Each suite returns a list of named results with an optional counterexample
string, so the same code backs both the exit status of the command line and
the assertions of the tests.  Randomized suites take an explicit seed and
replay bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .analysis import (
    MembershipVerdict,
    SigmaPair,
    Witness,
    chevalley_matsumoto,
    corner_ideals,
    extract_from_nilpotent,
    extract_from_parabolic,
    extract_from_weight_stabilizer,
    in_normalizer,
    in_opposite_parabolic,
    in_parabolic,
    level_reduction_check,
    parse_sigma,
    replay_trace,
    root_type_failures,
    sigma_generator_atoms,
    transporter_check,
)
from .forms import (
    bilinear_form_signs,
    bilinear_invariance_holds,
    build_pi_form,
    pi_form_vanishes_on_samples,
)
from .errors import InternalConsistencyError
from .rep import get_representation, rep_tables, representation, sample_word_rng, weyl_monomial
from .rings import Ideal, RingSpec, named_ring
from .rng import SplitMix64
from .roots import build_case, orbit_decomposition, partner_root
from .weights import build_weights, sigma_split


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    counterexample: str | None = None

    def to_json(self):
        return {"name": self.name, "pass": self.passed, "counterexample": self.counterexample}


def _result(name: str, failures: list[str]) -> SuiteResult:
    return SuiteResult(name, not failures, failures[0] if failures else None)


# -- combinatorial lemmas ------------------------------------------------------------


def combinatorial_suite(tag: str, l: int | None = None) -> list[SuiteResult]:
    case = build_case(tag, l)
    wm = build_weights(case)
    out: list[SuiteResult] = []

    fails = []
    if case.max_root[case.alpha1_index] != 1:
        fails.append(f"crossed coefficient {case.max_root[case.alpha1_index]}")
    if case.max_root[case.alpha2_index] != 2:
        fails.append(f"neighbour coefficient {case.max_root[case.alpha2_index]}")
    out.append(_result("max-root-coefficients", fails))

    outside = [r for r in case.phi if r[case.alpha1_index] != 0]
    orbits = orbit_decomposition(case, outside, case.delta)
    fails = []
    if sorted(map(len, orbits)) != sorted([len(case.omega_plus), len(case.omega_minus)]):
        fails.append(f"orbit sizes {sorted(map(len, orbits))}")
    elif {frozenset(case.omega_plus), frozenset(case.omega_minus)} != {frozenset(o) for o in orbits}:
        fails.append("orbits differ from the crossed-coefficient split")
    out.append(_result("two-orbits-outside-subsystem", fails))

    inner = [r for r in case.delta if r[case.alpha2_index] != 0]
    orbits2 = orbit_decomposition(case, inner, case.delta_prime)
    fails = []
    split_by_a2 = {
        frozenset(r for r in inner if r[case.alpha2_index] == 1),
        frozenset(r for r in inner if r[case.alpha2_index] == -1),
    }
    if {frozenset(o) for o in orbits2} != split_by_a2:
        fails.append("inner orbits differ from the neighbour-coefficient split")
    out.append(_result("two-orbits-inside-subsystem", fails))

    fails = []
    for beta in outside:
        try:
            partner_root(case, beta)
        except Exception as exc:
            fails.append(f"{beta}: {exc}")
            break
    out.append(_result("subsystem-partner-exists", fails))

    fails = []
    for alpha in case.omega_plus:
        if wm.shift(wm.lam0, tuple(-x for x in alpha)) is None:
            fails.append(f"top weight does not shift down by {alpha}")
            break
    out.append(_result("top-weight-shifts", fails))

    fails = []
    for i, alpha in enumerate(case.simple_roots):
        if (wm.shift(wm.lam0, tuple(-x for x in alpha)) is not None) != (i == case.alpha1_index):
            fails.append(f"edge at the top weight for simple root {i}")
    out.append(_result("unique-top-edge", fails))

    # a weight lam that alpha lowers is far from every weight rho that alpha
    # raises, unless rho = lam - alpha
    fails = []
    patterns = rep_tables(wm).patterns
    for alpha in case.phi:
        downs, lowered, _ = patterns[tuple(-x for x in alpha)]
        ups = patterns[alpha][0]
        close = (wm.distances[np.ix_(downs, ups)] < 2) & (lowered[:, None] != ups)
        if close.any():
            i, j = np.argwhere(close)[0]
            fails.append(f"close pair across root {alpha}: {wm.weights[downs[i]]}, {wm.weights[ups[j]]}")
            break
    out.append(_result("distant-weights-across-root", fails))

    f1, f2, f3, f4, f5, fsize = [], [], [], [], [], []
    analog = sum(1 for r in case.delta if r[case.alpha2_index] == 1)
    for lam1 in wm.lambda1:
        split = sigma_split(wm, lam1)
        beta0 = split.minus[0] if split.minus else None
        connecting = wm.root_between(lam1, wm.lam0)
        if split.minus != (connecting,):
            f1.append(f"{lam1}: lower part {split.minus}")
        if not split.zero:
            f2.append(f"{lam1}: empty middle part")
        for alpha in split.zero:
            if not any(case.root_add(alpha, tuple(-x for x in beta)) for beta in split.zero):
                f2.append(f"{lam1}: no partner for {alpha} in the middle part")
                break
        for beta in split.plus:
            good = any(
                case.root_add(beta, gamma) is not None and case.root_add(gamma, beta0) is None
                for gamma in split.overlap
            )
            if not good:
                f3.append(f"{lam1}: no shifting root for {beta}")
                break
        others = [mu for mu in wm.lambda1 if mu != lam1]
        core = set(split.core)
        for mu in others:
            if not any(wm.root_between(mu, nu) in core for nu in others if nu != mu):
                f4.append(f"{lam1}: {mu} unreachable through the core")
                break
        up = wm.root_between(wm.lam0, lam1)
        for alpha in case.omega_plus:
            if case.pairing(alpha, up) == 1:
                if not any(case.root_add(alpha, gamma) is not None for gamma in split.zero):
                    f5.append(f"{lam1}: {alpha} has no middle-part partner")
                    break
        if len(split.zero) != analog:
            fsize.append(f"{lam1}: middle part size {len(split.zero)} vs {analog}")
    out.append(_result("shift-split-lower-singleton", f1))
    out.append(_result("shift-split-middle-nonempty", f2))
    out.append(_result("shift-split-upper-escape", f3))
    out.append(_result("shift-split-core-reaches", f4))
    out.append(_result("shift-split-upper-partner", f5))
    out.append(_result("shift-split-middle-size", fsize))

    fails = []
    for lam1 in wm.lambda1:
        try:
            wm.neighbor_in_component(lam1)
        except Exception as exc:
            fails.append(f"{lam1}: {exc}")
            break
        for nu in wm.lambda1:
            if wm.distance(lam1, nu) == 1:
                try:
                    wm.neighbor_in_component(lam1, nu)
                except Exception as exc:
                    fails.append(f"{lam1},{nu}: {exc}")
                    break
        if fails:
            break
    out.append(_result("component-neighbours", fails))

    fails = []
    if wm.kind == "second":
        for lam in wm.weights:
            if tuple(-x for x in lam) not in wm.weight_set:
                fails.append(f"missing negative of {lam}")
                break
        singles = sum(1 for c in wm.components if len(c) == 1)
        if singles != 2:
            fails.append(f"{singles} singleton components")
    else:
        singles = sum(1 for c in wm.components if len(c) == 1)
        if singles != 1:
            fails.append(f"{singles} singleton components")
    out.append(_result("component-symmetry", fails))
    return out


# -- relation suite --------------------------------------------------------------------


def _row_constant(values: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the value at the first support slot, and whether every
    support slot holds that value."""
    first = values[np.arange(len(values)), np.argmax(support, axis=1)]
    return first, ~((values != first[:, None]) & support).any(axis=1)


def steinberg_suite(
    tag: str,
    l: int | None = None,
    rings: tuple[str, ...] = ("z8", "z9", "f2t2"),
    seed: int = 2026,
    sampled_pairs: int = 120,
) -> list[SuiteResult]:
    case = build_case(tag, l)
    wm = build_weights(case)
    tables = rep_tables(wm)
    out: list[SuiteResult] = []
    phi, reflections = case.phi, case.reflections
    dst, sign = tables.dense

    square = sign * np.take_along_axis(sign, dst, axis=1)
    bad = np.flatnonzero(square.any(axis=1))
    out.append(_result("pattern-square-zero", [f"pattern square nonzero for {phi[k]}" for k in bad[:1]]))

    fails = []
    pair_signs = {}
    for i, alpha in enumerate(phi):
        d_ab, s_ab = dst[i][dst], sign * sign[i][dst]  # alpha after beta
        d_ba, s_ba = dst[:, dst[i]], sign[:, dst[i]] * sign[i]  # beta after alpha
        sums = np.where(case.pairings[i] == -1, reflections[i], -1)  # -1: not a root
        comm, t_sign = s_ab - s_ba, sign[sums]
        support = t_sign != 0
        same_support = ~((comm != 0) != support).any(axis=1)
        const, constant = _row_constant(comm * t_sign, support)
        commute = ~((d_ab != d_ba) | (s_ab != s_ba)).any(axis=1)
        for k, beta in enumerate(phi):
            if k == i or k == reflections[i, i]:
                continue
            if sums[k] < 0:
                if not commute[k]:
                    fails.append(f"disjoint pair does not commute: {alpha}, {beta}")
            elif not same_support[k]:
                fails.append(f"commutator support mismatch for {alpha}, {beta}")
            elif not constant[k] or abs(const[k]) != 1:
                fails.append(f"commutator constant not a sign for {alpha}, {beta}")
            else:
                pair_signs[(alpha, beta)] = int(const[k])
            if fails:
                break
        if fails:
            break
    out.append(_result("pattern-commutators", fails))

    fails = []
    n = wm.dim
    for i, alpha in enumerate(phi):
        try:
            perm, sgn = weyl_monomial(tables.patterns, n, alpha)
        except InternalConsistencyError:
            fails.append(f"weyl element not monomial for {alpha}")
            break
        # w x_beta w^-1 is the pattern of beta moved along the monomial
        perm, sgn = np.append(perm, n), np.append(sgn, 0)
        c_sign = np.empty_like(sign)
        c_sign[:, perm] = sgn[dst] * sgn * sign
        t_sign = sign[reflections[:, i]]
        support = t_sign != 0
        _, constant = _row_constant(c_sign * t_sign, support)
        bad = np.flatnonzero(((c_sign != 0) != support).any(axis=1) | ~constant)
        if len(bad):
            fails.append(f"weyl conjugation fails for {alpha}, {phi[bad[0]]}")
            break
    out.append(_result("weyl-conjugation", fails))

    rng = SplitMix64(seed)
    for ring_name in rings:
        ring = named_ring(ring_name)
        rep = get_representation(wm, ring)
        nonzero = [v for v in ring.elements() if not v.is_zero()]

        def holds(word) -> bool:
            # one word r = 1 built by line moves: a product of elements would
            # be reduced by these very relations before any move
            return rep.element_from_word(word).mat.is_identity()

        fails = []
        pairs = [(phi[rng.randrange(len(phi))], phi[rng.randrange(len(phi))]) for _ in range(sampled_pairs)]
        for alpha, beta in pairs:
            xi = nonzero[rng.randrange(len(nonzero))]
            zeta = nonzero[rng.randrange(len(nonzero))]
            if not holds((("x", alpha, xi), ("x", alpha, zeta), ("x", alpha, -(xi + zeta)))):
                fails.append(f"additivity fails for {alpha} over {ring.describe()}")
                break
            if beta == alpha or beta == tuple(-x for x in alpha):
                continue
            comm = (("x", alpha, xi), ("x", beta, zeta), ("x", alpha, -xi), ("x", beta, -zeta))
            s = case.root_add(alpha, beta)
            if s is not None:
                n_const = pair_signs.get((alpha, beta))
                if n_const is None:
                    fails.append(f"no commutator sign established for {alpha}, {beta}")
                    break
                if not holds(comm + (("x", s, -(rep.scalar(n_const) * xi * zeta)),)):
                    fails.append(f"commutator value fails for {alpha}, {beta} over {ring.describe()}")
                    break
            elif not holds(comm):
                fails.append(f"disjoint commutator not trivial over {ring.describe()}")
                break
        out.append(_result(f"ring-relations-{ring_name}", fails))
    return out


# -- root-type identities ----------------------------------------------------------------


def root_type_suite(
    tag: str, l: int | None = None, ring_name: str = "z8", n_samples: int = 500, seed: int = 2026
) -> list[SuiteResult]:
    rep = representation(tag, l, named_ring(ring_name))
    case, ring = rep.case, rep.ring
    rng = SplitMix64(seed)
    nonzero = [v for v in ring.elements() if not v.is_zero()]
    atoms = [("x", a, v) for a in case.phi for v in nonzero]

    pi3_pairs = [(case.phi[i], case.phi[j]) for i, j in zip(*np.nonzero(case.pairings == 1))]
    fails = []
    for i in range(n_samples):
        w = sample_word_rng(rep, atoms, 2 + rng.randrange(6), rng)
        if i % 2 == 0:
            alpha = case.phi[rng.randrange(len(case.phi))]
            base = rep.x(alpha, nonzero[rng.randrange(len(nonzero))])
        else:
            alpha, beta = pi3_pairs[rng.randrange(len(pi3_pairs))]
            base = rep.x(alpha, nonzero[rng.randrange(len(nonzero))]) * rep.x(
                beta, nonzero[rng.randrange(len(nonzero))]
            )
        g = base.conjugate(w)
        bad = root_type_failures(g)
        if bad:
            fails.append(f"sample {i}: {bad[0]}")
            break
    return [_result("root-type-identities", fails)]


# -- invariant forms -----------------------------------------------------------------------


def forms_suite(
    tag: str, l: int | None = None, n_orbit: int = 1000, seed: int = 2026
) -> list[SuiteResult]:
    case = build_case(tag, l)
    wm = build_weights(case)
    out: list[SuiteResult] = []
    if wm.kind != "second":
        return [SuiteResult("forms-not-applicable", True, None)]

    invariant = bilinear_invariance_holds(wm)
    out.append(_result("bilinear-invariance", [] if invariant else ["some generator breaks the pairing"]))

    form = build_pi_form(wm)
    corner = form.coefficient(wm.lam0, wm.minus(wm.lam0))
    out.append(_result("pi-form-corner", [] if corner in (1, -1) else [f"corner {corner}"]))
    diag = [c for c in form.coeffs if c[0] == c[1]]
    out.append(_result("pi-form-no-diagonal", [str(d) for d in diag]))

    ok_int = pi_form_vanishes_on_samples(wm, form, RingSpec.integers(), n_orbit, seed)
    out.append(_result("pi-form-vanishes-integers", [] if ok_int else ["nonzero value on an orbit column"]))
    ok_mod = pi_form_vanishes_on_samples(wm, form, RingSpec.zmod(9), n_orbit, seed + 1)
    out.append(_result("pi-form-vanishes-z9", [] if ok_mod else ["nonzero value on an orbit column"]))

    # transport through the pairing and test on covector rows
    signs = bilinear_form_signs(wm)
    dual = form.dual_through(signs)
    rng = SplitMix64(seed + 2)
    ring = RingSpec.zmod(9)
    rep = get_representation(wm, ring)
    nonzero = [v for v in ring.elements() if not v.is_zero()]
    atoms = [("x", a, v) for a in case.phi for v in nonzero]
    fails = []
    for _ in range(min(200, n_orbit)):
        g = sample_word_rng(rep, atoms, 2 + rng.randrange(6), rng)
        row = g.row(wm.lam0)
        if not dual.evaluate(row, ring).is_zero():
            fails.append("dual form does not vanish on a covector row")
            break
    out.append(_result("pi-form-dual-vanishes", fails))
    return out


# -- decomposition -----------------------------------------------------------------------------


def decomposition_suite(
    tag: str, l: int | None = None, ring_name: str = "z8", n_samples: int = 200, seed: int = 2026
) -> list[SuiteResult]:
    rep = representation(tag, l, named_ring(ring_name))
    case, wm, ring = rep.case, rep.wm, rep.ring
    rng = SplitMix64(seed)
    nonzero = [v for v in ring.elements() if not v.is_zero()]
    atoms = [("x", a, v) for a in case.phi for v in nonzero]
    fails = []
    done = 0
    guard = 50 * n_samples
    while done < n_samples and guard:
        guard -= 1
        g = sample_word_rng(rep, atoms, 1 + rng.randrange(8), rng)
        if not g.entry(wm.lam0, wm.lam0).is_unit():
            continue
        try:
            v, g1, u = chevalley_matsumoto(g)
        except Exception as exc:
            fails.append(f"sample {done}: {exc}")
            break
        if not (v * g1 * u) == g:
            fails.append(f"sample {done}: product differs")
            break
        done += 1
    if guard == 0 and not fails and done < n_samples:
        fails.append("could not find enough unit-corner samples")
    return [_result("corner-decomposition-roundtrip", fails)]


# -- normalizer and transporter ------------------------------------------------------------------


def level_members(rep, sigma: SigmaPair, seed: int):
    """An endless stream of members of the normalizer of the level-sigma
    elementary group, each a word of up to 4 generating atoms, then up to 2
    torus atoms, then up to 4 subsystem atoms, drawn from SplitMix64(seed)."""
    atoms = sigma_generator_atoms(rep, sigma)
    torus = [("h", a, u) for a in rep.case.simple_roots for u in rep.ring.units()]
    subsystem = sigma_generator_atoms(rep, SigmaPair.zero(rep.ring))
    rng = SplitMix64(seed)
    while True:
        yield (
            sample_word_rng(rep, atoms, rng.randrange(5), rng)
            * sample_word_rng(rep, torus, rng.randrange(3), rng)
            * sample_word_rng(rep, subsystem, rng.randrange(5), rng)
        )


def normalizer_suite(
    tag: str,
    l: int | None = None,
    ring_name: str = "z4",
    sigma_texts: tuple[str, ...] = ("(2),(0)", "(2),(2)"),
    n_words: int = 500,
    n_transporter: int = 50,
    seed: int = 2026,
) -> list[SuiteResult]:
    rep = representation(tag, l, named_ring(ring_name))
    out: list[SuiteResult] = []
    for sigma_text in sigma_texts:
        sigma = parse_sigma(rep.ring, sigma_text)
        fails = []
        kept = []
        for i, g in enumerate(islice(level_members(rep, sigma, seed), n_words)):
            if not in_normalizer(g, sigma):
                fails.append(f"word {i} escapes the normalizer conditions")
                break
            kept.append(g)
        out.append(_result(f"normalizer-conditions-{sigma_text}", fails))
        fails = []
        for i, g in enumerate(kept[:n_transporter]):
            if not transporter_check(g, sigma):
                fails.append(f"word {i} fails the transporter check")
                break
        out.append(_result(f"transporter-{sigma_text}", fails))
    return out


# -- extraction ---------------------------------------------------------------------------------------


def extraction_suite(
    tag: str,
    l: int | None = None,
    ring_name: str = "z4",
    sigma_text: str = "(2),(0)",
    n_samples: int = 100,
    seed: int = 2026,
) -> list[SuiteResult]:
    rep = representation(tag, l, named_ring(ring_name))
    case, wm, ring = rep.case, rep.wm, rep.ring
    sigma = parse_sigma(ring, sigma_text)
    rng = SplitMix64(seed)
    nonzero = [v for v in ring.elements() if not v.is_zero()]
    hot_vals = [v for v in nonzero if v not in sigma.plus]
    cold_vals = [v for v in sigma.plus.elements() if not v.is_zero()]
    delta_nz = [("x", a, v) for a in case.delta for v in nonzero]
    units = list(ring.units())
    torus = [("h", a, u) for a in case.simple_roots for u in units]

    out: list[SuiteResult] = []

    # from the parabolic: hot instance yields a replayable corner witness,
    # cold instance yields nothing
    fails = []
    for i in range(n_samples):
        k = 1 + rng.randrange(3)
        roots = []
        while len(roots) < k:
            r = case.omega_plus[rng.randrange(len(case.omega_plus))]
            if r not in roots:
                roots.append(r)
        atoms = [("x", roots[0], hot_vals[rng.randrange(len(hot_vals))])]
        for r in roots[1:]:
            pool = hot_vals if rng.randrange(2) else nonzero
            atoms.append(("x", r, pool[rng.randrange(len(pool))]))
        u = rep.element_from_word(tuple(atoms))
        lword = sample_word_rng(rep, delta_nz, rng.randrange(4), rng) * sample_word_rng(
            rep, torus, rng.randrange(2), rng
        )
        g = u * lword
        got = extract_from_parabolic(g, sigma.plus, side=+1)
        if got is None:
            fails.append(f"hot instance {i} produced no witness")
            break
        if got.value in sigma.plus:
            fails.append(f"instance {i}: witness value inside the ideal")
            break
        if not replay_trace(rep, got.trace, g) == rep.x(got.root, got.value):
            fails.append(f"instance {i}: witness does not replay")
            break
        if cold_vals:
            cold_atoms = tuple(
                ("x", r, cold_vals[rng.randrange(len(cold_vals))]) for r in roots
            )
            gc = rep.element_from_word(cold_atoms) * lword
            if extract_from_parabolic(gc, sigma.plus, side=+1) is not None:
                fails.append(f"instance {i}: witness claimed on a cold element")
                break
    out.append(_result("extract-parabolic", fails))

    # from the stabilizer of a lower weight line
    fails = []
    wat = [("w", a, ring.one) for a in case.delta]
    for i in range(n_samples):
        lam1p = wm.lambda1[rng.randrange(len(wm.lambda1))]
        split = sigma_split(wm, lam1p)
        beta = split.plus[rng.randrange(len(split.plus))]
        hot = not rng.randrange(4) == 0
        vals = hot_vals if hot else cold_vals
        if not vals:
            continue
        base = rep.x(beta, vals[rng.randrange(len(vals))])
        w = sample_word_rng(rep, wat, rng.randrange(4), rng)
        g = base.conjugate(w)
        lam1 = next((lam for lam in wm.lambda1 if in_parabolic(g, lam)), None)
        if lam1 is None:
            fails.append(f"instance {i}: conjugate does not stabilize a component line")
            break
        res = extract_from_weight_stabilizer(g, lam1, sigma)
        if hot:
            if not isinstance(res, Witness):
                fails.append(f"instance {i}: hot instance returned {type(res).__name__}")
                break
            if res.side > 0 and res.value in sigma.plus:
                fails.append(f"instance {i}: witness value inside the plus ideal")
                break
            if res.side < 0 and res.value in sigma.minus:
                fails.append(f"instance {i}: witness value inside the minus ideal")
                break
            if not replay_trace(rep, res.trace, g) == rep.x(res.root, res.value):
                fails.append(f"instance {i}: witness does not replay")
                break
        elif not isinstance(res, MembershipVerdict):
            fails.append(f"instance {i}: cold instance returned a witness")
            break
    out.append(_result("extract-weight-stabilizer", fails))

    # from the congruence subgroup of a square-zero ideal
    fails = []
    b2 = Ideal.from_elems(ring, [ring.el(2)])
    if b2.square().is_zero():
        b_elems = [v for v in b2.elements() if not v.is_zero()]
        pool = [("x", a, v) for a in case.phi for v in b_elems]
        for i in range(n_samples):
            g = sample_word_rng(rep, pool, 1 + rng.randrange(4), rng)
            if in_opposite_parabolic(g):
                continue
            try:
                step = extract_from_nilpotent(g, b2)
            except Exception as exc:
                fails.append(f"instance {i}: {exc}")
                break
            if not in_parabolic(step.element, step.lam1) or in_opposite_parabolic(step.element):
                fails.append(f"instance {i}: step element has the wrong profile")
                break
            if not replay_trace(rep, step.trace, g) == step.element:
                fails.append(f"instance {i}: step does not replay")
                break
            res = extract_from_weight_stabilizer(step.element, step.lam1, SigmaPair.zero(ring))
            if isinstance(res, Witness):
                if res.value.is_zero():
                    fails.append(f"instance {i}: zero witness value")
                    break
                if not replay_trace(rep, res.trace, step.element) == rep.x(res.root, res.value):
                    fails.append(f"instance {i}: chained witness does not replay")
                    break
            else:
                fails.append(f"instance {i}: chained extraction returned {type(res).__name__}")
                break
    out.append(_result("extract-nilpotent", fails))
    return out


# -- corner ideal bounds ----------------------------------------------------------------------------


def corner_ideal_suite(
    tag: str,
    l: int | None = None,
    ring_name: str = "z4",
    n_samples: int = 200,
    seed: int = 2026,
) -> list[SuiteResult]:
    rep = representation(tag, l, named_ring(ring_name))
    wm, ring = rep.wm, rep.ring
    out: list[SuiteResult] = []

    for sigma_text, check in (("(2),(0)", "products"), ("(0),(2)", "cube")):
        sigma = parse_sigma(ring, sigma_text)
        atoms = sigma_generator_atoms(rep, sigma)
        rng = SplitMix64(seed)
        fails = []
        for i in range(n_samples):
            base_atom = atoms[rng.randrange(len(atoms))]
            w = sample_word_rng(rep, atoms, rng.randrange(6), rng)
            g = rep.element_from_word((base_atom,)).conjugate(w)
            for lam1 in wm.lambda1:
                a, b, ap, bp = corner_ideals(g, lam1)
                if check == "products":
                    if not (a * b <= sigma.plus):
                        fails.append(f"sample {i}: upper corner bound fails at {lam1}")
                        break
                    if not (ap * bp <= sigma.minus):
                        fails.append(f"sample {i}: lower corner bound fails at {lam1}")
                        break
                else:
                    if not (b * b * b).is_zero():
                        fails.append(f"sample {i}: corner cube survives at {lam1}")
                        break
            if fails:
                break
        out.append(_result(f"corner-bounds-{sigma_text}", fails))
    return out


# -- level reduction ------------------------------------------------------------------------------------


def reduction_suite(
    tag: str,
    l: int | None = None,
    ring_name: str = "z4",
) -> list[SuiteResult]:
    rep = representation(tag, l, named_ring(ring_name))
    ring = rep.ring
    by = Ideal.from_elems(ring, [ring.el(2)])
    out = []
    for sigma_text in ("(2),(0)", "(2),(2)"):
        sigma = parse_sigma(ring, sigma_text)
        atoms = sigma_generator_atoms(rep, sigma)
        ok = level_reduction_check(rep, atoms, [], sigma, by, budget=300)
        out.append(_result(f"level-reduction-{sigma_text}", [] if ok else ["reduction mismatch"]))
    return out


# -- umbrella -----------------------------------------------------------------------------------------------


def lemma_suites(tag: str, l: int | None = None, seed: int = 2026, fast: bool = False) -> list[SuiteResult]:
    results = combinatorial_suite(tag, l)
    results += steinberg_suite(tag, l, seed=seed, sampled_pairs=40 if fast else 120)
    return results


def selftest_suites(seed: int = 2026) -> list[SuiteResult]:
    """Every acceptance family at reduced sample counts."""
    runs = [(f"{tag}{l or ''}", combinatorial_suite(tag, l)) for tag, l in (("a", 5), ("a", 6), ("b", None), ("c", None))]
    runs += [
        ("b", steinberg_suite("b", seed=seed, sampled_pairs=40)),
        ("b", root_type_suite("b", n_samples=60, seed=seed)),
        ("a6", forms_suite("a", 6, n_orbit=100, seed=seed)),
        ("b", decomposition_suite("b", n_samples=30, seed=seed)),
        ("b", normalizer_suite("b", n_words=60, n_transporter=8, seed=seed)),
        ("b", extraction_suite("b", n_samples=20, seed=seed)),
        ("b", corner_ideal_suite("b", n_samples=30, seed=seed)),
        ("b", reduction_suite("b")),
    ]
    return [SuiteResult(f"{prefix}:{r.name}", r.passed, r.counterexample) for prefix, results in runs for r in results]
