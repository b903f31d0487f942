"""The three benchmark workloads.

Each workload has

* ``setup(ch)``: the cold start.  It builds the case, the representation and
  every lazy table its operations read, by calling public functions once on
  the identity, so that set-up time carries those builds and the operations
  do not.  The worker then runs the first ``warmup_ops`` operations of a
  fixed warm-up stream, which cover every kind of work.
* ``inputs(seed)``: an endless, seeded stream of operation inputs made of
  plain data (roots, ints, words).  Roots are drawn from canonically sorted
  lists and the generator is the benchmark's own ``random.Random``, so a
  change to the library's samplers or root order cannot shift the inputs.
* ``run(spec, corrupt)``: one operation.  It returns whether every verdict
  matched its known-true expectation, and a record of the verdicts and
  witnesses for the run digest.  ``corrupt`` replaces the program's first
  verdict with a wrong one, to show that the check catches it.
* ``cli_job(seed)`` and ``check_cli``: the representative command, its input
  files and the check of its report.
* ``fixed_ops``: how many operations from the start of the stream enter the
  verdict digest and the traced run, so both repeat exactly for a seed.

Every operation of a workload does the same kind of work, so that the
latency distribution has no gap at the quantiles reported: where a workload
has several kinds of instance, one operation runs one instance of each.

The library is reached through module attributes at call time
(``ch.analysis.in_normalizer``), so the tracer's wrappers see every call.
This module imports nothing from the library at import time.
"""

from __future__ import annotations

import hashlib
import json
import random

# Files the commands read are written here, inside the checkout, and removed
# at the end of the run.
TMP_DIR = ".perfbench_tmp"

# The level-member ring and the levels of the transporter workload.
RING_C = "z4"
LEVELS_C = ("(2),(0)", "(2),(2)")

# sha256 of the stdout of the two commands whose arguments do not depend on
# the seed, as produced by chevalley 0.1.0.  Reports are byte-identical by
# contract, so any change here is a behaviour change.
NORMCHECK_C_SHA256 = "87fb1ba5f62de11c5b2f80830297d7d86271f99cb5af0b9c08046d93fda62a9b"
FORMS_A8_SHA256 = "3dff357328fb44586fe56def8c5b8c3863f00b58d18df91bcd0928b3b4d47e6b"


class SetupError(RuntimeError):
    """The library gave a wrong answer on the identity during set-up."""


def _neg(root):
    return tuple(-x for x in root)


def _record(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class NormalizerC:
    """Case c (dim 56, second type) over Z/4 at levels (2),(0) and (2),(2).

    One operation samples a level member g as a word over the level
    generators, the torus and the subsystem, and checks that it satisfies the
    normalizer conditions, passes the transporter check against all level
    generators, and meets the corner-ideal bounds a*b <= plus and
    a'*b' <= minus at every first-component weight.  As a negative control,
    g times a unit root element of the upper orbit must fail the normalizer
    conditions.

    The transporter check at (2),(2) enumerates 270 generators against 243
    at (2),(0), so the levels cost about 7% apart.  They run in the order
    (2),(0), (2),(2), (2),(0): with equal shares the median would sit on the
    gap between the two latency clusters and jump between them.
    """

    name = "normalizer_c"
    fixed_ops = 24
    warmup_ops = 2
    LEVEL_ORDER = (0, 1, 0)

    def setup(self, ch):
        A = ch.analysis
        self.ch = ch
        ring = ch.rings.named_ring(RING_C)
        wm = ch.weights.build_weights(ch.roots.build_case("c"))
        self.rep = ch.rep.get_representation(wm, ring)
        self.sigmas = [A.parse_sigma(ring, text) for text in LEVELS_C]
        self.lambda1 = sorted(wm.lambda1)
        case = wm.case
        self.delta = sorted(case.delta)
        self.plus = sorted(case.omega_plus)
        self.minus = sorted(case.omega_minus)
        self.simple = sorted(case.simple_roots)
        e = self.rep.identity()
        for sigma in self.sigmas:
            if not (A.in_normalizer(e, sigma) and A.transporter_check(e, sigma)):
                raise SetupError("identity fails the normalizer or transporter check")
            for lam in self.lambda1:
                if any(not i.is_zero() for i in A.corner_ideals(e, lam)):
                    raise SetupError("identity has nonzero corner ideals")

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        delta_atoms = [("x", r, v) for r in self.delta for v in (1, 2, 3)]
        pools = [
            delta_atoms + [("x", r, 2) for r in self.plus],
            delta_atoms + [("x", r, 2) for r in self.plus + self.minus],
        ]
        torus = [("h", r, u) for r in self.simple for u in (1, 3)]
        i = 0
        while True:
            level = self.LEVEL_ORDER[i % len(self.LEVEL_ORDER)]
            word = [rng.choice(pools[level]) for _ in range(rng.randrange(5))]
            word += [rng.choice(torus) for _ in range(rng.randrange(3))]
            word += [rng.choice(delta_atoms) for _ in range(rng.randrange(5))]
            escape = ("x", rng.choice(self.plus), rng.choice((1, 3)))
            yield level, tuple(word), escape
            i += 1

    def run(self, spec, corrupt=False):
        A = self.ch.analysis
        level, word, escape = spec
        sigma = self.sigmas[level]
        g = self.rep.element_from_word(word)
        member = A.in_normalizer(g, sigma) != corrupt
        transported = A.transporter_check(g, sigma)
        corners = [A.corner_ideals(g, lam) for lam in self.lambda1]
        bounded = all(a * b <= sigma.plus and ap * bp <= sigma.minus for a, b, ap, bp in corners)
        escaped = not A.in_normalizer(self.rep.element_from_word(word + (escape,)), sigma)
        ok = member and transported and bounded and escaped
        parts = [[i.parts for i in c] for c in corners]
        return ok, _record([level, member, transported, bounded, escaped, parts])

    def cli_job(self, seed):
        argv = ["normcheck", "--case", "c", "--ring", RING_C, "--sigma", LEVELS_C[0]]
        return {"argv": argv, "files": {}, "expect": NORMCHECK_C_SHA256}

    @staticmethod
    def check_cli(stdout: bytes, expect) -> bool:
        return hashlib.sha256(stdout).hexdigest() == expect


class ExtractB:
    """Case b (dim 27, first type) over Z/4 at level (2),(0).

    One operation runs one instance of each of five kinds, each with a known
    answer:

    0. a parabolic member whose unipotent part has a coordinate outside the
       plus ideal: extract_from_parabolic yields a witness outside the ideal
       that replays to the claimed root element;
    1. the same shape with every coordinate inside the ideal: no witness;
    2. a Weyl conjugate of an upper-orbit root element with a hot value,
       stabilizing a first-component line: extract_from_weight_stabilizer
       yields a witness that replays;
    3. the same with a cold value: the plus-side membership verdict;
    4. a member of the congruence subgroup of (2) outside the opposite
       parabolic: extract_from_nilpotent gives a first-component line
       stabilizer outside the opposite parabolic whose trace replays.  An
       upper-orbit root occurs exactly once in the word, which keeps the
       element out of the opposite parabolic.

    Kind 4 stops at the line stabilizer.  Chaining the level-zero stabilizer
    extraction onto it (as the acceptance suite does) costs about 50 ms at the
    median with a tail past 300 ms, which alone made the run-to-run spread of
    the operation metrics too wide to gate on.
    """

    name = "extract_b"
    fixed_ops = 60
    warmup_ops = 1
    HOT, COLD, NONZERO = (1, 3), (2,), (1, 2, 3)

    def setup(self, ch):
        A = ch.analysis
        self.ch = ch
        ring = ch.rings.named_ring(RING_C)
        wm = ch.weights.build_weights(ch.roots.build_case("b"))
        self.rep = ch.rep.get_representation(wm, ring)
        self.sigma = A.parse_sigma(ring, "(2),(0)")
        self.b2 = ch.rings.Ideal.from_elems(ring, [ring.el(2)])
        self.lambda1 = sorted(wm.lambda1)
        case = wm.case
        self.phi = sorted(case.phi)
        self.delta = sorted(case.delta)
        self.plus = sorted(case.omega_plus)
        self.split_plus = {lam: sorted(ch.weights.sigma_split(wm, lam).plus) for lam in self.lambda1}
        self.levi_atoms = [("x", r, v) for r in self.delta for v in self.NONZERO]
        self.torus = [("h", r, u) for r in sorted(case.simple_roots) for u in (1, 3)]
        self.weyl = [("w", r, 1) for r in self.delta]
        e = self.rep.identity()
        ok = (
            not A.root_type_failures(e)
            and all(A.in_parabolic(e, lam) for lam in self.lambda1)
            and A.in_opposite_parabolic(e)
            and A.extract_from_parabolic(e, self.sigma.plus, side=+1) is None
            and isinstance(
                A.extract_from_weight_stabilizer(e, self.lambda1[0], self.sigma), A.MembershipVerdict
            )
            and A.nilpotent_vanishing_check(e, self.b2)
        )
        if not ok:
            raise SetupError("identity gives a wrong extraction answer")

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield tuple(self._instance(rng, kind) for kind in range(5))

    def _instance(self, rng, kind):
        if kind in (0, 1):
            roots = rng.sample(self.plus, 1 + rng.randrange(3))
            if kind == 0:
                values = [rng.choice(self.HOT)]
                values += [rng.choice(rng.choice((self.HOT, self.NONZERO))) for _ in roots[1:]]
            else:
                values = [rng.choice(self.COLD) for _ in roots]
            levi = [rng.choice(self.levi_atoms) for _ in range(rng.randrange(4))]
            levi += [rng.choice(self.torus) for _ in range(rng.randrange(2))]
            return kind, tuple(("x", r, v) for r, v in zip(roots, values)) + tuple(levi)
        if kind in (2, 3):
            beta = rng.choice(self.split_plus[rng.choice(self.lambda1)])
            value = rng.choice(self.HOT if kind == 2 else self.COLD)
            conj = tuple(rng.choice(self.weyl) for _ in range(rng.randrange(4)))
            return kind, (("x", beta, value),), conj
        beta = rng.choice(self.plus)
        others = [r for r in self.phi if r != beta]
        word = [("x", rng.choice(others), 2) for _ in range(rng.randrange(4))]
        word.insert(rng.randrange(len(word) + 1), ("x", beta, 2))
        return kind, tuple(word)

    def run(self, op, corrupt=False):
        results = [self._check(spec, corrupt and spec[0] == 0) for spec in op]
        return all(ok for ok, _ in results), _record([obj for _, obj in results])

    def _replays(self, witness, seed_elt) -> bool:
        A = self.ch.analysis
        return A.replay_trace(self.rep, witness.trace, seed_elt) == self.rep.x(witness.root, witness.value)

    def _check(self, spec, corrupt):
        A = self.ch.analysis
        rep, sigma = self.rep, self.sigma
        kind = spec[0]
        if kind in (0, 1):
            g = rep.element_from_word(spec[1])
            got = A.extract_from_parabolic(g, sigma.plus, side=+1)
            if corrupt:
                got = None
            if kind == 0:
                ok = got is not None and got.value not in sigma.plus and self._replays(got, g)
            else:
                ok = got is None
            return ok, [kind, got.to_json() if ok and got is not None else None]
        if kind in (2, 3):
            g = rep.element_from_word(spec[1]).conjugate(rep.element_from_word(spec[2]))
            lam1 = next((lam for lam in self.lambda1 if A.in_parabolic(g, lam)), None)
            if lam1 is None:
                return False, [kind, "no stabilized line"]
            res = A.extract_from_weight_stabilizer(g, lam1, sigma)
            if kind == 2:
                ok = (
                    isinstance(res, A.Witness)
                    and not (res.side > 0 and res.value in sigma.plus)
                    and not (res.side < 0 and res.value in sigma.minus)
                    and self._replays(res, g)
                )
            else:
                ok = isinstance(res, A.MembershipVerdict)
            return ok, [kind, list(lam1), res.to_json() if ok and kind == 2 else None]
        g = rep.element_from_word(spec[1])
        step = A.extract_from_nilpotent(g, self.b2)
        ok = (
            A.in_parabolic(step.element, step.lam1)
            and not A.in_opposite_parabolic(step.element)
            and A.replay_trace(rep, step.trace, g) == step.element
        )
        return ok, [kind, list(step.lam1)]

    EXTRA_PATH = f"{TMP_DIR}/extra_b.json"

    def cli_job(self, seed):
        """An extra-generator file: upper-orbit root elements with value 2,
        on odd seeds a lower-orbit one too, on seeds 2 and 3 mod 4 a
        subsystem conjugate of an upper one given as a word.  The certified
        level is then (2),(0), or (2),(2) when the lower orbit is hit."""
        rng = random.Random(f"{self.name}:cli:{seed}")
        items = [{"kind": "x", "root": list(r), "value": 2} for r in rng.sample(self.plus, 1 + rng.randrange(3))]
        level = "(2),(0)"
        if seed % 2:
            items.append({"kind": "x", "root": list(_neg(rng.choice(self.plus))), "value": 2})
            level = "(2),(2)"
        if seed % 4 >= 2:
            d, b, v = rng.choice(self.delta), rng.choice(self.plus), rng.choice((1, 2, 3))
            items.append({"word": [["x", list(d), v], ["x", list(b), 2], ["x", list(d), -v]]})
        argv = ["experiment", "--case", "b", "--ring", RING_C, "--extra", self.EXTRA_PATH]
        return {"argv": argv, "files": {self.EXTRA_PATH: json.dumps(items)}, "expect": level}

    @staticmethod
    def check_cli(stdout: bytes, expect) -> bool:
        report = json.loads(stdout)
        return (
            all(s["pass"] for s in report["suites"])
            and report["certificate"]["matched"]
            and report["sandwich"] == {"level": expect, "verdict": True}
        )


class LargeA8:
    """Case a, l = 8 (dim 128, second type) over F2[t]/(t^2), plus orbit
    columns over the integers.  One operation runs one instance of each of
    three kinds:

    0. root_type_failures on a conjugate of a root element: no failure;
    1. a Chevalley-Matsumoto round trip on a matrix-only input built from a
       big-cell word v*l*u (lower unipotent, subsystem, upper unipotent):
       the factors equal the parts the word was built from and multiply
       back to the element;
    2. the quadratic pi-form evaluated on the top column of an integer word:
       it vanishes.
    """

    name = "large_a8"
    fixed_ops = 20
    warmup_ops = 1

    def setup(self, ch):
        A = ch.analysis
        self.ch = ch
        ring = ch.rings.named_ring("f2t2")
        self.integers = ch.rings.RingSpec.integers()
        wm = self.wm = ch.weights.build_weights(ch.roots.build_case("a", 8))
        self.rep = ch.rep.get_representation(wm, ring)
        self.irep = ch.rep.get_representation(wm, self.integers)
        self.form = ch.forms.build_pi_form(wm)
        self.values = {p: ring.from_parts((p,)) for p in ((1, 0), (0, 1), (1, 1))}
        case = wm.case
        self.phi = sorted(case.phi)
        self.delta = sorted(case.delta)
        self.plus = sorted(case.omega_plus)
        e = self.rep.identity()
        if A.root_type_failures(e):
            raise SetupError("identity fails the root-type identities")
        v, g1, u = A.chevalley_matsumoto(self.rep.from_matrix(e.mat))
        if not (v.is_identity() and g1.is_identity() and u.is_identity()):
            raise SetupError("identity does not decompose trivially")
        col = self.irep.identity().column(wm.lam0)
        if not self.form.evaluate(col, self.integers).is_zero():
            raise SetupError("pi-form does not vanish on the top vector")

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        vals = sorted(self.values)
        phi, delta, plus = self.phi, self.delta, self.plus
        while True:
            base = ("x", rng.choice(phi), rng.choice(vals))
            conj = tuple(("x", rng.choice(phi), rng.choice(vals)) for _ in range(2 + rng.randrange(6)))
            lower = tuple(("x", _neg(b), rng.choice(vals)) for b in rng.sample(plus, rng.randrange(4)))
            levi = tuple(("x", rng.choice(delta), rng.choice(vals)) for _ in range(rng.randrange(5)))
            upper = tuple(("x", b, rng.choice(vals)) for b in rng.sample(plus, rng.randrange(4)))
            orbit = tuple(("x", rng.choice(phi), rng.choice((-2, -1, 1, 2))) for _ in range(2 + rng.randrange(6)))
            yield base, conj, lower, levi, upper, orbit

    def _word(self, atoms):
        return self.rep.element_from_word(tuple((k, r, self.values[v]) for k, r, v in atoms))

    def run(self, op, corrupt=False):
        A = self.ch.analysis
        base, conj, lower, levi, upper, orbit = op
        failures = A.root_type_failures(self._word((base,)).conjugate(self._word(conj)))
        if corrupt:
            failures = failures or ["injected"]

        g = self.rep.from_matrix(self._word(lower + levi + upper).mat)
        v, g1, u = A.chevalley_matsumoto(g)
        decomposed = (
            v == self._word(lower)
            and g1 == self._word(levi)
            and u == self._word(upper)
            and (v * g1 * u) == g
        )

        column = self.irep.element_from_word(orbit).column(self.wm.lam0)
        value = self.form.evaluate(column, self.integers)
        ok = not failures and decomposed and value.is_zero()
        corner = g.entry(self.wm.lam0, self.wm.lam0).to_json()
        return ok, _record([failures, decomposed, corner, value.to_json()])

    def cli_job(self, seed):
        return {"argv": ["forms", "--case", "a", "--l", "8"], "files": {}, "expect": FORMS_A8_SHA256}

    check_cli = staticmethod(NormalizerC.check_cli)


WORKLOADS = {w.name: w for w in (NormalizerC, ExtractB, LargeA8)}
