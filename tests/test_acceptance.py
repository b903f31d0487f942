"""Acceptance battery: each test pins the advertised sample counts, rings,
levels, and runtime budgets, and prints one verdict line."""

import time

from chevalley.checks import (
    combinatorial_suite,
    corner_ideal_suite,
    decomposition_suite,
    extraction_suite,
    forms_suite,
    normalizer_suite,
    reduction_suite,
    root_type_suite,
    steinberg_suite,
)

ALL_CASES = (("a", 5), ("a", 6), ("b", None), ("c", None))
SECOND_TYPE = (("a", 6), ("c", None))


def _verdict(n, label, results, elapsed=None, limit=None):
    failed = [r for r in results if not r.passed]
    timing = f" [{elapsed:.1f}s/{limit}s]" if limit else (f" [{elapsed:.1f}s]" if elapsed else "")
    status = "PASS" if not failed and (limit is None or elapsed < limit) else "FAIL"
    print(f"[criterion {n}] {label}: {status}{timing}", flush=True)
    assert not failed, f"criterion {n}: {failed[0].name}: {failed[0].counterexample}"
    if limit is not None:
        assert elapsed < limit, f"criterion {n}: runtime {elapsed:.1f}s over {limit}s"


def test_criterion_1_combinatorial_lemmas():
    t0 = time.time()
    results = []
    for tag, l in ALL_CASES:
        results += combinatorial_suite(tag, l)
    _verdict(1, "combinatorial lemma suite (a5, a6, b, c)", results, time.time() - t0, 10)


def test_criterion_2_steinberg_relations():
    t0 = time.time()
    results = steinberg_suite("c", rings=("z8", "z9", "f2t2"), seed=2026, sampled_pairs=150)
    _verdict(2, "relation suite, exhaustive pairs on the 126-root system", results, time.time() - t0, 60)


def test_criterion_3_root_type_identities():
    results = []
    for tag, l in ALL_CASES:
        results += root_type_suite(tag, l, ring_name="z8", n_samples=500, seed=2026)
    _verdict(3, "root-type identities, 500 conjugates per case over Z/8", results)


def test_criterion_4_invariant_forms():
    t0 = time.time()
    results = []
    for tag, l in SECOND_TYPE:
        results += forms_suite(tag, l, n_orbit=1000, seed=2026)
    _verdict(4, "forms: invariance, 1000 orbit columns over Z and Z/9", results, time.time() - t0, 120)


def test_criterion_5_corner_decomposition():
    results = []
    for tag, l in ALL_CASES:
        results += decomposition_suite(tag, l, ring_name="z8", n_samples=200, seed=2026)
    _verdict(5, "corner decomposition, 200 unit-corner elements per case over Z/8", results)


def test_criterion_6_normalizer_conditions():
    results = []
    for tag, l in (("b", None), ("c", None)):
        results += normalizer_suite(
            tag,
            l,
            ring_name="z4",
            sigma_texts=("(2),(0)", "(2),(2)"),
            n_words=500,
            n_transporter=50,
            seed=2026,
        )
    _verdict(6, "normalizer and transporter over Z/4, both levels, cases b and c", results)


def test_criterion_7_extraction_soundness():
    results = extraction_suite("b", ring_name="z4", sigma_text="(2),(0)", n_samples=100, seed=2026)
    _verdict(7, "extraction soundness, 100 instances per operation", results)


def test_criterion_8_corner_ideal_bounds():
    results = []
    for tag, l in (("b", None), ("c", None)):
        results += corner_ideal_suite(tag, l, ring_name="z4", n_samples=200, seed=2026)
    _verdict(8, "corner ideal bounds, 200 level members, cases b and c over Z/4", results)


def test_criterion_9_level_reduction():
    results = reduction_suite("b", ring_name="z4")
    _verdict(9, "level reduction over Z/4 modulo (2)", results)
