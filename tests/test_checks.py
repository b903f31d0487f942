"""The relation suite over corrupted root patterns, and the large cases the
acceptance battery does not reach."""

import dataclasses
import json

import pytest

import chevalley.checks as checks
from chevalley.checks import combinatorial_suite, steinberg_suite
from chevalley.cli import main
from chevalley.rep import rep_tables
from chevalley.roots import build_case, height
from chevalley.weights import build_weights

PATTERN_CHECKS = ("pattern-square-zero", "pattern-commutators", "weyl-conjugation")


def _corrupt(tag, root_of, edit):
    """A copy of the case's tables with one pattern edited in place of the
    original: ``edit(srcs, dsts, signs)`` changes copies of its arrays."""
    tables = rep_tables(build_weights(build_case(tag)))
    root = root_of(tables.wm.case)
    srcs, dsts, signs = (a.copy() for a in tables.patterns[root])
    edit(srcs, dsts, signs)
    return dataclasses.replace(tables, patterns={**tables.patterns, root: (srcs, dsts, signs)})


def _flip_first(srcs, dsts, signs):
    signs[0] *= -1


def _flip_last(srcs, dsts, signs):
    signs[-1] *= -1


def _redirect_into_sources(srcs, dsts, signs):
    dsts[0] = srcs[-1]


def _swap_targets(srcs, dsts, signs):
    dsts[0], dsts[1] = dsts[1], dsts[0]


def _non_simple(case):
    return next(r for r in case.phi if height(r) == 2)


# name -> (tables, the first counterexample of each failing pattern check)
CORRUPTIONS = {
    "flipped-sign": (
        lambda: _corrupt("b", lambda case: case.max_root, _flip_first),
        {"pattern-commutators": "commutator constant not a sign", "weyl-conjugation": "weyl element not monomial"},
    ),
    "redirected-target": (
        lambda: _corrupt("b", lambda case: case.simple_roots[0], _redirect_into_sources),
        {
            "pattern-square-zero": "pattern square nonzero",
            "pattern-commutators": "disjoint pair does not commute",
            "weyl-conjugation": "weyl conjugation fails",
        },
    ),
    "non-simple-sign": (
        lambda: _corrupt("b", _non_simple, _flip_last),
        {"pattern-commutators": "disjoint pair does not commute", "weyl-conjugation": "weyl conjugation fails"},
    ),
    "swapped-targets": (
        lambda: _corrupt("b", lambda case: case.max_root, _swap_targets),
        {"pattern-commutators": "commutator support mismatch", "weyl-conjugation": "weyl element not monomial"},
    ),
}


def _run_corrupted(monkeypatch, name, **kwargs):
    monkeypatch.setattr(checks, "rep_tables", lambda wm: CORRUPTIONS[name][0]())
    return {r.name: r for r in steinberg_suite("b", **kwargs)}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_patterns_are_reported(monkeypatch, name):
    results = _run_corrupted(monkeypatch, name, rings=("z8",), sampled_pairs=40)
    assert set(results) == set(PATTERN_CHECKS) | {"ring-relations-z8"}
    expected = CORRUPTIONS[name][1]
    failed = {k: r.counterexample for k, r in results.items() if not r.passed and k in PATTERN_CHECKS}
    assert set(failed) == set(expected)
    for k, prefix in expected.items():
        assert failed[k].startswith(prefix), failed[k]
    assert not results["ring-relations-z8"].passed


def test_each_pattern_check_catches_a_corruption():
    caught = set().union(*(expected for _, expected in CORRUPTIONS.values()))
    assert caught == set(PATTERN_CHECKS)


def test_ring_stage_reads_only_established_signs(monkeypatch):
    # the commutator stage stops at its first failure, so most pair signs are
    # unknown; the ring stage names the pair instead of raising
    results = _run_corrupted(monkeypatch, "flipped-sign", rings=("z8", "z9"), sampled_pairs=120)
    assert not results["pattern-commutators"].passed
    for ring in ("z8", "z9"):
        ring_result = results[f"ring-relations-{ring}"]
        assert not ring_result.passed
        assert ring_result.counterexample.startswith("no commutator sign established")


def test_relcheck_reports_corrupted_tables(monkeypatch, capsys):
    monkeypatch.setattr(checks, "rep_tables", lambda wm: CORRUPTIONS["flipped-sign"][0]())
    assert main(["relcheck", "--case", "b"]) == 1
    report = json.loads(capsys.readouterr().out)
    verdicts = {s["name"]: s["pass"] for s in report["suites"]}
    assert verdicts["pattern-commutators"] is False


def test_relation_patterns_hold_at_rank_ten():
    results = steinberg_suite("a", 10, rings=())
    assert [r.name for r in results] == list(PATTERN_CHECKS)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_combinatorial_lemmas_hold_at_rank_eight():
    results = combinatorial_suite("a", 8)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
