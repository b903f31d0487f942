"""Command line entry point.

Exit codes: 0 all checks pass, 1 a check failed (the report carries the
counterexample), 2 usage or input error, 3 a budgeted search ended without a
conclusion.  Reports are JSON with sorted keys and embed a hash of the
configuration, so identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from itertools import islice

from .analysis import (
    SigmaPair,
    chevalley_matsumoto,
    in_normalizer,
    level_certificate,
    parse_sigma,
    transporter_check,
)
from .checks import (
    SuiteResult,
    lemma_suites,
    level_members,
    selftest_suites,
    steinberg_suite,
)
from .errors import BudgetExhausted, DomainError, NonUnitError, UnsupportedCaseError
from .forms import bilinear_form_signs, build_pi_form
from .matrices import RMat
from .rep import representation
from .rings import RingElem, RingSpec, named_ring
from .roots import build_case
from .weights import build_weights


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()[:16]


def _report(config: dict, suites: list[SuiteResult] | None = None, **extra) -> dict:
    body = {
        "config": config,
        "config_hash": _config_hash(config),
    }
    if suites is not None:
        body["suites"] = [s.to_json() for s in suites]
    body.update(extra)
    return body


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _read_json(path: str):
    """The JSON value in a UTF-8 file; a file that cannot be read, or that
    is not UTF-8 JSON, raises ``DomainError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DomainError(f"{path} is not valid JSON: {exc}") from None


def non_negative_int(text: str) -> int:
    """A non-negative integer option, as ``int`` but refusing a negative."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _command_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The options of a subcommand by destination name."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


def _config_value(action: argparse.Action, key: str, value):
    """A config value as the parser stores it: converted with the option's
    type (from its text, as on the command line) and checked against its
    choices.  Null keeps the option's default meaning; options without a type
    take strings, and ``ring`` also a ring object."""
    if value is None:
        return None
    if action.nargs == 0:  # a switch such as --weights
        if not isinstance(value, bool):
            raise DomainError(f"config key {key!r} needs true or false, got {value!r}")
        return value
    if action.type is None:
        if not (isinstance(value, str) or (key == "ring" and isinstance(value, dict))):
            raise DomainError(f"config key {key!r} needs a string, got {value!r}")
    else:
        try:
            value = action.type(value if isinstance(value, str) else str(value))
        except (TypeError, ValueError):
            raise DomainError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise DomainError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _explicit_dests(argv) -> set[str]:
    """Names of the arguments given on the command line: a parse in which
    every default is suppressed keeps only those."""
    parser = build_parser()
    parsers = [parser]
    for p in parsers:
        for action in p._actions:
            action.default = argparse.SUPPRESS
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return set(vars(parser.parse_args(argv)))


def _load_config_file(args: argparse.Namespace, argv=None) -> None:
    """Fill argument values from a JSON config file; flags given on the
    command line win, whatever their value.  Keys must name options of the
    command, and values are converted as the parser converts flags."""
    if not getattr(args, "config", None):
        return
    data = _read_json(args.config)
    if not isinstance(data, dict):
        raise DomainError(f"config file {args.config} must hold a JSON object")
    actions = _command_actions(build_parser(), args.command)
    unknown = sorted(set(data) - set(actions))
    if unknown:
        raise DomainError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    explicit = _explicit_dests(argv)
    for key, value in data.items():
        if key not in explicit:
            setattr(args, key, _config_value(actions[key], key, value))


def _case_args(args) -> tuple[str, int | None]:
    tag = args.case
    if tag is None:
        raise DomainError("--case is required")
    l = getattr(args, "l", None)
    return tag, int(l) if l is not None else None


def _ring_arg(args) -> RingSpec:
    if getattr(args, "ring", None) is None:
        raise DomainError("--ring is required")
    if isinstance(args.ring, str):
        return named_ring(args.ring)
    try:
        return RingSpec.from_json(args.ring)
    except (KeyError, TypeError, ValueError, AttributeError):
        raise DomainError(f"cannot parse ring {args.ring!r}") from None


def _load_extra(rep, path: str | None):
    """Extra generators: single atoms or whole words."""
    if not path:
        return []
    data = _read_json(path)
    words = []
    try:
        for item in data:
            if "word" in item:
                atoms = tuple(
                    (k, tuple(r), RingElem.from_json(rep.ring, v)) for k, r, v in item["word"]
                )
            else:
                atoms = (
                    (
                        item.get("kind", "x"),
                        tuple(item["root"]),
                        RingElem.from_json(rep.ring, item["value"]),
                    ),
                )
            words.append(atoms)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"malformed extra generator in {path}: {exc!r}") from None
    return [rep.element_from_word(atoms) for atoms in words]


def _suites_exit(suites: list[SuiteResult]) -> int:
    return 0 if all(s.passed for s in suites) else 1


# -- subcommands ------------------------------------------------------------------


def cmd_info(args) -> int:
    tag, l = _case_args(args)
    case = build_case(tag, l)
    wm = build_weights(case)
    config = {"command": "info", "case": tag, "l": case.l}
    body = {
        "description": case.describe(),
        "roots": len(case.phi),
        "subsystem_roots": len(case.delta),
        "orbit_sizes": [len(case.omega_plus), len(case.omega_minus)],
        "max_root": list(case.max_root),
        "weights": wm.dim,
        "component_sizes": list(wm.component_sizes()),
        "kind": wm.kind,
    }
    if args.weights:
        body["weight_list"] = [
            {"coords": list(w), "component": wm.component_of(w)} for w in wm.weights
        ]
    _emit(_report(config, **body), args.out)
    return 0


def cmd_lemmas(args) -> int:
    tag, l = _case_args(args)
    build_case(tag, l)  # validates the rank before running anything
    suites = lemma_suites(tag, l, seed=args.seed)
    config = {"command": "lemmas", "case": tag, "l": l, "seed": args.seed}
    _emit(_report(config, suites=suites), args.out)
    return _suites_exit(suites)


def cmd_relcheck(args) -> int:
    tag, l = _case_args(args)
    build_case(tag, l)
    suites = steinberg_suite(tag, l, seed=args.seed)
    config = {"command": "relcheck", "case": tag, "l": l, "seed": args.seed}
    _emit(_report(config, suites=suites), args.out)
    return _suites_exit(suites)


def cmd_forms(args) -> int:
    tag, l = _case_args(args)
    case = build_case(tag, l)
    wm = build_weights(case)
    config = {"command": "forms", "case": tag, "l": case.l}
    if wm.kind != "second":
        _emit(_report(config, applicable=False, reason="not applicable: first type"), args.out)
        return 0
    signs = bilinear_form_signs(wm)
    form = build_pi_form(wm)
    body = {
        "applicable": True,
        "bilinear_signs": {str(wm.idx(lam)): signs[lam] for lam in wm.weights},
        "quadratic_form": form.to_json(),
    }
    _emit(_report(config, **body), args.out)
    return 0


def cmd_decompose(args) -> int:
    data = _read_json(args.infile)
    try:
        tag = data["case"]
        l = data.get("l")
        ring = RingSpec.from_json(data["ring"])
        mat = RMat.from_json(ring, data["rows"])
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise DomainError(f"malformed matrix file {args.infile}: {exc!r}") from None
    rep = representation(tag, l, ring)
    g = rep.from_matrix(mat)
    v, g1, u = chevalley_matsumoto(g)
    config = {"command": "decompose", "case": tag, "l": l, "ring": ring.to_json()}
    body = {
        "lower": v.mat.to_json(),
        "levi": g1.mat.to_json(),
        "upper": u.mat.to_json(),
    }
    _emit(_report(config, **body), args.out)
    return 0


def _certify(args, command: str) -> tuple:
    """The level certificate of the subgroup generated by the subsystem and
    the extra elements, aimed at ``--target`` (the unit level without it),
    and the report's configuration."""
    tag, l = _case_args(args)
    ring = _ring_arg(args)
    rep = representation(tag, l, ring)
    target = parse_sigma(ring, args.target) if args.target else SigmaPair.full(ring)
    extra = _load_extra(rep, args.extra)
    cert = level_certificate(rep, [], extra, target, budget=args.budget)
    config = {
        "command": command,
        "case": tag,
        "l": l,
        "ring": ring.to_json(),
        "target": args.target,
        "budget": args.budget,
        "extra": args.extra,
    }
    return cert, config


def _certificate_body(cert) -> dict:
    return {"certificate": cert.to_json(), "witnesses": [w.to_json() for w in cert.witnesses]}


def cmd_level(args) -> int:
    cert, config = _certify(args, "level")
    _emit(_report(config, **_certificate_body(cert)), args.out)
    if cert.stop != "closed":
        return 3
    return 0 if cert.matched else 1


def cmd_normcheck(args) -> int:
    tag, l = _case_args(args)
    ring = _ring_arg(args)
    rep = representation(tag, l, ring)
    sigma = parse_sigma(ring, args.sigma)
    failures = []
    checked_transporter = 0
    for i, g in enumerate(islice(level_members(rep, sigma, args.seed), args.samples)):
        if not in_normalizer(g, sigma):
            failures.append(f"sample {i} violates the normalizer conditions")
            break
        if i < max(1, args.samples // 10):
            checked_transporter += 1
            if not transporter_check(g, sigma):
                failures.append(f"sample {i} fails the transporter check")
                break
    suites = [
        SuiteResult("normalizer-conditions", not failures, failures[0] if failures else None)
    ]
    config = {
        "command": "normcheck",
        "case": tag,
        "l": l,
        "ring": ring.to_json(),
        "sigma": args.sigma,
        "samples": args.samples,
        "seed": args.seed,
    }
    _emit(_report(config, suites=suites, transporter_checked=checked_transporter), args.out)
    return _suites_exit(suites)


def cmd_experiment(args) -> int:
    cert, config = _certify(args, "experiment")
    if not args.target:
        # without a target, the level certified is the witnessed one
        cert = dataclasses.replace(cert, target=cert.lower, matched=True)
    upper = cert.normalizer_consistent
    suites = [
        SuiteResult("level-witnesses", cert.matched, None if cert.matched else "lower bound below target"),
        SuiteResult(
            "sandwich-normalizer",
            upper,
            None if upper else "a generator escapes the normalizer conditions of the certified level",
        ),
    ]
    sandwich = {"level": cert.lower.describe(), "verdict": upper}
    _emit(_report(config, suites=suites, sandwich=sandwich, **_certificate_body(cert)), args.out)
    if cert.stop != "closed":
        return 3
    return _suites_exit(suites)


def cmd_selftest(args) -> int:
    suites = selftest_suites(seed=args.seed)
    config = {"command": "selftest", "seed": args.seed}
    _emit(_report(config, suites=suites), args.out)
    return _suites_exit(suites)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chevalley",
        description="Exact computations around subsystem subgroups of Chevalley groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, ring=False, sigma=False, budget=False, samples=False):
        p.add_argument("--case", choices=["a", "b", "c"])
        p.add_argument("--l", type=int, default=None, help="rank for case a")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="also write the report to this file")
        p.add_argument("--config", default=None, help="JSON file with default argument values")
        if ring:
            p.add_argument("--ring", default=None, help="ring name like z4, z8, f2t2")
        if sigma:
            p.add_argument("--sigma", default=None, help="level like '(2),(0)'")
        if budget:
            p.add_argument("--budget", type=non_negative_int, default=2000)
        if samples:
            p.add_argument("--samples", type=non_negative_int, default=100)

    p = sub.add_parser("info", help="root and weight counts for a case")
    common(p)
    p.add_argument("--weights", action="store_true", help="list all weights with components")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("lemmas", help="combinatorial and relation suites")
    common(p, seed=True)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("relcheck", help="generator relation suite")
    common(p, seed=True)
    p.set_defaults(func=cmd_relcheck)

    p = sub.add_parser("forms", help="invariant bilinear and quadratic forms")
    common(p)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("decompose", help="corner decomposition of a matrix file")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("level", help="certify the level of a generated subgroup")
    common(p, ring=True, budget=True)
    p.add_argument("--target", required=True, help="level like '(2),(0)'")
    p.add_argument("--extra", default=None, help="JSON file with extra generators")
    p.set_defaults(func=cmd_level)

    p = sub.add_parser("normcheck", help="normalizer conditions on sampled words")
    common(p, seed=True, ring=True, sigma=True, samples=True)
    p.set_defaults(func=cmd_normcheck)

    p = sub.add_parser("experiment", help="level certificate plus sandwich verdict")
    common(p, ring=True, budget=True)
    p.add_argument("--target", default=None)
    p.add_argument("--extra", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("selftest", help="all suites at reduced sample counts")
    common(p, seed=True)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config_file(args, argv)
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return 3
    except (DomainError, NonUnitError, UnsupportedCaseError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
