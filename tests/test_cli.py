import hashlib
import json

import pytest

from chevalley.analysis import replay_trace
from chevalley.cli import main
from chevalley.rep import representation
from chevalley.rings import RingElem, named_ring
from chevalley.roots import build_case


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_info_counts(capsys):
    code, report = run(capsys, "info", "--case", "c")
    assert code == 0
    assert report["roots"] == 126
    assert report["weights"] == 56
    assert report["component_sizes"] == [1, 27, 27, 1]
    assert "config_hash" in report


def test_info_weight_listing(capsys):
    code, report = run(capsys, "info", "--case", "a", "--l", "5", "--weights")
    assert code == 0
    assert len(report["weight_list"]) == 16
    assert report["weight_list"][0]["component"] == 0


def test_usage_error_rank(capsys):
    code = main(["lemmas", "--case", "a", "--l", "4"])
    assert code == 2


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_lemmas_pass(capsys):
    code, report = run(capsys, "lemmas", "--case", "a", "--l", "5")
    assert code == 0
    assert report["suites"] and all(s["pass"] for s in report["suites"])


def test_relcheck(capsys):
    code, report = run(capsys, "relcheck", "--case", "b", "--seed", "5")
    assert code == 0
    names = {s["name"] for s in report["suites"]}
    assert "pattern-commutators" in names


def test_forms_first_type(capsys):
    code, report = run(capsys, "forms", "--case", "b")
    assert code == 0
    assert report["applicable"] is False
    assert "first type" in report["reason"]


def test_forms_second_type(capsys):
    code, report = run(capsys, "forms", "--case", "a", "--l", "6")
    assert code == 0
    assert report["applicable"] is True
    assert set(report["bilinear_signs"].values()) <= {1, -1}
    assert report["quadratic_form"]


def test_decompose_identity(capsys, tmp_path):
    from chevalley import RingSpec, representation

    ring = RingSpec.zmod(8)
    rep = representation("b", None, ring)
    path = tmp_path / "identity.json"
    path.write_text(
        json.dumps(
            {"case": "b", "l": None, "ring": ring.to_json(), "rows": rep.identity().mat.to_json()}
        )
    )
    code, report = run(capsys, "decompose", "--in", str(path))
    assert code == 0
    ident = rep.identity().mat.to_json()
    assert report["lower"] == ident
    assert report["levi"] == ident
    assert report["upper"] == ident


def test_level_command(capsys, tmp_path):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{"kind": "x", "root": [1, 2, 2, 3, 2, 1], "value": 2}]))
    code, report = run(
        capsys,
        "level",
        "--case",
        "b",
        "--ring",
        "z4",
        "--extra",
        str(extra),
        "--target",
        "(2),(0)",
        "--budget",
        "400",
    )
    assert code == 0
    cert = report["certificate"]
    assert cert["matched"] is True
    assert cert["witnesses"]


def test_level_command_unreachable_target(capsys):
    code, report = run(
        capsys,
        "level",
        "--case",
        "b",
        "--ring",
        "z4",
        "--target",
        "(2),(0)",
        "--budget",
        "120",
    )
    # no extra generators: the subsystem alone certifies only the zero level
    assert code == 1
    assert report["certificate"]["matched"] is False


def test_normcheck(capsys):
    code, report = run(
        capsys,
        "normcheck",
        "--case",
        "b",
        "--ring",
        "z4",
        "--sigma",
        "(2),(0)",
        "--samples",
        "40",
        "--seed",
        "1",
    )
    assert code == 0
    assert all(s["pass"] for s in report["suites"])


def test_experiment_and_determinism(capsys, tmp_path):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{"kind": "x", "root": [1, 2, 2, 3, 2, 1], "value": 2}]))
    argv = [
        "experiment",
        "--case",
        "b",
        "--ring",
        "z4",
        "--extra",
        str(extra),
        "--budget",
        "300",
    ]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 0
    code = main(argv)
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["sandwich"]["verdict"] is True
    assert report["sandwich"]["level"] == "(2),(0)"


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "b", "ring": "z4", "sigma": "(0),(0)", "samples": 10}))
    code, report = run(capsys, "normcheck", "--config", str(cfg), "--seed", "2")
    assert code == 0
    assert report["config"]["case"] == "b"


def test_explicit_flags_beat_the_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "case": "c"}))
    code, report = run(capsys, "relcheck", "--case", "b", "--seed", "0", "--config", str(cfg))
    assert code == 0
    assert report["config"]["seed"] == 0
    assert report["config"]["case"] == "b"
    code, report = run(capsys, "relcheck", "--case", "b", "--config", str(cfg))
    assert report["config"]["seed"] == 5


def test_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _ = run(capsys, "info", "--case", "b", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["roots"] == 72


def test_config_values_are_converted_like_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "5", "case": "b"}))
    code, report = run(capsys, "relcheck", "--config", str(cfg))
    assert code == 0
    assert report["config"]["seed"] == 5
    cfg.write_text(json.dumps({"seed": "five", "case": "b"}))
    assert main(["relcheck", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"case": "e"}))
    assert main(["info", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"case": "b", "ring": "z4", "target": 2}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_config_keys_are_usage_errors(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sed": 5, "case": "b"}))
    assert main(["relcheck", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "sed" in err
    # an option of another command is unknown to this one
    cfg.write_text(json.dumps({"case": "b", "ring": "z4"}))
    assert main(["info", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "items",
    [
        [{"kind": "x", "root": [1, 2, 2, 3, 2, 1]}],
        [{"kind": "x", "value": 2}],
        [{"kind": "x", "root": [9, 9, 9, 9, 9, 9], "value": 2}],
        [{"word": [["x", [1, 2, 2, 3, 2, 1]]]}],
        {"root": [1, 2, 2, 3, 2, 1]},
        [7],
    ],
)
def test_malformed_extra_file_is_a_usage_error(capsys, tmp_path, items):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(items))
    code = main(["level", "--case", "b", "--ring", "z4", "--target", "(2),(0)", "--extra", str(extra)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_malformed_matrix_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"case": "b", "ring": {"factors": [{"kind": "zmod"}]}, "rows": []}))
    assert main(["decompose", "--in", str(path)]) == 2
    path.write_text("{not json")
    assert main(["decompose", "--in", str(path)]) == 2


def test_unreadable_input_files_are_usage_errors(capsys, tmp_path):
    """A directory, or a file that is not UTF-8, given as --extra, --config
    or --in, and --out into a directory, exit 2 without a traceback."""
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'["\xe9"]')
    level = ["level", "--case", "b", "--ring", "z4", "--target", "(2),(0)"]
    for argv in (
        level + ["--extra", str(tmp_path)],
        level + ["--extra", str(latin)],
        level + ["--config", str(latin)],
        ["decompose", "--in", str(latin)],
        ["info", "--case", "b", "--out", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage error"), argv


def test_negative_counts_are_usage_errors(capsys, tmp_path):
    normcheck = ["normcheck", "--case", "b", "--ring", "z4", "--sigma", "(0),(0)"]
    level = ["level", "--case", "b", "--ring", "z4", "--target", "(2),(0)"]
    for argv in (normcheck + ["--samples", "-5"], level + ["--budget", "-1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    cfg = tmp_path / "cfg.json"
    for argv, data in ((normcheck, {"samples": -5}), (level, {"budget": -1})):
        cfg.write_text(json.dumps(data))
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "invalid value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "factor", [{"kind": "zmod", "p": 2.5, "k": 2.9}, {"kind": "zmod", "p": "3", "k": True}, {"kind": "poly", "p": 2, "k": 2.0}]
)
def test_ring_json_with_non_integers_is_a_usage_error(capsys, tmp_path, factor):
    """p and k are refused, not truncated or parsed into another ring."""
    ring = {"factors": [factor]}
    assert main(["normcheck", "--case", "b", "--ring", json.dumps(ring), "--sigma", "(0),(0)"]) == 2
    assert "is not an integer" in capsys.readouterr().err
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"case": "b", "ring": ring, "rows": [[1]]}))
    assert main(["decompose", "--in", str(path)]) == 2
    assert "is not an integer" in capsys.readouterr().err


def test_extra_value_true_is_a_usage_error(capsys, tmp_path):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{"kind": "x", "root": [1, 0, 0, 0, 0, 0], "value": True}]))
    code = main(["level", "--case", "b", "--ring", "z4", "--target", "(2),(0)", "--extra", str(extra)])
    assert code == 2
    assert "True is not an integer" in capsys.readouterr().err


def test_key_errors_inside_a_command_propagate(monkeypatch):
    import chevalley.cli as cli

    def broken(args):
        raise KeyError("internal lookup")

    monkeypatch.setattr(cli, "cmd_info", broken)
    with pytest.raises(KeyError):
        main(["info", "--case", "b"])


def test_modulus_above_the_exactness_bound_is_a_usage_error(capsys):
    # refused before the level generators over 4.3e9 ring elements are listed
    code = main(["normcheck", "--case", "b", "--ring", "z4294967311", "--sigma", "(2),(0)"])
    assert code == 2
    assert "2^63" in capsys.readouterr().err


# x_-max(2) x_alpha1(1) over Z/4: one word mixing the two orbits
MIXED_WORD = [["x", [-1, -2, -2, -3, -2, -1], 2], ["x", [1, 0, 0, 0, 0, 0], 1]]


def test_experiment_stopped_by_its_budget_is_incomplete(capsys, tmp_path):
    """The certificate is that of the single search: a budget stop exits 3,
    as the same search under ``level`` does.  The extra mixes the two orbits,
    so the search needs extraction, which a zero budget forbids."""
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{"word": MIXED_WORD}]))
    common = ["--case", "b", "--ring", "z4", "--extra", str(extra), "--budget", "0"]
    code, report = run(capsys, "experiment", *common)
    assert code == 3
    assert report["certificate"]["stop"] == "budget"
    assert report["sandwich"] == {"level": "(0),(0)", "verdict": False}
    code, report = run(capsys, "level", *common, "--target", "R,(2)")
    assert code == 3


def test_experiment_takes_no_sample_count(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--case", "b", "--ring", "z4", "--samples", "5"])
    assert err.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "b", "ring": "z4", "samples": 5}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert "samples" in capsys.readouterr().err


def test_experiment_examines_each_word_extra_itself(capsys, tmp_path):
    """A conjugate of x_max(2) given as one word fails the normalizer of the
    zero level, so the search examines it, and its witness replays from the
    word."""
    d, top = [0, 1, 0, 0, 0, 0], [1, 2, 2, 3, 2, 1]
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{"word": [["x", d, 1], ["x", top, 2], ["x", d, -1]]}]))
    code, report = run(capsys, "experiment", "--case", "b", "--ring", "z4", "--extra", str(extra))
    assert code == 0
    assert report["sandwich"] == {"level": "(2),(0)", "verdict": True}
    assert report["certificate"]["stop"] == "closed"
    assert all(w["trace"][0][0] == "atom_seed" for w in report["witnesses"])


@pytest.mark.parametrize(
    "case, ring, two",
    [("b", "z4", 2), ("c", "z4", 2), ("a6", "z8", 2), ("b", "f2t2", [[0, 1]])],
    ids=["b-z4", "c-z4", "a6-z8", "b-f2t2"],
)
def test_experiment_closes_on_a_word_mixing_the_orbits(capsys, tmp_path, case, ring, two):
    """Ground truth: H is generated by the subsystem and x_-max(2) x_beta(1),
    beta the lowest upper-orbit root (t in place of 2 over F2[t]/(t^2)).  Its
    level is R on the upper orbit and (2) on the lower one; the certificate
    closes there, and every witness replays from the report alone."""
    tag, l = case[0], int(case[1:]) if case[1:] else None
    roots = build_case(tag, l)
    beta = min(roots.omega_plus, key=lambda r: (sum(r), r))
    word = [["x", [-x for x in roots.max_root], two], ["x", list(beta), 1]]
    if (case, ring) == ("b", "z4"):
        assert word == MIXED_WORD
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{"word": word}]))
    argv = ["experiment", "--case", tag, "--ring", ring, "--extra", str(extra)] + (["--l", str(l)] if l else [])
    code, report = run(capsys, *argv)
    assert code == 0
    assert report["certificate"]["stop"] == "closed"
    assert report["certificate"]["lower"] == {"plus": [0], "minus": [1]}
    assert report["sandwich"]["verdict"] is True
    if ring != "f2t2":
        assert report["sandwich"]["level"] == "R,(2)"
    rep = representation(tag, l, named_ring(ring))
    for w in report["witnesses"]:
        value = RingElem.from_json(rep.ring, w["value"])
        assert replay_trace(rep, _trace_from_json(rep, w["trace"])) == rep.x(tuple(w["root"]), value)


def _trace_from_json(rep, ops):
    """A report's trace as ops: an atom is [kind, root, value], a weight a
    list of coordinates."""
    def arg(data):
        if isinstance(data[0], str):
            kind, root, value = data
            return kind, tuple(root), RingElem.from_json(rep.ring, value)
        return tuple(data)

    return [(op[0], arg(op[1])) for op in ops]


def test_seed_is_refused_where_nothing_reads_it(capsys, tmp_path):
    """Only the sampling commands take --seed; elsewhere the flag and the
    config key are usage errors."""
    level = ["level", "--case", "b", "--ring", "z4", "--target", "(0),(0)"]
    for argv in (level, ["experiment", "--case", "b", "--ring", "z4"], ["info", "--case", "b"], ["forms", "--case", "b"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--seed", "1"])
        assert err.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert main(level + ["--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


# sha256 of the stdout of commands whose reports are fixed by their seeds;
# reports are byte-identical by contract, so any change is a behaviour change
REPORT_SHA256 = {
    ("relcheck", "--case", "b", "--seed", "5"): "6c3ee417d951604940ece535a406125d69fb7f96e5e053485e3352312872c962",
    ("relcheck", "--case", "c"): "45e6fda9372f52fe1fee6257866000671a2dae0be46b6d17f4f7c36e76ca24e3",
    ("lemmas", "--case", "a", "--l", "5"): "f7b86fa9893e1b04b021542a75a40cad8428a0f2c73a14258d8227ff3de678fb",
    ("lemmas", "--case", "b"): "f6f9e0b63968f16fe5d2be9f6923525781ddfea81b9255550442c3b14c418645",
    ("lemmas", "--case", "c"): "27bc5d6885d82dfdbbefc4f692e400d9e7ebe69507eeb2ff86f1633936208199",
    ("selftest",): "3e4a2afaebfbb78b86c3d84ce079bc3555da3676ecfb5de09f28b506fba166ea",
    ("forms", "--case", "a", "--l", "8"): "3dff357328fb44586fe56def8c5b8c3863f00b58d18df91bcd0928b3b4d47e6b",
    ("forms", "--case", "a", "--l", "10"): "24164ced69abd48648d0eb132a8a0ecce632b91d57e69ac7599951ddfd4cff23",
    ("forms", "--case", "c"): "7cb452c40879d0d61bcf1ba0d18b5ba942e4bf7ab011a7d1e638f9543088f846",
}


@pytest.mark.parametrize("argv", sorted(REPORT_SHA256), ids=" ".join)
def test_reports_are_byte_identical(capsys, argv):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_SHA256[argv]


def _pinned_extras(tag, up, down):
    """x_max(up), x_-beta(down) with beta the lowest upper-orbit root, and
    the word x_d(1) x_max(2) x_d(-1) for the first subsystem root d with
    d + max a root."""
    case = build_case(tag, None)
    top = list(case.max_root)
    d = next(list(r) for r in case.delta if tuple(a + b for a, b in zip(r, top)) in case.index)
    beta = min(case.omega_plus, key=lambda r: (sum(r), r))
    return [
        {"kind": "x", "root": top, "value": up},
        {"kind": "x", "root": [-x for x in beta], "value": down},
        {"word": [["x", d, 1], ["x", top, 2], ["x", d, -1]]},
    ]


# sha256 and exit code of certificate reports; the report embeds the --extra
# path, so each run writes its extra file under a fixed relative name
CERTIFICATE_SHA256 = {
    ("experiment", "b", "z4", 2, 2): (0, "d850140bc995fa83a0e0293df1c3712daee47a9b12311f4b5be20f2a88162796"),
    ("experiment", "c", "z8", 4, 2): (0, "9e62b9aa0efab96135675d9bac1e9b3a4009f0141851d1d3bba25e50eaa73774"),
    ("level", "b", "z4", 2, 2, "--target", "R,(2)"): (
        1,
        "dbac1062bfd054285925c0d8dc435968fd71f5fa014697127f0c2d961846cb49",
    ),
}


@pytest.mark.parametrize("key", sorted(CERTIFICATE_SHA256, key=str), ids=lambda k: " ".join(map(str, k)))
def test_certificate_reports_are_byte_identical(capsys, monkeypatch, tmp_path, key):
    command, tag, ring, up, down, *rest = key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "extra.json").write_text(json.dumps(_pinned_extras(tag, up, down)))
    code, digest = CERTIFICATE_SHA256[key]
    assert main([command, "--case", tag, "--ring", ring, "--extra", "extra.json", *rest]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _decompose_file(path, tag, l, ring_name):
    """A big-cell word matrix x_-b(.) ... x_d(.) ... x_b(.), b over the upper
    orbit and d over the subsystem, with the ring's nonzero elements cycled
    as parameters, written as a ``decompose`` input file."""
    ring = named_ring(ring_name)
    rep = representation(tag, l, ring)
    plus, delta = sorted(rep.case.omega_plus), sorted(rep.case.delta)
    roots = [tuple(-x for x in b) for b in plus[1::5]] + delta[::7] + plus[::4]
    values = [v for v in ring.elements() if not v.is_zero()]
    word = tuple(("x", r, values[i % len(values)]) for i, r in enumerate(roots))
    rows = rep.element_from_word(word).mat.to_json()
    path.write_text(json.dumps({"case": tag, "l": l, "ring": ring.to_json(), "rows": rows}))


# sha256 of ``decompose`` reports on word matrices: second-type ones (a6 and
# c), whose inverse is read off the form, and first-type ones (b, a5, a7),
# which ``from_matrix`` inverts by elimination
DECOMPOSE_SHA256 = {
    ("a", 6, "f2t2"): "fe5350134506e9fafa56d83a830f313d4b8a2f4899e48527fdc17ce66d3d987e",
    ("c", None, "z4"): "115d3b4d39d1535fb7578a905ed6431a92a0ce373e5e77f683ad77db5a66accf",
    ("b", None, "z8"): "2b191bc04677e48f4e9263fd0f7e8274bff40e94ad6b93333ad16bce20cce43c",
    ("b", None, "f2t2"): "36761e3f33fbbdb625b2de0364eeeb698843ed16dea762bdb448c4eaab63c28e",
    ("b", None, "z12"): "76494e76f271adef32d47e3cdb0b1db7cc63207dcd333e41a1c0637f9048d0dd",
    ("a", 5, "z4"): "beef9207d10a8c71cc4b467177f9f61ef85afe8c59a8a375cc5f2393ce7f179c",
    ("a", 7, "f2t2"): "3b7efa610c3d7282cf1c1146e2fc3932cb7ba9fbc5d725806c51cabf42fb03ef",
}
SECOND_TYPE_KEYS = [("a", 6, "f2t2"), ("c", None, "z4")]


def _check_decompose_report(capsys, tmp_path, key):
    path = tmp_path / "matrix.json"
    _decompose_file(path, *key)
    assert main(["decompose", "--in", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DECOMPOSE_SHA256[key]


@pytest.mark.parametrize("key", SECOND_TYPE_KEYS, ids=lambda k: "-".join(map(str, k)))
def test_decompose_reports_on_second_type_words_are_byte_identical(capsys, tmp_path, key):
    _check_decompose_report(capsys, tmp_path, key)


@pytest.mark.parametrize(
    "key", [k for k in DECOMPOSE_SHA256 if k not in SECOND_TYPE_KEYS], ids=lambda k: "-".join(map(str, k))
)
def test_decompose_reports_on_first_type_words_are_byte_identical(capsys, tmp_path, key):
    _check_decompose_report(capsys, tmp_path, key)


def test_decompose_refuses_a_singular_second_type_matrix(capsys, tmp_path):
    ring = named_ring("z4")
    rep = representation("c", None, ring)
    mat = rep.identity().mat
    mat.set_entry(3, 3, ring.el(2))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"case": "c", "l": None, "ring": ring.to_json(), "rows": mat.to_json()}))
    assert main(["decompose", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: no unit pivot; matrix is not invertible over the local factor\n"
