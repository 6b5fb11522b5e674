"""Command-line interface tests (in-process, via main)."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from sympovm import cli
from sympovm.cli import main
from sympovm.feasible import SymPovm
from sympovm.symmetry import CoeffVector, kind


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vertices_oo_csv(capsys):
    code, out, _ = run(capsys, "vertices", "--family", "oo", "--dim", "3",
                       "--outcomes", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex,c0,c1,c2"
    assert len(lines) == 9
    assert "1,0,2/5" in out  # D1
    assert "0,0,3/5" in out  # B1


def test_vertices_brute_matches_dd(capsys):
    _, dd_out, _ = run(capsys, "vertices", "--family", "bell", "--dim", "2",
                       "--outcomes", "2", "--format", "csv")
    _, brute_out, _ = run(capsys, "vertices", "--family", "bell", "--dim", "2",
                          "--outcomes", "2", "--format", "csv",
                          "--method", "brute")
    assert dd_out == brute_out


def test_extrema_bell_json(capsys):
    code, out, _ = run(capsys, "extrema", "--family", "bell", "--dim", "2",
                       "--outcomes", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 40
    assert len(blob["classes"]) == 4
    for cls in blob["classes"]:
        nonzero = [e for e in cls["elements"] if any(c != "0" for c in e)]
        assert len(nonzero) <= 2


def test_byte_identical_output(capsys):
    _, first, _ = run(capsys, "extrema", "--family", "oo", "--dim", "3",
                      "--outcomes", "3")
    _, second, _ = run(capsys, "extrema", "--family", "oo", "--dim", "3",
                       "--outcomes", "3")
    assert first == second


def test_check_feasible_and_infeasible(tmp_path, capsys):
    k = kind("isotropic", 2)
    good = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 3))),
                       CoeffVector(k, (0, Fraction(2, 3)))))
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good.to_json()))
    code, out, _ = run(capsys, "check", "--povm", str(path))
    assert code == 0 and json.loads(out)["feasible"]

    bad = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 4))),
                      CoeffVector(k, (0, Fraction(3, 4)))))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(capsys, "check", "--povm", str(path))
    assert code == 1
    blob = json.loads(out)
    assert not blob["feasible"]
    assert any(v["label"][0] == "ppt" for v in blob["violations"])


def test_protocol_synth_and_verify_round_trip(tmp_path, capsys):
    k = kind("isotropic", 3)
    target = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 4))),
                         CoeffVector(k, (0, Fraction(3, 4)))))
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps(target.to_json()))
    code, out, _ = run(capsys, "protocol-synth", "--family", "isotropic",
                       "--dim", "3", "--target", str(tpath))
    assert code == 0
    ppath = tmp_path / "protocol.json"
    ppath.write_text(out)
    code, out, _ = run(capsys, "protocol-verify", "--protocol", str(ppath),
                       "--target", str(tpath))
    assert code == 0
    assert json.loads(out)["ok"]


def test_protocol_verify_mismatch_exits_1(tmp_path, capsys):
    k = kind("isotropic", 2)
    target = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 3))),
                         CoeffVector(k, (0, Fraction(2, 3)))))
    other = SymPovm(k, (CoeffVector(k, (Fraction(1, 2), Fraction(1, 2))),
                        CoeffVector(k, (Fraction(1, 2), Fraction(1, 2)))))
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(target.to_json()))
    _, out, _ = run(capsys, "protocol-synth", "--family", "isotropic",
                    "--dim", "2", "--target", str(tpath))
    ppath = tmp_path / "p.json"
    ppath.write_text(out)
    opath = tmp_path / "o.json"
    opath.write_text(json.dumps(other.to_json()))
    code, out, _ = run(capsys, "protocol-verify", "--protocol", str(ppath),
                       "--target", str(opath))
    assert code == 1
    assert not json.loads(out)["ok"]


def test_oo_protocol_synth(capsys):
    code, out, _ = run(capsys, "protocol-synth", "--family", "oo", "--dim", "3",
                       "--extremum", "triple")
    assert code == 0
    blob = json.loads(out)
    assert blob["twirl"] == "oo" and len(blob["outcomes"]) == 3


def test_state_set_command(capsys):
    code, out, _ = run(capsys, "state-set", "--dim", "3")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["states"]) == 24
    assert all(s["weight"] == "1/8" for s in blob["states"])


def test_nogo_command(capsys):
    code, out, _ = run(capsys, "nogo", "--dim", "3")
    assert code == 0
    assert "verdict=infeasible" in out
    code, out, _ = run(capsys, "nogo", "--dim", "4", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "infeasible"
    code, out, _ = run(capsys, "nogo", "--dim", "2", "--family", "isotropic")
    assert code == 0
    assert "verdict=feasible" in out


def test_decompose_command(tmp_path, capsys):
    k = kind("bell", 2)
    half = Fraction(1, 2)
    mix = SymPovm(k, (CoeffVector(k, (1, half, half, 0)),
                      CoeffVector(k, (0, half, half, 1))))
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(mix.to_json()))
    code, out, _ = run(capsys, "decompose", "--povm", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob["decomposed"]
    assert sum(Fraction(w["weight"]) for w in blob["weights"]) == 1


def test_discriminate_command(tmp_path, capsys):
    states = {"family": "bell", "dim": 2,
              "states": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    path = tmp_path / "states.json"
    path.write_text(json.dumps(states))
    code, out, _ = run(capsys, "discriminate", "--states", str(path),
                       "--priors", "1/4,1/4,1/4,1/4", "--cost", "bayes",
                       "--mode", "local")
    assert code == 0
    assert json.loads(out)["value"] == "1/2"
    code, out, _ = run(capsys, "discriminate", "--states", str(path),
                       "--cost", "info", "--mode", "global")
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["value"] - 2.0) < 1e-9
    # the global optimum is attained by the commutant-block measurement
    blocks = SymPovm.from_json(blob["optimal_povm"])
    assert blocks.n_outcomes == 4
    assert [sum(c) for c in zip(*(e.coeffs for e in blocks.elements))] == [1] * 4
    code, out, _ = run(capsys, "discriminate", "--states", str(path),
                       "--cost", "info", "--mode", "local")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-9


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--povm", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["vertices", "--family", "nope", "--outcomes", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    zero_den = tmp_path / "zero-den.json"
    zero_den.write_text(json.dumps({"family": "isotropic", "dim": 2,
                                    "elements": [["1", "1/0"], ["0", "1"]]}))
    code, _, err = run(capsys, "check", "--povm", str(zero_den))
    assert code == 2
    assert err == f'error: {zero_den}: elements[0][1]: zero denominator in "1/0"\n'
    states = tmp_path / "states.json"
    states.write_text(json.dumps({"family": "isotropic", "dim": 2,
                                  "states": [["1", "0"], ["0", "1"]]}))
    code, _, err = run(capsys, "discriminate", "--states", str(states),
                       "--priors", "1/0,1")
    assert code == 2
    assert err == 'error: --priors: zero denominator in "1/0"\n'
    # a file of the wrong shape names the file and the field, with no traceback
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"family": "isotropic", "dim": 2, "elements": [["1", "1"]]}))
    elements5 = tmp_path / "elements5.json"
    elements5.write_text(json.dumps({"family": "isotropic", "dim": 2, "elements": 5}))
    huge_float = tmp_path / "huge-float.json"
    huge_float.write_text(json.dumps({"twirl": "isotropic", "dim": 2, "outcomes": [[{
        "w": "1", "a": float_factor([[1, 0], [0, 1]]),
        "b": {"dim": 2, "entries": [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]}}]]}))
    dims = {}
    for name, value in (("fractional", 3.9), ("bool", True), ("underscore", "1_000"),
                        ("spaces", " 3 "), ("arabic-indic", "\u0663")):
        dims[name] = tmp_path / f"dim-{name}.json"
        dims[name].write_text(json.dumps({"family": "isotropic", "dim": value,
                                          "elements": [["1", "1"]]}))
    not_finite = {}
    for name, value in (("nan", float("nan")), ("inf", float("inf")), ("nan-str", "nan")):
        not_finite[name] = tmp_path / f"{name}.json"
        not_finite[name].write_text(json.dumps({"twirl": "isotropic", "dim": 2, "outcomes": [[{
            "w": "1", "a": float_factor([[1, 0], [0, 1]]),
            "b": {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, value], [1, 0]]]}}]]}))
    # an ordered catalog of 100 oo outcomes would hold 3e8 coordinates
    povm100 = tmp_path / "povm100.json"
    povm100.write_text(json.dumps({"family": "oo", "dim": 3,
                                   "elements": [["1", "1", "1"]] + [["0", "0", "0"]] * 99}))
    cases = [
        (("extrema", "--family", "oo", "--dim", "3", "--outcomes", "100"), "--outcomes",
         "100 outcomes are too many for an ordered catalog"),
        (("decompose", "--povm", povm100), povm100,
         "100 outcomes are too many for an ordered catalog"),
        # the double description of 100 oo outcomes would not end in minutes
        (("vertices", "--family", "oo", "--dim", "3", "--outcomes", "100"), "--outcomes",
         "100 outcomes give 600 inequalities, over the bound of 64"),
        (("vertices", "--family", "bell", "--outcomes", "5000", "--method", "brute"),
         "--outcomes", "5000 outcomes give 40000 inequalities"),
        (("check", "--povm", listed), listed, "expected a JSON object"),
        (("decompose", "--povm", listed), listed, "expected a JSON object"),
        (("protocol-verify", "--protocol", listed, "--target", target), listed,
         "expected a JSON object with fields twirl, dim, outcomes"),
        (("protocol-synth", "--family", "isotropic", "--dim", "2", "--target", listed),
         listed, "expected a JSON object"),
        (("discriminate", "--states", listed), listed,
         "expected a JSON object with fields family, dim, states"),
        (("check", "--povm", elements5), elements5, "elements: expected a list"),
        (("check", "--povm", dims["fractional"]), dims["fractional"],
         "dim: expected an integer, got 3.9"),
        (("check", "--povm", dims["bool"]), dims["bool"], "dim: expected an integer, got True"),
        (("check", "--povm", dims["underscore"]), dims["underscore"],
         "dim: expected an integer, got '1_000'"),
        (("check", "--povm", dims["spaces"]), dims["spaces"],
         "dim: expected an integer, got ' 3 '"),
        (("check", "--povm", dims["arabic-indic"]), dims["arabic-indic"],
         "dim: expected an integer, got '\u0663'"),
        (("protocol-verify", "--protocol", huge_float, "--target", target), huge_float,
         "outcomes[0][0].b.entries[0][0]: int too large to convert to float"),
        (("protocol-verify", "--protocol", not_finite["nan"], "--target", target),
         not_finite["nan"], "outcomes[0][0].b.entries[1][0]: not a rational: nan"),
        (("protocol-verify", "--protocol", not_finite["inf"], "--target", target),
         not_finite["inf"], "outcomes[0][0].b.entries[1][0]: not a rational: inf"),
        (("protocol-verify", "--protocol", not_finite["nan-str"], "--target", target),
         not_finite["nan-str"], "outcomes[0][0].b.entries[1][0]: not a rational: 'nan'"),
    ]
    for argv, path, message in cases:
        code, out, err = run(capsys, *map(str, argv))
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {path}: ") and message in err, err
    # --eps must be finite and >= 0; inf would accept any target, here (3, -5)
    proto = tmp_path / "float-proto.json"
    proto.write_text(json.dumps({"twirl": "isotropic", "dim": 2, "outcomes": [[{
        "w": "1", "a": float_factor([[1, 0], [0, 1]]), "b": float_factor([[1, 0], [0, 1]])}]]}))
    far = tmp_path / "far-target.json"
    far.write_text(json.dumps({"family": "isotropic", "dim": 2, "elements": [["3", "-5"]]}))
    for eps in ("-1", "nan", "inf"):
        code, out, err = run(capsys, "protocol-verify", "--protocol", str(proto),
                             "--target", str(far), "--eps", eps)
        assert (code, out) == (2, ""), eps
        assert err.startswith("error: --eps: "), err


def test_protocol_synth_ppt_violating_target_exits_1(tmp_path, capsys):
    path = tmp_path / "ppt-violating.json"
    path.write_text(json.dumps({"family": "isotropic", "dim": 2,
                                "elements": [["1", "0"], ["0", "1"]]}))
    code, out, _ = run(capsys, "protocol-synth", "--family", "isotropic",
                       "--dim", "2", "--target", str(path))
    assert code == 1
    blob = json.loads(out)
    assert blob["outcome"] == 0
    assert Fraction(blob["coefficient"]) < 0 and blob["message"]


def test_protocol_file_mixing_exact_and_float_factors_reads_as_float(tmp_path, capsys):
    exact_one = {"dim": 2, "entries": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}
    # a "p/q" string keeps its rational value in float mode too
    half = {"dim": 2, "entries": [[["1/2", "0"], ["0", "0"]], [["0", "0"], ["1/2", "0"]]]}
    float_one = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"family": "isotropic", "dim": 2,
                                 "elements": [["1", "1"]]}))
    for w, a in (("1", exact_one), ("2", half)):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps({"twirl": "isotropic", "dim": 2, "outcomes": [
            [{"w": w, "a": a, "b": float_one}]]}))
        code, out, err = run(capsys, "protocol-verify", "--protocol", str(ppath),
                             "--target", str(tpath))
        assert (code, err) == (0, ""), w
        assert json.loads(out)["ok"] is True


def test_failed_cross_check_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    from sympovm import discrimination

    classes = discrimination.catalog_classes

    def without_the_optimal_pair(k, n):
        return [p for p in classes(k, n) if len(p.nonzero_elements()) < 2]

    monkeypatch.setattr(discrimination, "catalog_classes", without_the_optimal_pair)
    path = tmp_path / "states.json"
    path.write_text(json.dumps({"family": "isotropic", "dim": 2,
                                "states": [["1", "0"], ["0", "1"]]}))
    code, out, err = run(capsys, "discriminate", "--states", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: LP optimum 5/6 != catalog sweep 1/2; "
                   "the extremal catalog is incomplete\n")


def float_factor(rows):
    """A d x d protocol factor whose entries are plain numbers (float mode)."""
    return {"dim": len(rows),
            "entries": [[[complex(z).real, complex(z).imag] for z in row] for row in rows]}


def iso_float_protocol(d, responses):
    """The computational-basis isotropic protocol, one outcome per (x, y):
    Alice's |i><i| with Bob's x |i><i| + y (1 - |i><i|)."""
    return {"twirl": "isotropic", "dim": d, "outcomes": [
        [{"w": "1",
          "a": float_factor([[float(r == c == i) for c in range(d)] for r in range(d)]),
          "b": float_factor([[(x if r == i else y) if r == c else 0.0 for c in range(d)]
                             for r in range(d)])}
         for i in range(d)] for x, y in responses]}


# the y-basis projector pair of a qubit: same outcomes collect Psi+ and Phi-
Y_PLUS = [[0.5, -0.5j], [0.5j, 0.5]]
Y_MINUS = [[0.5, 0.5j], [-0.5j, 0.5]]

# Inputs and sha256 digests of stdout for LP, double-description, no-go,
# basis, catalog, bell protocol-synth, discrimination and float
# protocol-verify commands.  The digests pin the
# exact output byte for byte: a change to the elimination kernel, the
# simplex, the DD, the commutant table or the float mode must leave every
# one unchanged.
DIGEST_FILES = {
    "iso3-float.json": iso_float_protocol(3, [(0.7, 1 / 6), (0.3, 5 / 6)]),
    "iso3-target.json": {"family": "isotropic", "dim": 3, "elements": [
        ["7/10", "3/10"], ["3/10", "7/10"]]},
    "bell-float.json": {"twirl": "bell", "dim": 2, "outcomes": [
        [{"w": "1", "a": float_factor(a), "b": float_factor(b)}
         for a, b in ((Y_PLUS, Y_PLUS), (Y_MINUS, Y_MINUS))],
        [{"w": 1.0, "a": float_factor(a), "b": float_factor(b)}
         for a, b in ((Y_PLUS, Y_MINUS), (Y_MINUS, Y_PLUS))]]},
    "bell-target.json": {"family": "bell", "dim": 2, "elements": [
        ["1", "0", "0", "1"], ["0", "1", "1", "0"]]},
    "bell3.json": {"family": "bell", "dim": 2, "elements": [
        ["1/2", "1/3", "1/6", "0"], ["1/4", "1/3", "1/2", "1/2"],
        ["1/4", "1/3", "1/3", "1/2"]]},
    "bell-outside.json": {"family": "bell", "dim": 2, "elements": [
        ["1", "0", "0", "0"], ["0", "1", "1", "1"]]},
    "oo-mix.json": {"family": "oo", "dim": 3, "elements": [
        ["1/2", "1/3", "1/5"], ["1/4", "1/3", "2/5"], ["1/4", "1/3", "2/5"]]},
    "states.json": {"family": "isotropic", "dim": 3, "states": [
        ["1/3", "2/3"], ["1/9", "8/9"], ["0", "1"]]},
    "cost.json": [["0", "1", "2"], ["1", "0", "1"], ["3", "1", "0"]],
    "iso-check.json": {"family": "isotropic", "dim": 3, "elements": [
        ["1", "1/5"], ["0", "4/5"]]},
    "werner-check.json": {"family": "werner", "dim": 3, "elements": [
        ["1/3", "1"], ["2/3", "0"]]},
    # four Bell-diagonal mixed states: the abstract's local discrimination case
    "bell-diagonal.json": {"family": "bell", "dim": 2, "states": [
        ["1/2", "1/4", "1/8", "1/8"], ["1/8", "1/2", "1/4", "1/8"],
        ["1/8", "1/8", "1/2", "1/4"], ["1/4", "1/8", "1/8", "1/2"]]},
}
DIGESTS = [
    ("nogo --dim 3 --json", 0,
     "16575adc4de4cd9e63f240cefd410588e58ac638e6d22982b099409aa3fbb0da"),
    ("nogo --dim 2 --family isotropic --json", 0,
     "aed91dc980a178cbc2d03efed37fc0a1f6f77b1d07850106705a54e5b4ad203e"),
    ("vertices --family oo --dim 4 --outcomes 3", 0,
     "93f02b19e4bf5faeee0a2976feb8e9ae861a95a953ca5f9addaed705d44010c6"),
    ("vertices --family bell --dim 2 --outcomes 3 --method brute", 0,
     "f3bf574561ceec4ed92f44769927a2204f2b0ed3795fc2614595a2dd9a1d784a"),
    # eliminated two-outcome polytopes: the labels name both outcomes' rows
    ("vertices --family oo --dim 3 --outcomes 2", 0,
     "612f98a19dc8193f0b8d0386b9bea05f31aa29b8c4c726ea83896bf02c34c6b4"),
    ("vertices --family bell --dim 2 --outcomes 2 --method brute", 0,
     "bebabdd4f4f798a9620b126adc5367dca62ab8488d9ad0ae9ce1dabd6f04c425"),
    ("vertices --family isotropic --dim 3 --outcomes 3 --format csv", 0,
     "2d334f94e7af0b5add9199e3f91139e0df7e94263073d701f4763a20964ba609"),
    ("check --povm bell3.json", 0,
     "3b560ec1a4cc8800e9effa22237e56c3703c298a8758b6d10e5d9240bfb37d24"),
    ("check --povm bell-outside.json", 1,
     "2b82c30681723ab90b76c41408e7f4faae012e39466d1c5e2b12cb4f3a702e41"),
    ("decompose --povm bell3.json", 0,
     "61d48b58ef3faf1b345002bd16c8cdc4066dbac895fa83ed60ee0a17eb67c67a"),
    ("decompose --povm bell-outside.json", 1,
     "6cc200aab3fd2fe13877866133652f920b63bd337a67244cb0c7b48bd744de23"),
    ("decompose --povm oo-mix.json", 0,
     "0ad4f9a639d60aa498c34b0756fbbb85dc4bffa9cae974681bf1416dbe5ed5c9"),
    ("discriminate --states states.json --priors 1/2,1/3,1/6 --cost cost.json", 0,
     "05c3e485a5a31420606f2ed90e3328fa0149737cf396fd590ff5ef5de066ff6f"),
    ("discriminate --states states.json --cost bayes", 0,
     "c163a53859d58ad4e3683f752205a0e57ace991b770bb91f471a264026d6fffe"),
    ("basis --family isotropic --dim 3", 0,
     "ca3bc76ab9ae6af2becc471aad589240c6a60337e7e5475347f72dd7e972f76a"),
    ("basis --family werner --dim 3", 0,
     "7359612025f7c77e837402899b5e69a1f57bace75917cf7d86d00c7f2cc98df7"),
    ("basis --family oo --dim 3", 0,
     "1394a8c26bcaa5ef25955f3551ba394232e01a64a5a3963e1f334a340c90feb6"),
    ("basis --family bell", 0,
     "607ee27065079450900f34ecac071b1471b7be9da196ba6b9deffc3fa39d1a0a"),
    ("check --povm iso-check.json", 1,
     "26a18ab0f370cd03375aea0e80e0c698f979b33672aefc6429874aa3c2c18bb7"),
    ("check --povm werner-check.json", 1,
     "19a990080e0ff80e039112cdfa07586a1fc024bce7ef426caedfd52b02a15f68"),
    ("extrema --family werner --dim 4 --outcomes 3", 0,
     "82d36a749e8a8ec7431278ab2535366e7072c62577bc08e8fc1bec647de53157"),
    ("protocol-verify --protocol iso3-float.json --target iso3-target.json", 0,
     "8a4ad1af51c3dec307dacc0fe52c641f1aa7213cba338c59d85e7970cab71a19"),
    ("protocol-verify --protocol bell-float.json --target bell-target.json", 0,
     "8a4ad1af51c3dec307dacc0fe52c641f1aa7213cba338c59d85e7970cab71a19"),
    ("extrema --family oo --dim 2 --outcomes 3 --format csv", 0,
     "511f02ec26c9949ac71b67f48560cfc3597f6888d16bf4ee54cff25ebbb49c26"),
    ("extrema --family oo --dim 3 --outcomes 4", 0,
     "1873d5d10410965f80ed85f91a24f66547146d353502e01175383bd6a4bede47"),
    ("extrema --family bell --dim 2 --outcomes 4 --format csv", 0,
     "7c58c8d5f8e17c5047bc01674fd2e31c0e1e26fed66536330e6cff204c323747"),
    ("extrema --family isotropic --dim 3 --outcomes 1", 0,
     "b69ac30226b54dcdea922cbec5e185fcf75040fea37ae88919ec267b227080aa"),
    ("protocol-synth --family bell --extremum-index 0", 0,
     "8ecb0202a40294cc6fa8c698395cdfb3d740ff8af7bef09ef91f37f98bd34ba0"),
    ("protocol-synth --family bell --extremum-index 1", 0,
     "01378e31b8eefc1f2df484dfd2c3b2ddc3f1f4e4ff1cd846f9466513b9811507"),
    ("protocol-synth --family bell --extremum-index 2", 0,
     "b12ef736e29a159cf6b90da122805f32fa7a8d2d30a448e3ed55e9a5e0f9558d"),
    ("protocol-synth --family bell --extremum-index 3", 0,
     "47e07f0c72f9ee08bcdb4f5a07205a69999df2182b383924858c97f7879b3524"),
    ("nogo --dim 4 --json", 0,
     "9b0f086d33bf1b2a2f69c2f22e315df66c96b9530f16c12758b60f6db49cdd6a"),
    ("discriminate --states states.json --cost info", 0,
     "82f646312e688df9980020c2f55d16bb1c2548720d7b52b1c1a584270c39ec2e"),
    ("discriminate --states bell-diagonal.json --cost bayes", 0,
     "d617b0e7c14e13d977fcee4d10d18494637a2176f32ad350fabb65b2b02b2d03"),
    ("discriminate --states bell-diagonal.json --cost info", 0,
     "71f05e7ac217fc5c172ab35ba83cc1bbf96e0a525a18da5abb4e1a79ffa27be4"),
]


@pytest.mark.parametrize("command,code,digest", DIGESTS, ids=[c for c, _, _ in DIGESTS])
def test_stdout_matches_recorded_digest(command, code, digest, tmp_path, capsys):
    for name, blob in DIGEST_FILES.items():
        (tmp_path / name).write_text(json.dumps(blob))
    argv = [str(tmp_path / a) if a in DIGEST_FILES else a
            for a in command.split()]
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code, command
    assert hashlib.sha256(out.encode()).hexdigest() == digest, \
        f"stdout of `sympovm {command}` differs from the recorded output"


def test_basis_json_round_trips_matrices(capsys):
    from sympovm.operators import BipartiteOperator

    code, out, _ = run(capsys, "basis", "--family", "bell", "--dim", "2")
    assert code == 0
    blob = json.loads(out)
    projs = [BipartiteOperator.from_json(p) for p in blob["projectors"]]
    assert len(projs) == 4
    total = projs[0]
    for p in projs[1:]:
        total = total + p
    assert total == BipartiteOperator.identity(2)


def child_env():
    """The environment of a child process that imports this checkout's sympovm."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def huge_dim_check(tmp_path):
    # a huge dim only enters closed forms: no d^2 x d^2 grid is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"family": "isotropic", "dim": 1e300,
                                "elements": [["1", "1"]]}))
    return ["check", "--povm", str(path)], "feasible"


def float_protocol_d100(tmp_path):
    # float verification works on d x d invariants and block rows of the
    # completeness sum: O(d^3) memory, no 10^4 x 10^4 array
    d = 100
    eye = [[float(r == c) for c in range(d)] for r in range(d)]
    ppath = tmp_path / "protocol.json"
    ppath.write_text(json.dumps({"twirl": "isotropic", "dim": d, "outcomes": [
        [{"w": "1", "a": float_factor(eye), "b": float_factor(eye)}]]}))
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps({"family": "isotropic", "dim": d, "elements": [["1", "1"]]}))
    return ["protocol-verify", "--protocol", str(ppath), "--target", str(tpath)], "ok"


@pytest.mark.parametrize("make_input", [huge_dim_check, float_protocol_d100])
def test_coefficient_commands_take_any_dim_in_bounded_memory(tmp_path, make_input):
    argv, key = make_input(tmp_path)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    res = subprocess.run([sys.executable, "-m", "sympovm.cli"] + argv,
                         capture_output=True, text=True, env=child_env(),
                         preexec_fn=limit_memory, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)[key] is True
    assert "Traceback" not in res.stderr


# run in a fresh interpreter: argv is povm.json, target.json, protocol.json
NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
import sympovm, sympovm.cli
povm, target, protocol = sys.argv[1:]
for argv in (["check", "--povm", povm], ["decompose", "--povm", povm],
             ["vertices", "--family", "bell", "--dim", "2", "--outcomes", "2",
              "--method", "dd"],
             ["nogo", "--dim", "2", "--family", "isotropic"],
             ["protocol-verify", "--protocol", protocol, "--target", target]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sympovm.cli.main(argv) == 0, argv
from fractions import Fraction
from sympovm.operators import kraus_from_separable_form, mat, mat_eye, tensor
a, third = mat([[2, 1], [1, 2]]), Fraction(1, 3)
pairs = kraus_from_separable_form([(third, a, mat_eye(2))])
assert len(pairs) == 1 and pairs[0].element() == tensor(a, mat_eye(2)).scale(third)
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_exact_commands_never_import_numpy(tmp_path):
    # numpy is needed only for float protocol files and the brute-force
    # vertex oracle; Kraus extraction is exact, with no spectral root
    from sympovm.protocols import isotropic_protocol

    k = kind("isotropic", 2)
    target = SymPovm(k, (CoeffVector(k, (1, Fraction(1, 3))),
                         CoeffVector(k, (0, Fraction(2, 3)))))
    paths = [tmp_path / name for name in ("povm.json", "target.json", "protocol.json")]
    for path, blob in zip(paths, (DIGEST_FILES["bell3.json"], target.to_json(),
                                  isotropic_protocol(target).to_json())):
        path.write_text(json.dumps(blob))
    res = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT] + [str(p) for p in paths],
                         capture_output=True, text=True, env=child_env(), timeout=120)
    assert res.returncode == 0, res.stderr


LAZY_EXPORTS_SCRIPT = """
import sys
import sympovm
loaded = sorted(m for m in sys.modules if m.startswith("sympovm."))
assert not loaded, loaded
for name in sympovm.__all__:
    assert getattr(sympovm, name) is not None, name
try:
    sympovm.not_a_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


def test_package_import_loads_no_submodule():
    # the package exports load on first use, so a command imports only what
    # it reaches; every exported name still resolves
    res = subprocess.run([sys.executable, "-c", LAZY_EXPORTS_SCRIPT], capture_output=True,
                         text=True, env=child_env(), timeout=120)
    assert res.returncode == 0, res.stderr


def test_dense_commands_reject_a_dim_over_the_bound(tmp_path, capsys, monkeypatch):
    # the builders are stubbed: only the guard and its estimate run, so a
    # dim just over the bound is never built
    from sympovm.protocols import LocalProtocol, PureStateSet
    from sympovm.symmetry import CommutantBasis

    built = []

    def stub(make):
        def record(*args):
            built.append(args)
            return make(*args)
        return record

    monkeypatch.setattr(cli, "commutant_basis", stub(lambda k: CommutantBasis(k, ())))
    monkeypatch.setattr(cli, "build_pure_state_set", stub(lambda d: PureStateSet(d, ())))
    monkeypatch.setattr(cli, "isotropic_protocol", stub(lambda t: LocalProtocol(t.kind, ())))
    monkeypatch.setattr(cli, "oo_protocol", stub(lambda x, d: LocalProtocol(kind("oo", d), ())))

    def target(d):
        path = tmp_path / f"target{d}.json"
        path.write_text(json.dumps({"family": "isotropic", "dim": d,
                                    "elements": [["1", "1"]]}))
        return str(path)

    bound = cli.MAX_DENSE_ENTRIES
    # basis holds n d^4 entries, the others about d^3
    assert 3 * 10 ** 4 <= bound < 3 * 11 ** 4 and 32 ** 3 <= bound < 33 ** 3
    for ok, over, argv in [
        (10, 11, ("basis", "--family", "oo", "--dim")),
        (32, 33, ("state-set", "--dim")),
        (32, 33, ("protocol-synth", "--family", "oo", "--extremum", "A", "--dim")),
    ]:
        built.clear()
        code, out, err = run(capsys, *argv, str(ok))
        assert code == 0 and len(built) == 1, err
        code, out, err = run(capsys, *argv, str(over))
        assert code == 2 and out == "" and len(built) == 1
        assert err.startswith(f"error: dim {over} ") and f"bound of {bound}" in err
    # the target file's dim counts; --dim is ignored for isotropic targets
    built.clear()
    code, _, err = run(capsys, "protocol-synth", "--family", "isotropic", "--dim", "2",
                       "--target", target(32))
    assert code == 0 and len(built) == 1, err
    code, out, err = run(capsys, "protocol-synth", "--family", "isotropic", "--dim", "2",
                         "--target", target(33))
    assert code == 2 and out == "" and len(built) == 1
    assert err.startswith("error: dim 33 ") and f"bound of {bound}" in err
