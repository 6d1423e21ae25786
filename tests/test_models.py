"""Model files and the loop / based / circle-equivariant constructions."""

from types import SimpleNamespace

import pytest

from loopspace.gca import Derivation, GradedAlgebra
from loopspace.models import (
    ModelError,
    ModelFileError,
    based_complex,
    equivariant_model,
    format_model_report,
    gysin_report,
    load_model,
    loop_model,
    parse_model,
    validate_model,
)


def test_parse_model_basic(data_path):
    m = load_model(data_path("s2.min"))
    assert m.algebra.names == ("x", "y")
    assert m.algebra.degrees == (2, 3)
    assert str(m.d(m.algebra.gen("y"))) == "x^2"
    assert not m.d(m.algebra.gen("x"))


def test_parse_model_errors():
    with pytest.raises(ModelFileError) as err:
        parse_model("gen x 2\ngen x 3\n")
    assert err.value.line == 2
    with pytest.raises(ModelFileError):
        parse_model("gen x 1\n")  # not simply connected
    with pytest.raises(ModelFileError):
        parse_model("gen x 2\nd z = x\n")  # unknown target
    with pytest.raises(ModelFileError):
        parse_model("gen x 2\nd x = q\n")  # unknown name in value
    with pytest.raises(ModelFileError):
        parse_model("gen x 2\ngen y 3\nd y = x^2\nd y = 0\n")  # duplicate
    with pytest.raises(ModelFileError):
        parse_model("hello\n")


def test_square_zero_enforced_at_load():
    # d(d(x)) = d(y) = z is nonzero, so loading must fail
    text = "gen x 2\ngen y 3\ngen z 4\nd x = y\nd y = z\n"
    with pytest.raises(ModelError):
        parse_model(text)


def test_loop_model_hand_differentials(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    alg = lm.algebra
    assert alg.names == ("xb", "x", "yb", "y")
    assert str(lm.d(alg.gen("yb"))) == "-2*xb*x"
    assert str(lm.d(alg.gen("y"))) == "x^2"
    assert str(lm.delta(alg.gen("x"))) == "xb"
    assert str(lm.delta(alg.gen("y"))) == "yb"
    assert not lm.delta(alg.gen("xb"))


def test_loop_model_cube_relation(data_path):
    lm = loop_model(load_model(data_path("cp2.min")))
    assert str(lm.d(lm.algebra.gen("yb"))) == "-3*xb*x^2"


def test_loop_model_product_of_spheres(data_path):
    lm = loop_model(load_model(data_path("s2xs3.min")))
    alg = lm.algebra
    assert str(lm.d(alg.gen("yb"))) == "-2*xb*x"
    assert not lm.d(alg.gen("zb"))
    assert str(lm.delta(alg.gen("z"))) == "zb"


def test_based_complex_shape(data_path):
    cx = based_complex(load_model(data_path("s2xs3.min")))
    assert cx.algebra.names == ("xb", "yb", "zb")
    assert cx.algebra.degrees == (1, 2, 2)
    for n in cx.algebra.names:
        assert not cx.diff(cx.algebra.gen(n))


def test_equivariant_model_hand_differentials(data_path):
    em = equivariant_model(loop_model(load_model(data_path("s2.min"))))
    alg = em.algebra
    assert "u" in alg.names
    assert str(em.d(alg.gen("x"))) == "xb*u"
    assert str(em.d(alg.gen("y"))) == "x^2 + u*yb"
    assert str(em.d(alg.gen("yb"))) == "-2*xb*x"
    assert not em.d(alg.gen("u"))


def test_name_collisions_rejected():
    m = parse_model("gen x 2\ngen xb 3\n")
    with pytest.raises(ModelError):
        loop_model(m)
    m2 = parse_model("gen u 2\ngen x 2\n")
    with pytest.raises(ModelError):
        equivariant_model(loop_model(m2))


@pytest.mark.parametrize("name", ["s2.min", "s3.min", "s2xs3.min", "cp2.min"])
def test_validators_pass_on_good_models(name, data_path):
    lm = loop_model(load_model(data_path(name)))
    rep = validate_model(lm)
    assert rep.ok, rep.failures()
    em = equivariant_model(lm)
    rep = validate_model(em)
    assert rep.ok, rep.failures()


# The report heads shared by both broken objects below: the s2 loop
# model's generators and differential.
S2_LOOP_HEAD = "gen xb 1\ngen x 2\ngen yb 2\ngen y 3\n"


def _broken_rotation(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    # constants are homogeneous of degree 0, so this passes the degree
    # check but breaks square-zero: delta(delta(x)) = delta(xb) = 1
    broken_delta = Derivation(
        lm.algebra, -1, {"x": "xb", "y": "yb", "xb": "1"}, check=False
    )
    return SimpleNamespace(algebra=lm.algebra, d=lm.d, delta=broken_delta)


def _degree_violation(data_path):
    alg = loop_model(load_model(data_path("s2.min"))).algebra
    return SimpleNamespace(algebra=alg, d=Derivation(alg, 1, {"y": "x"}, check=False))


def test_validator_catches_broken_rotation(data_path):
    rep = validate_model(_broken_rotation(data_path))
    assert not rep.ok
    assert dict(rep.lines)["rotation squares to zero"] == "at x -> 1"


def test_gysin_report_rejects_a_broken_loop_model(data_path):
    # the generator checks run before any chain map is built, and the
    # first failure names its check and its generator
    em = equivariant_model(loop_model(load_model(data_path("s2.min"))))
    em.loop = _broken_rotation(data_path)
    with pytest.raises(ModelError) as err:
        gysin_report(em, 2)
    assert str(err.value) == "loop model: rotation squares to zero fails at x"


def test_validator_catches_degree_violation(data_path):
    rep = validate_model(_degree_violation(data_path))
    # degree failures stop the run before any square check
    assert rep.lines == [("differential respects degrees", "at y -> 4; [2]")]


@pytest.mark.parametrize("build, want", [
    (_broken_rotation,
     S2_LOOP_HEAD
     + "d yb = -2*xb*x\nd y = x^2\ndelta xb = 1\ndelta x = xb\ndelta y = yb\n"
     "check differential respects degrees: pass\n"
     "check rotation respects degrees: pass\n"
     "check d squares to zero: pass\n"
     "check rotation squares to zero: FAIL at x -> 1\n"
     "check d anticommutes with rotation: FAIL at yb -> -2*x\n"),
    (_degree_violation,
     S2_LOOP_HEAD
     + "d y = x\n"
     "check differential respects degrees: FAIL at y -> 4; [2]\n"),
])
def test_format_model_report_failures(data_path, build, want):
    # the CLI cannot print a model FAIL line (load_model checks d squared
    # first), so this pins the text of both witness shapes
    obj = build(data_path)
    assert format_model_report(obj, validate_model(obj)) == want


def test_format_model_report_layout(data_path):
    lm = loop_model(load_model(data_path("s2.min")))
    text = format_model_report(lm, validate_model(lm))
    lines = text.splitlines()
    assert lines[0] == "gen xb 1"
    assert "d yb = -2*xb*x" in lines
    assert "delta x = xb" in lines
    assert all(line.endswith("pass") for line in lines if line.startswith("check "))
