"""Long exact sequence report: exactness, parity pattern, factorizations."""

import contextlib
import io
import os
import random
import tempfile
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR

from loopspace import models
from loopspace.cli import main
from loopspace.gca import Derivation, GradedElement
from loopspace.homology import CochainComplex, verify_chain_map
from loopspace.linalg import SpanTracker
from loopspace.models import (equivariant_model, gysin_maps, gysin_report, load_model,
                              loop_model, parse_model)

from reference import generator_images_map, reference_verify_chain_map


def _report(data_path, name, cutoff):
    return gysin_report(loop_model(load_model(data_path(name))), cutoff)


def test_sphere_low_degrees_hand_oracle(data_path):
    # one class per degree on both sides; the even-degree loop classes come
    # from the bottom of the tower (connecting map hits them), the odd ones
    # restrict from the equivariant side
    rep = _report(data_path, "s2.min", 4)
    want = [
        (0, 1, 1, 0, 1, 0, True),
        (1, 1, 1, 0, 1, 0, True),
        (2, 1, 1, 1, 0, 1, True),
        (3, 1, 1, 0, 1, 0, True),
        (4, 1, 1, 1, 0, 1, True),
    ]
    assert rep.rows == want
    assert rep.ok


def test_sphere_parity_pattern(data_path):
    rep = _report(data_path, "s2.min", 12)
    for i, h_s, h_l, rank_u, rank_restr, rank_conn, exact in rep.rows:
        assert exact
        assert h_s == 1 and h_l == 1
        if i == 0:
            assert rank_restr == 1 and rank_conn == 0
        elif i % 2 == 0:
            assert rank_restr == 0 and rank_conn == 1 and rank_u == 1
        else:
            assert rank_restr == 1 and rank_conn == 0 and rank_u == 0
    assert all(rep.factor_rotation)
    assert all(rep.factor_zero)


@pytest.mark.parametrize("name,cutoff", [("s2xs3.min", 8), ("cp2.min", 8), ("s3.min", 8)])
def test_exactness_other_models(name, cutoff, data_path):
    rep = _report(data_path, name, cutoff)
    assert rep.ok, "".join(rep.pieces())


def test_rank_identities_row_by_row(data_path):
    # exactness at each junction: what flows in plus what flows out
    # accounts for the whole group
    rep = _report(data_path, "s2xs3.min", 8)
    for i, h_s, h_l, rank_u, rank_restr, rank_conn, exact in rep.rows:
        assert rank_u + rank_restr == h_s
        assert rank_restr + rank_conn == h_l
        if 1 <= i < rep.cutoff:
            # at H^{i-1}(string): the image of conn is the kernel of u,
            # whose rank is row i+1's rank_u
            assert rank_conn + rep.rows[i + 1][3] == rep.rows[i - 1][1]
        assert exact


def test_report_text_layout(data_path):
    rep = _report(data_path, "s2.min", 3)
    text = "".join(rep.pieces())
    assert text == "".join(rep.pieces())  # rendering is pure
    lines = text.splitlines()
    assert lines[6] == "# degree\thString\thLoop\trank_u\trank_restr\trank_conn\texact"
    assert lines[7] == "0\t1\t1\t0\t1\t0\ttrue"
    assert lines[-1].startswith("# factorization: connecting after restriction")
    assert lines[-1].endswith("pass")
    assert lines[-2].endswith("pass")


def test_broken_chain_map_is_detected(data_path):
    em = equivariant_model(loop_model(load_model(data_path("s2.min"))))
    lm = loop_model(load_model(data_path("s2.min")))
    # forgetting that y restricts to y breaks the chain condition:
    # d(f(y)) = 0 but f(d y) = x^2 + 0
    f = generator_images_map(em.complex, lm.complex, {"u": 0, "y": 0})
    degree, mono, lhs, rhs = verify_chain_map(f, 6)
    assert (degree, mono, em.algebra.monomial_str(mono)) == (3, ((4, 1),), "y")
    assert lhs.algebra == rhs.algebra == lm.algebra
    assert (str(lhs), str(rhs)) == ("0", "x^2")


U = "multiplication by the degree-2 class"


@pytest.mark.parametrize("outer, inner", [
    (("restriction", 4), U),
    ((U, 3), "connecting map"),
    (("connecting map", 4), "restriction"),
])
def test_nonzero_composite_breaks_exactness(outer, inner, data_path, monkeypatch):
    # the rank counts alone cannot see a composite that fails to vanish:
    # force one of the three composites through row 4 of the sphere to be
    # nonzero (every space involved is one-dimensional there)
    made = {}
    real_induced, real_after = models.induced_map, models._after

    def induced(f, n):
        rep = real_induced(f, n)
        made[id(rep)] = (f.name, n)
        return rep

    def after(o, i):
        prod = real_after(o, i)
        if (made[id(o)], made[id(i)][0]) == (outer, inner):
            prod[0][0] = prod[0].get(0, 0) + 1
        return prod

    monkeypatch.setattr(models, "induced_map", induced)
    monkeypatch.setattr(models, "_after", after)
    rep = _report(data_path, "s2.min", 6)
    assert [r[6] for r in rep.rows] == [True] * 4 + [False] + [True] * 2
    assert rep.rows[4][:6] == (4, 1, 1, 1, 0, 1)
    assert not rep.ok
    assert "4\t1\t1\t1\t0\t1\tfalse\n" in "".join(rep.pieces())


# the top source degree of each map that the report's induced maps read,
# relative to the cutoff
TOPS = {"restriction": 1, U: -1, "connecting map": 0, "rotation": 0}


def _oracle_models():
    """{label: model text}: the four fixtures, and the benchmark's models
    as bench/gen.py rescales them with seeds 1 and 2.  gen.py is run from
    its source, so no bytecode is written beside it."""
    texts = {}
    for name in ("s2", "s3", "s2xs3", "cp2"):
        with open(os.path.join(DATA_DIR, f"{name}.min"), encoding="utf-8") as fh:
            texts[name] = fh.read()
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "gen.py")
    gen = types.ModuleType("bench_gen")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), gen.__dict__)
    for name in gen.MODELS:
        for seed in (1, 2):
            texts[f"bench {name} seed {seed}"] = gen.model_text(name, random.Random(seed))
    return texts


ORACLE_MODELS = _oracle_models()


@pytest.mark.parametrize("label", list(ORACLE_MODELS))
def test_gysin_maps_are_chain_maps_through_their_top_degree(label):
    # gysin_report proves the four maps chain maps and checks none of
    # them; the per-monomial reference check holds them to it through the
    # top degree the report reads at cutoff 8
    maps = gysin_maps(loop_model(parse_model(ORACLE_MODELS[label])))
    assert [f.name for f in maps] == list(TOPS)
    for f in maps:
        assert reference_verify_chain_map(f, 8 + TOPS[f.name]) is None, f.name


def _perturbed(f, top):
    """f perturbed on one monomial of degree top that no boundary of the
    degree below reaches, by a target term that is no cocycle; returns the
    map and that monomial."""
    reached = {i for i, _ in f.src.slice(top - 1).entries}
    mono = next(m for k, m in enumerate(f.src.algebra.basis(top)) if k not in reached)
    t = top + f.degree
    j = min(j for _, j in f.tgt.slice(t).entries)
    extra = f.tgt.algebra.basis(t)[j]

    def image(m):
        img = dict(f.image(m))
        if m == mono:
            img[extra] = img.get(extra, 0) + 1
        return img

    return f._replace(image=image), mono


@pytest.mark.parametrize("name", list(TOPS))
def test_each_map_is_verified_through_its_top_degree(name, data_path):
    # only the chain condition at the top degree itself can see the
    # perturbation, and the reference check finds it there
    top = 6 + TOPS[name]
    loop = loop_model(load_model(data_path("s2.min")))
    f, mono = _perturbed(next(g for g in gysin_maps(loop) if g.name == name), top)
    assert reference_verify_chain_map(f, top - 1) is None
    assert reference_verify_chain_map(f, top)[:2] == (top, mono)


def test_gysin_reads_cached_slices_and_solvers(data_path, monkeypatch):
    # the chain maps are checked on generators only, so the derivation
    # images come from the differential slices, the validators and the
    # induced maps, and each (complex, degree) is eliminated once; the
    # per-monomial check made 4098 image calls here, the check through
    # cutoff + 2 made 1485 and the one through the degrees the induced maps
    # read 1091, 810 with the generator checks, 792 once the string model
    # was only compared with d + u*delta on generators, and 774 since the
    # report builds the string model itself and compares nothing; a solver
    # beside each elimination made the SpanTracker count 176
    calls = {"image": 0, "tracker": 0}
    image, init = Derivation.image, SpanTracker.__init__

    def counted_image(self, mono):
        calls["image"] += 1
        return image(self, mono)

    def counted_init(self, dim):
        calls["tracker"] += 1
        init(self, dim)

    monkeypatch.setattr(Derivation, "image", counted_image)
    monkeypatch.setattr(SpanTracker, "__init__", counted_init)
    rep = _report(data_path, "s2.min", 16)
    assert rep.ok
    assert calls["image"] == 774, calls
    assert calls["tracker"] <= 150, calls


@pytest.mark.parametrize("name, cutoff", [("s2.min", 16), ("s2xs3.min", 8)])
def test_gysin_builds_no_slice_above_cutoff_plus_one(name, cutoff, data_path, monkeypatch,
                                                     built_gysin_maps):
    # the induced maps read cohomology through cutoff + 1, so neither
    # complex needs a differential slice past that degree
    asked = {}
    real = CochainComplex.slice

    def recorded(self, n):
        asked[id(self)] = max(asked.get(id(self), n), n)
        return real(self, n)

    monkeypatch.setattr(CochainComplex, "slice", recorded)
    assert gysin_report(loop_model(load_model(data_path(name))), cutoff).ok
    (restr, *_), = built_gysin_maps
    assert asked.keys() == {id(restr.src), id(restr.tgt)}
    assert max(asked.values()) == cutoff + 1, asked


def _scaled_text(path, lam):
    """The model file with each generator g replaced by lam[g] * g: then
    d(lam_g g) = lam_g * d(g), with each factor h of d(g) written as
    (lam_h h) / lam_h."""
    model = load_model(path)
    alg = model.algebra
    lines = [f"gen {n} {deg}" for n, deg in zip(alg.names, alg.degrees)]
    for g in alg.names:
        terms = {}
        for mono, c in model.d(alg.gen(g)).terms.items():
            for h, e in mono:
                c /= lam[alg.names[h]] ** e
            terms[mono] = c * lam[g]
        if terms:
            lines.append(f"d {g} = {GradedElement(alg, terms)}")
    return "".join(line + "\n" for line in lines)


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


_FACTOR = st.builds(lambda s, p, q: Fraction(s * p, q), st.sampled_from((-1, 1)),
                    st.integers(1, 9), st.integers(1, 9))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["s2.min", "s3.min", "cp2.min", "s2xs3.min"]), data=st.data())
def test_rescaled_generators_give_the_same_reports(name, data):
    # rescaling generators is an isomorphism of models, so the reports of
    # the rational models the benchmark generates must equal the integer
    # fixtures' byte for byte
    path = os.path.join(DATA_DIR, name)
    names = load_model(path).algebra.names
    lam = {n: data.draw(_FACTOR, label=n) for n in names}
    with tempfile.TemporaryDirectory() as tmp:
        scaled = os.path.join(tmp, name)
        with open(scaled, "w", encoding="utf-8") as fh:
            fh.write(_scaled_text(path, lam))
        for argv in (["gysin", "--cutoff", "8"],
                     ["betti", "--space", "string", "--cutoff", "10"]):
            want = _stdout(argv + ["--model", path])
            assert _stdout(argv + ["--model", scaled]) == want
