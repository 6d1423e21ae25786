"""Long exact sequence report: exactness, parity pattern, factorizations."""

import pytest

from loopspace import models
from loopspace.homology import verify_chain_map
from loopspace.models import equivariant_model, gysin_report, load_model, loop_model

from reference import generator_images_map


def _report(data_path, name, cutoff):
    em = equivariant_model(loop_model(load_model(data_path(name))))
    return gysin_report(em, cutoff)


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
    assert rep.ok, rep.text()


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
    text = rep.text()
    assert text == rep.text()  # rendering is pure
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
            prod[0][0] += 1
        return prod

    monkeypatch.setattr(models, "induced_map", induced)
    monkeypatch.setattr(models, "_after", after)
    rep = _report(data_path, "s2.min", 6)
    assert [r[6] for r in rep.rows] == [True] * 4 + [False] + [True] * 2
    assert rep.rows[4][:6] == (4, 1, 1, 1, 0, 1)
    assert not rep.ok
    assert "4\t1\t1\t1\t0\t1\tfalse\n" in rep.text()
