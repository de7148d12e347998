import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knee_mcdm import FrontSpec, generate, normalize, select_mmd
from knee_mcdm.svgplot import _XML_FORBIDDEN, _text, render_decision_svg

from helpers import make_front


@pytest.fixture(scope="module")
def convex_case():
    nf = normalize(generate(FrontSpec(family="convex2d", samples=30, seed=9)))
    return nf, select_mmd(nf)


def test_svg_is_deterministic(convex_case):
    _, decision = convex_case
    assert render_decision_svg(decision) == render_decision_svg(decision)


def test_svg_contains_expected_elements(convex_case):
    nf, decision = convex_case
    svg = render_decision_svg(decision)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == nf.base.m
    assert "<polygon " in svg  # the Manhattan ball
    assert "(winner)" in svg
    assert "f1 (normalized)" in svg and "f2 (normalized)" in svg
    assert f"method={decision.method}" in svg


def test_svg_concave_ball_radius_is_one():
    nf = normalize(generate(FrontSpec(family="concave2d", samples=20, seed=1)))
    decision = select_mmd(nf)
    svg = render_decision_svg(decision)
    assert "c_min=1" in svg
    assert svg.count('stroke="white"') == 2  # both endpoints highlighted


def test_svg_rejects_non_2d():
    nf = normalize(generate(FrontSpec(family="sphere3d", samples=10, seed=2)))
    with pytest.raises(ValueError):
        render_decision_svg(select_mmd(nf))


def test_svg_escapes_ids_and_names():
    nf = normalize(make_front(
        [[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]], ids=["R&D", "a<b", "c"], names=["cost&risk", "f<2>"]
    ))
    root = ET.fromstring(render_decision_svg(select_mmd(nf)))
    ns = "{http://www.w3.org/2000/svg}"
    titles = sorted(t.text for t in root.iter(f"{ns}title"))
    assert titles == ["R&D", "a<b (winner)", "c"]
    texts = [t.text for t in root.iter(f"{ns}text")]
    assert texts[:2] == ["cost&risk (normalized)", "f<2> (normalized)"]
    assert "winner={a<b}" in texts[2]


def test_svg_labels_a_max_axis_as_negated():
    nf = normalize(make_front([[0.0, -1.0], [1.0, -2.0]], names=["cost", "gain"],
                              senses=["min", "max"]))
    root = ET.fromstring(render_decision_svg(select_mmd(nf)))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[:2] == ["cost (normalized)", "gain (negated, normalized)"]


def test_svg_replaces_xml_forbidden_characters():
    nf = normalize(make_front(
        [[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]], ids=["x\x01", "y\x0b", "z"], names=["a\x1f", "b"]
    ))
    root = ET.fromstring(render_decision_svg(select_mmd(nf)))
    ns = "{http://www.w3.org/2000/svg}"
    titles = sorted(t.text for t in root.iter(f"{ns}title"))
    assert titles == ["x\ufffd", "y\ufffd (winner)", "z"]
    texts = [t.text for t in root.iter(f"{ns}text")]
    assert texts[0] == "a\ufffd (normalized)"
    assert "winner={y\ufffd}" in texts[2]


@given(st.text(st.one_of(st.sampled_from("&<>;#amplgt\x01\x0b\ud800\uffff"), st.characters())))
def test_text_escapes_as_saxutils(s):
    assert _text(s) == escape(_XML_FORBIDDEN.sub("\ufffd", s))
