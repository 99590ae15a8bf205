"""One way to make a container: every kernel builds its result from terms
it has already made canonical, and the public constructors keep every
check for outside input.

The oracle rebuilds each kernel's result through the public constructor,
which sorts keys with their sign, drops zeros and rejects keys out of
range, coefficients on another chart and leaf-form coefficients that are
not base-only: the rebuild must be the same container.  The spy runs
benchmark jobs and fails if any kernel reaches SkewTerms.__init__."""

import contextlib
import io
import json
import random
import sys

import pytest

from coiso import cli
from coiso.geom import Form, fiberwise_linear_jacobi, injection_I, projection_P
from coiso.graded import (
    DXI,
    DXIS,
    XI,
    XIS,
    ContractionTwo,
    GradedElement,
    decode,
    ghost_section,
    tautological_G,
    to_graded,
)
from coiso.leafform import LeafForm
from coiso.multider import MultiDerivation
from coiso.multivector import MultiVectorField, SkewTerms
from coiso.ring import ContentError, ScalarFn
from coiso.scenario import load_scenario

from helpers import jet_chart, random_base_scalar, random_mvf, random_multider, random_scalar
from test_linfty import WORKLOADS, _section_data


def _structures():
    yield pytest.param(load_scenario("torus-obstructed").jacobi(), id="torus-obstructed")
    yield pytest.param(load_scenario("legendrian-jet").jacobi(), id="legendrian-jet")
    yield pytest.param(fiberwise_linear_jacobi(jet_chart(3)), id="jet-T3")


def _rebuilt(x):
    """x through its public constructor."""
    if isinstance(x, SkewTerms):
        return type(x)(x.chart, x.degree, dict(x.terms))
    return GradedElement(x.chart, {decode(w): f for w, f in x.terms.items()})


def _assert_canonical(x):
    """x is its own rebuild: same type, shape and term table; no value is
    zero, and a leaf form's values are base-only."""
    rebuilt = _rebuilt(x)
    assert type(rebuilt) is type(x) and rebuilt._shape() == x._shape()
    assert rebuilt.terms == x.terms
    assert not any(f.is_zero() for f in x.terms.values())
    if isinstance(x, LeafForm):
        assert all(f.is_base_only() for f in x.terms.values())


def _leaf_form(chart, rng, degree):
    keys = [tuple(sorted(rng.sample(range(chart.m), degree))) for _ in range(2)]
    return LeafForm(chart, degree, {k: random_base_scalar(chart, rng) for k in keys})


def _form(chart, rng, degree):
    keys = [tuple(rng.sample(range(chart.dim), degree)) for _ in range(2)]
    return Form(chart, degree, {k: random_scalar(chart, rng) for k in keys})


def _kernel_results(J, rng):
    """(kernel name, result) over seeded operands on the chart of J."""
    chart = J.chart
    f = random_scalar(chart, rng)
    fn = MultiVectorField.function(f)
    P, Q = random_mvf(chart, rng, 2), random_mvf(chart, rng, 1)
    A, B = random_multider(chart, rng, 2), random_multider(chart, rng, 1)
    s = _leaf_form(chart, rng, 1)
    for p, q in ((P, Q), (Q, P), (P, P), (fn, P), (P, fn), (fn, fn)):
        yield "wedge", p.wedge(q)
        yield "gerstenhaber", p.gerstenhaber(q)
    for a, b in ((A, B), (B, A), (A, A), (B, B), (J, J), (J, injection_I(s)), (A, J)):
        yield "wedge", a.wedge(b)
        yield "gerstenhaber", a.gerstenhaber(b)
        yield "sj_bracket", a.sj_bracket(b)
    for a in (A, B, J):
        yield "_contract_id", a._contract_id()
        yield "p_part", a.p_part
        yield "q_part", a.q_part
        yield "projection_P", projection_P(a)
        yield "projection_P", projection_P(a.sj_bracket(injection_I(s)))
        for g in (f, ScalarFn.zero(chart)):  # the degree-0 field that apply inserts
            yield "_insert", a._insert(g)
            yield "_insert", a.p_part._insert(g)
    for degree in range(min(chart.m, 2) + 1):
        w = _leaf_form(chart, rng, degree)
        yield "injection_I", injection_I(w)
        yield "wedge", w.wedge(s)
        if len(chart.leaf) == chart.m:
            yield "d_leaf", w.d_leaf()
            if degree:
                yield "homotopy_K", w.homotopy_K()
    for degree in range(3):
        yield "Form.d", _form(chart, rng, degree).d()
        yield "wedge", _form(chart, rng, degree).wedge(_form(chart, rng, 1))
    comps = [random_base_scalar(chart, rng) for _ in range(chart.m)]
    c2 = ContractionTwo(LeafForm.section(chart, comps))
    words = [((XI, 0),), ((XI, 1), (XI, 0)), ((XI, 1), (XIS, 0))]  # wp kills the antighost word
    lam = GradedElement(chart, {w: random_scalar(chart, rng) for w in words})
    yield "ContractionTwo.wp", c2.wp(lam)
    yield "ContractionTwo.wp", c2.wp(c2.omega_E())
    yield "tautological_G", tautological_G(chart)
    yield "ghost_section", ghost_section(chart, comps)
    yield "ghost_section", c2.omega_E()
    yield "to_graded", to_graded(J)


@pytest.mark.parametrize("J", _structures())
def test_kernel_results_are_their_rebuilds(J):
    rng = random.Random(f"construction/{J.chart.coords}")
    live = {}
    for _ in range(2):
        for name, x in _kernel_results(J, rng):
            _assert_canonical(x)
            live[name] = live.get(name, 0) + bool(x.terms)
    # every kernel was seen with a nonzero result
    assert all(live.values()), sorted(k for k, n in live.items() if not n)


@pytest.mark.parametrize("J", _structures())
def test_ghost_builders_match_the_tuple_letter_construction(J):
    """ghost_section, omega_E and tautological_G equal the public
    constructor on tuple letters that they replace; a zero component of a
    ghost section has no term."""
    chart, rng = J.chart, random.Random(7)
    comps = [ScalarFn.zero(chart) if A % 2 else random_base_scalar(chart, rng) for A in range(chart.m)]
    built = ghost_section(chart, comps)
    assert built == GradedElement(chart, {((XI, A),): g for A, g in enumerate(comps)})
    assert sorted(decode(w) for w in built.terms) == [((XI, A),) for A in range(0, chart.m, 2)]
    omega = ContractionTwo(LeafForm.section(chart, comps)).omega_E()
    ys = [ScalarFn.y(chart, y) for y in chart.fiber]
    assert omega == GradedElement(chart, {((XI, A),): ys[A] - g for A, g in enumerate(comps)})
    one = ScalarFn.one(chart)
    G = GradedElement(chart, {((DXI, A), (DXIS, A)): one for A in range(chart.m)})
    assert tautological_G(chart) == G


def test_wedge_of_containers_of_two_types_raises():
    """wedge builds its result unchecked, so it refuses an operand of
    another type, whose keys index another range: the id index of a
    multi-derivation, or the fiber indices of a leaf form."""
    J = load_scenario("torus-obstructed").jacobi()
    chart = J.chart
    s = LeafForm.section(chart, [ScalarFn.one(chart)] * chart.m)
    with pytest.raises(ContentError, match="MultiVectorField wedge with a MultiDerivation"):
        J.p_part.wedge(J)
    with pytest.raises(ContentError, match="MultiDerivation wedge with a LeafForm"):
        J.wedge(s)
    with pytest.raises(ContentError, match="LeafForm wedge with a MultiVectorField"):
        s.wedge(J.q_part)


_KERNELS = {
    fn.__code__
    for fn in (
        SkewTerms.wedge,
        SkewTerms._exterior_d,
        Form.d,
        LeafForm.d_leaf,
        LeafForm.homotopy_K,
        MultiVectorField.apply,
        MultiVectorField._insert,
        MultiVectorField.gerstenhaber,
        MultiDerivation._insert,
        MultiDerivation.sj_bracket,
        MultiDerivation._contract_id,
        MultiDerivation.p_part.fget,
        MultiDerivation.q_part.fget,
        injection_I,
        projection_P,
    )
}


def _kernels_on_stack(frame):
    while frame is not None:
        if frame.f_code in _KERNELS:
            yield frame.f_code.co_name
        frame = frame.f_back


def test_no_kernel_reaches_the_validating_constructor(tmp_path, monkeypatch):
    """A linfty-sections job (a prolonging section, every task) and a
    jet-rank job (T^2, every task), as the benchmark builds them: no
    SkewTerms.__init__ runs with a kernel on the stack, and the kernels
    build their results through SkewTerms._raw."""
    init, raw = SkewTerms.__init__, SkewTerms._raw.__func__
    reached, built = [], set()

    def spy_init(self, *args, **kwargs):
        reached.extend(_kernels_on_stack(sys._getframe(1)))
        init(self, *args, **kwargs)

    def spy_raw(cls, *args):
        built.update(_kernels_on_stack(sys._getframe(1)))
        return raw(cls, *args)

    monkeypatch.setattr(SkewTerms, "__init__", spy_init)
    monkeypatch.setattr(SkewTerms, "_raw", classmethod(spy_raw))
    section, jet = tmp_path / "section.json", tmp_path / "jet.json"
    section.write_text(json.dumps(_section_data(WORKLOADS.PROLONGED, 0)), encoding="utf-8")
    jet.write_text(json.dumps(WORKLOADS.jet_scenario(2, random.Random("jet-rank/0"))), encoding="utf-8")
    for path, tasks in ((section, WORKLOADS.SECTION_TASKS), (jet, WORKLOADS.JET_TASKS)):
        argv = ["--scenario", str(path)] + [a for t in tasks for a in ("--task", t)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert reached == []
    # every kernel, Form.d too: the contact construction takes dtheta; but
    # no standalone wedge: the brackets and the contact construction sum
    # their wedge products into their one sum_of_products call
    assert built == {code.co_name for code in _KERNELS} - {"wedge"}
