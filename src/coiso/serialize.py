"""Canonical serialization of the library's values.

JSON output is byte-stable: term lists are sorted by exponent keys, word
lists by a fixed symbol order, and every dict is emitted with sorted keys.
"""

from __future__ import annotations

from .ring import Chart
from .expr import scalar_to_json, scalar_to_text
from .multivector import SkewTerms
from .multider import MultiDerivation
from .leafform import LeafForm
from .graded import DX, DXI, DXIS, M, XI, XIS, GradedElement, decode


def mvf_to_json(v: SkewTerms) -> list:
    """The terms of a MultiVectorField or a LeafForm, by sorted index key."""
    return [
        {"idx": list(key), "coef": scalar_to_json(v.terms[key])}
        for key in sorted(v.terms)
    ]


def multider_to_json(sq: MultiDerivation) -> dict:
    return {
        "arity": sq.degree,
        "p": mvf_to_json(sq.p_part),
        "q": mvf_to_json(sq.q_part),
    }


def leafform_to_json(w: LeafForm) -> dict:
    return {"degree": w.degree, "terms": mvf_to_json(w)}


def leafform_to_text(w: LeafForm) -> str:
    if w.is_zero():
        return "0"
    chart = w.chart
    labels = (
        [f"d{c}" for c in chart.leaf]
        if len(chart.leaf) == chart.m
        else [f"delta_{c}" for c in chart.fiber]
    )
    bits = []
    for key in sorted(w.terms):
        word = "^".join(labels[a] for a in key) or "1"
        bits.append(f"({scalar_to_text(w.terms[key])}) {word}")
    return " + ".join(bits)


def section_to_json(s: LeafForm) -> list:
    """The components of a normal section, one per fiber coordinate."""
    return [scalar_to_json(f) for f in s.components()]


def _symbol_to_json(chart: Chart, letter) -> str:
    """The report name of a symbol letter: m, dx, dxi or dxis (the callers
    pass no other kind)."""
    kind = letter[0]
    if kind == M:
        return "ID"
    if kind == DX:
        i = letter[1]
        if i < chart.k:
            return f"D_PH({i})"
        return f"D_Y({i - chart.k})"
    if kind == DXI:
        return f"D_XI({letter[1]})"
    return f"D_XISTAR({letter[1]})"


def graded_to_json(x: GradedElement) -> list:
    chart = x.chart
    out = []
    for letters, coef in _report_order(x):
        ghosts = [l[1] for l in letters if l[0] == XI]
        antighosts = [l[1] for l in letters if l[0] == XIS]
        word = [
            _symbol_to_json(chart, l) for l in letters if l[0] in (M, DX, DXI, DXIS)
        ]
        out.append(
            {
                "ghost": ghosts,
                "antighost": antighosts,
                "word": word,
                "coef": scalar_to_json(coef),
            }
        )
    return out


# report order: letters by kind name (dx < dxi < dxis < m < xi < xis), then
# by their indices as strings
_KIND_NAMES = {DX: "dx", DXI: "dxi", DXIS: "dxis", M: "m", XI: "xi", XIS: "xis"}


def _report_order(x: GradedElement):
    """(tuple letters, coefficient) of each term, in report order."""
    terms = [(decode(word), f) for word, f in x.terms.items()]
    return sorted(terms, key=lambda t: [(_KIND_NAMES[l[0]], *map(str, l[1:])) for l in t[0]])


def graded_to_text(x: GradedElement) -> str:
    if x.is_zero():
        return "0"
    chart = x.chart
    bits = []
    for letters, coef in _report_order(x):
        word = []
        for l in letters:
            if l[0] == XI:
                word.append(f"xi^{l[1] + 1}")
            elif l[0] == XIS:
                word.append(f"xis_{l[1] + 1}")
            else:
                word.append(_symbol_to_json(chart, l))
        bits.append(f"({scalar_to_text(coef)}) " + (".".join(word) or "1"))
    return " + ".join(bits)
