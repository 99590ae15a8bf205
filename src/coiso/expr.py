"""Expression grammar and canonical JSON form for ScalarFn.

Grammar (whitespace-insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | 'i' | 'sin' '(' name ')' | 'cos' '(' name ')'
            | 'exp' '(' 'I' '*' int '*' name ')' | name ['^' int]
            | '(' expr ')'
    rational := int ['/' int]

Names must be chart coordinates; a bare torus coordinate is not a valid
factor (angles are not functions), only fiber coordinates may appear as
monomials.  Parentheses nest at most ``_Parser.MAX_DEPTH`` (100) deep, so a
deeper expression is an ExprError rather than a RecursionError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import GaussianRational
from .ring import Chart, ContentError, ScalarFn

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


class ExprError(ContentError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            # name the first character after the whitespace that _TOKEN skips
            bad = len(text) - len(text[pos:].lstrip())
            if bad < len(text):
                raise ExprError(f"unexpected character {text[bad]!r}", bad)
            break
        kind = m.lastgroup  # the one group of _TOKEN that matched
        val = m.group(kind)
        tokens.append((kind, int(val) if kind == "num" else val, m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    # parentheses nest at most this deep: each level is three Python frames
    MAX_DEPTH = 100

    def __init__(self, chart: Chart, text: str):
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)

    def parse(self) -> ScalarFn:
        f = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprError("trailing input", pos)
        return f

    def expr(self) -> ScalarFn:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        first = self.term().scale(sign)
        rest = []
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                rest.append(t if val == "+" else -t)
            else:
                return first.plus(rest)

    def term(self) -> ScalarFn:
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.factor()
            else:
                return out

    def _int(self) -> int:
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num":
            raise ExprError("expected integer", pos)
        return sign * val

    def factor(self) -> ScalarFn:
        chart = self.chart
        kind, val, pos = self.next()
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > self.MAX_DEPTH:
                raise ExprError(f"parentheses nested deeper than {self.MAX_DEPTH}", pos)
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        if kind == "num":
            num = val
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, den, pos3 = self.next()
                if kind3 != "num" or den == 0:
                    raise ExprError("expected nonzero denominator", pos3)
                return ScalarFn.const(chart, Fraction(num, den))
            return ScalarFn.const(chart, num)
        if kind == "name":
            if val in ("i", "I"):
                return ScalarFn.const(chart, GaussianRational(0, 1))
            if val in ("sin", "cos"):
                self.expect("(")
                kind2, cname, pos2 = self.next()
                if kind2 != "name" or cname not in chart.torus:
                    raise ExprError("expected torus coordinate", pos2)
                self.expect(")")
                make = ScalarFn.sin_phi if val == "sin" else ScalarFn.cos_phi
                return make(chart, cname)
            if val == "exp":
                self.expect("(")
                kind2, iname, pos2 = self.next()
                if kind2 != "name" or iname not in ("i", "I"):
                    raise ExprError("expected I", pos2)
                self.expect("*")
                n = self._int()
                self.expect("*")
                kind3, cname, pos3 = self.next()
                if kind3 != "name" or cname not in chart.torus:
                    raise ExprError("expected torus coordinate", pos3)
                self.expect(")")
                return ScalarFn.exp_phi(chart, cname, n)
            if val in chart.fiber:
                p = 1
                kind2, val2, _ = self.peek()
                if kind2 == "op" and val2 == "^":
                    self.next()
                    p = self._int()
                    if p < 0:
                        raise ExprError("negative fiber exponent", pos)
                return ScalarFn.y(chart, val, p)
            if val in chart.torus:
                raise ExprError(
                    f"torus coordinate {val!r} is not a function; use sin/cos/exp", pos
                )
            raise ExprError(f"unknown name {val!r}", pos)
        raise ExprError("unexpected token", pos)


def parse_scalar(chart: Chart, text: str) -> ScalarFn:
    return _Parser(chart, str(text)).parse()


# ---------------------------------------------------------------------------
# canonical JSON form
# ---------------------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def scalar_to_json(f: ScalarFn) -> list:
    """Canonical JSON: term list sorted lexicographically by exponents."""
    k = f.chart.k
    out = []
    for e, c in f.sorted_terms():
        out.append(
            {
                "torus": list(e[:k]),
                "fiber": list(e[k:]),
                "re": _frac_str(c.re),
                "im": _frac_str(c.im),
            }
        )
    return out


def scalar_to_text(f: ScalarFn) -> str:
    """Readable rendering in the scenario grammar (sin/cos collected when
    a +/- frequency pair is recognized, exp otherwise) of a nonzero
    function: the callers render the nonzero coefficients of a term table."""
    chart = f.chart
    k = chart.k
    done = set()
    bits = []
    for e, c in f.sorted_terms():
        if e in done:
            continue
        n = e[:k]
        mirror = tuple(-v for v in n) + e[k:]
        single = sum(1 for v in n if v != 0) == 1
        if single and mirror in f.terms and mirror != e:
            j = next(j for j, v in enumerate(n) if v != 0)
            v = n[j]
            pos_key, neg_key = (e, mirror) if v > 0 else (mirror, e)
            a = f.terms[pos_key]
            b = f.terms[neg_key]
            freq = abs(v)
            name = chart.torus[j]
            if freq == 1:
                # a E(+1) + b E(-1) = cos_c cos + sin_c sin with
                # cos_c = a + b and sin_c = i (a - b), exactly
                cos_c = a + b
                sin_c = (a - b) * GaussianRational(0, 1)
                done.add(e)
                done.add(mirror)
                for coeff, fn in ((cos_c, f"cos({name})"), (sin_c, f"sin({name})")):
                    if not coeff.is_zero():
                        bits.append(_term_text(chart, coeff, (0,) * k + e[k:], fn))
                continue
        done.add(e)
        bits.append(_term_text(chart, c, e, None))
    text = " + ".join(bits)
    return text.replace("+ -", "- ")


def _term_text(chart, c: GaussianRational, e, trig: str | None) -> str:
    parts = []
    if c == GaussianRational(1):
        pass
    elif c == GaussianRational(-1):
        parts.append("-1")
    else:
        s = str(c)
        parts.append(f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s)
    for name, v in zip(chart.torus, e):
        if v:
            parts.append(f"exp(I*{v}*{name})")
    if trig:
        parts.append(trig)
    for name, v in zip(chart.fiber, e[chart.k :]):
        if v:
            parts.append(name if v == 1 else f"{name}^{v}")
    if not parts:
        return "1"
    return "*".join(parts)
