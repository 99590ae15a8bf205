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
deeper expression is a ContentError rather than a RecursionError.

One regex pass cuts the whole text into tokens, each with the whitespace
before it, so the position an error names is the length of the tokens
before it.  A character that starts no token is a token of its own, which
no rule accepts; an error names the first such character, if there is one,
instead of its own message.  The parser builds each expression's term
table directly.  A term folds every factor of one term (a rational, i,
exp(I*n*ph), y^p, a parenthesized expression with one term) into one
running coefficient, the integer triple (a, b, d) of (a + b i)/d reduced
once at the end (see rational), and one exponent vector.  Only sin, cos
and parenthesized expressions with several terms are multiplied, through
ring.sum_of_products.  The terms are summed into one table with
accumulate, made into one ScalarFn unchecked.
"""

from __future__ import annotations

import re

from .rational import GaussianRational, _reduced
from .ring import Chart, ContentError, ScalarFn, _scalar, accumulate, sum_of_products

# (whitespace, number, name, operator, any other character)
_TOKEN = re.compile(r"(\s*)(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S))")


def _tokenize(text: str) -> list:
    """The tokens of text in one regex pass, then the end token (all
    groups empty)."""
    return _TOKEN.findall(text) + [("",) * 5]


def _position(text: str, tokens: list, i: int) -> int:
    """Where token i starts, the whitespace before it included: the length
    of the tokens before it; the end token sits at the length of the text."""
    if i == len(tokens) - 1:
        return len(text)
    return sum(len(part) for token in tokens[:i] for part in token)


class _Parser:
    # parentheses nest at most this deep: each level is two Python frames
    MAX_DEPTH = 100

    def __init__(self, chart: Chart, text: str):
        self.chart, self.text, self.tokens = chart, text, _tokenize(text)

    def error(self, message: str, i: int) -> ContentError:
        """The error at token i, or at the first character that starts no token."""
        tokens = self.tokens
        for j, (space, _, _, _, bad) in enumerate(tokens):
            if bad:
                pos = _position(self.text, tokens, j) + len(space)
                return ContentError(f"unexpected character {bad!r} (at position {pos})")
        return ContentError(f"{message} (at position {_position(self.text, tokens, i)})")

    def expect(self, i: int, op: str) -> int:
        if self.tokens[i][3] != op:
            raise self.error(f"expected {op!r}", i)
        return i + 1

    def number(self, i: int, message: str) -> int:
        """The integer literal at token i, or the error message if none; a
        literal past the interpreter's limit on int digits is an error too."""
        num = self.tokens[i][1]
        if not num:
            raise self.error(message, i)
        try:
            return int(num)
        except ValueError:
            raise self.error("integer literal too long", i) from None

    def integer(self, i: int):
        """(the integer at token i, with an optional '-', the next token)."""
        negative = self.tokens[i][3] == "-"
        n = self.number(i + negative, "expected integer")
        return (-n if negative else n), i + negative + 1

    def expr(self, i: int, depth: int):
        """(the term table of the expression at token i, the token after it)."""
        tokens, table = self.tokens, {}
        op = tokens[i][3]
        while True:
            sign = -1 if op == "-" else 1
            if op == "+" or op == "-":
                i += 1
            pairs, i = self.term(i, sign, depth)
            accumulate(table, pairs)
            op = tokens[i][3]
            if op != "+" and op != "-":
                return table, i

    def term(self, i: int, sign: int, depth: int):
        """(the (key, coefficient) pairs of sign times the term at token i,
        the token after it)."""
        chart, tokens = self.chart, self.tokens
        torus, fiber = chart.torus, chart.fiber
        a, b, d = sign, 0, 1  # the one-term factors: (a + b i)/d ...
        e = [0] * chart.dim  # ... times the basis monomial of e
        several = []  # the factors of several terms, in order
        while True:
            _, num, name, op, _ = tokens[i]
            if num:
                n, i = self.number(i, "expected integer"), i + 1
                if tokens[i][3] == "/":
                    den = self.number(i + 1, "expected nonzero denominator")
                    if not den:
                        raise self.error("expected nonzero denominator", i + 1)
                    d *= den
                    i += 2
                a, b = a * n, b * n
            elif name == "i" or name == "I":
                a, b = -b, a
                i += 1
            elif name == "sin" or name == "cos":
                i = self.expect(i + 1, "(")
                cname = tokens[i][2]
                if not cname or cname not in torus:
                    raise self.error("expected torus coordinate", i)
                i = self.expect(i + 1, ")")
                several.append((ScalarFn.sin_phi if name == "sin" else ScalarFn.cos_phi)(chart, cname))
            elif name == "exp":
                i = self.expect(i + 1, "(")
                if tokens[i][2] not in ("i", "I"):
                    raise self.error("expected I", i)
                n, i = self.integer(self.expect(i + 1, "*"))
                i = self.expect(i, "*")
                cname = tokens[i][2]
                if not cname or cname not in torus:
                    raise self.error("expected torus coordinate", i)
                i = self.expect(i + 1, ")")
                e[torus.index(cname)] += n
            elif name and name in fiber:
                p, j = 1, i + 1
                if tokens[j][3] == "^":
                    p, j = self.integer(j + 1)
                    if p < 0:
                        raise self.error("negative fiber exponent", i)
                e[chart.k + fiber.index(name)] += p
                i = j
            elif name and name in torus:
                raise self.error(f"torus coordinate {name!r} is not a function; use sin/cos/exp", i)
            elif name:
                raise self.error(f"unknown name {name!r}", i)
            elif op == "(":
                if depth == self.MAX_DEPTH:
                    raise self.error(f"parentheses nested deeper than {self.MAX_DEPTH}", i)
                table, i = self.expr(i + 1, depth + 1)
                i = self.expect(i, ")")
                if len(table) == 1:
                    (key, c), = table.items()
                    a, b, d = a * c._a - b * c._b, a * c._b + b * c._a, d * c._d
                    e = [x + y for x, y in zip(e, key)]
                elif table:
                    several.append(_scalar(chart, table))
                else:
                    a = b = 0
            else:
                raise self.error("unexpected token", i)
            if tokens[i][3] != "*":
                break
            i += 1
        if not (a or b):
            return (), i
        if not several:
            return ((tuple(e), _reduced(a, b, d)),), i
        bare_sign = not b and d == 1 and a in (1, -1) and not any(e)
        if not bare_sign:
            several.insert(0, _scalar(chart, {tuple(e): _reduced(a, b, d)}))
        f = several[0]
        for g in several[1:]:  # nonzero: the ring has no zero divisors
            f = sum_of_products(chart, (((), f, g, False),))[()]
        if bare_sign and a == -1:
            return ((k, -c) for k, c in f.terms.items()), i
        return f.terms.items(), i


def parse_scalar(chart: Chart, text: str) -> ScalarFn:
    parser = _Parser(chart, str(text))
    table, i = parser.expr(0, 0)
    if i != len(parser.tokens) - 1:
        raise parser.error("trailing input", i)
    return _scalar(chart, table)


# ---------------------------------------------------------------------------
# canonical JSON form
# ---------------------------------------------------------------------------


def scalar_to_json(f: ScalarFn) -> list:
    """Canonical JSON: term list sorted lexicographically by exponents."""
    k = f.chart.k
    out = []
    for e, c in f.sorted_terms():
        p, q, r, s = c.parts()
        out.append({"torus": list(e[:k]), "fiber": list(e[k:]), "re": f"{p}/{q}", "im": f"{r}/{s}"})
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
        moved = [j for j, v in enumerate(n) if v]
        if len(moved) == 1 and abs(n[moved[0]]) == 1 and mirror in f.terms:
            # a E(+1) + b E(-1) = cos_c cos + sin_c sin with
            # cos_c = a + b and sin_c = i (a - b), exactly
            a, b = (c, f.terms[mirror]) if n[moved[0]] > 0 else (f.terms[mirror], c)
            name = chart.torus[moved[0]]
            done.add(mirror)
            for coeff, fn in ((a + b, f"cos({name})"), ((a - b) * GaussianRational(0, 1), f"sin({name})")):
                if not coeff.is_zero():
                    bits.append(_term_text(chart, coeff, (0,) * k + e[k:], fn))
        else:
            bits.append(_term_text(chart, c, e, None))
    text = " + ".join(bits)
    return text.replace("+ -", "- ")


def _term_text(chart, c: GaussianRational, e, trig: str | None) -> str:
    parts = []
    if c == -1:
        parts.append("-1")
    elif c != 1:
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
    return "*".join(parts) or "1"
