"""Scenario files: the JSON input format of the command line front end.

A scenario carries one chart, exactly one structure block (jacobi | contact
| lcs | jet | transversal may accompany any of them), and optional section
/ formal / bfv blocks, and no other top-level key.  The chart takes only
torus, fiber and leaf, each a list of coordinate names.  Each block takes a
closed set of keys (a jacobi block only p and q, an lcs block omega and
theta1, and so on), a jet block must be {} and a bfv block must be
{"connection": "trivial"}.  All coefficient expressions use the ring
grammar.

A ``Scenario`` also holds the artifacts its tasks share (the Jacobi
structure, the section, the transversal data, the multibracket table, the
lift, the BRST charge of the zero section and d_BFV), each built on first use and
kept for the life of the object.
"""

from __future__ import annotations

import json

from .ring import Chart, ChartError, ScalarFn
from .expr import ExprError, parse_scalar
from .multivector import MultiVectorField
from .multider import MultiDerivation
from .leafform import SectionOfNormalBundle
from .geom import ContactChart, Form, contact_to_jacobi, fiberwise_linear_jacobi, lcs_to_jacobi
from .linfty import MultibracketTable
from .bfv import Lift, ObstructionFailure, brst_charge, d_bfv
from .transversal import TransversalData


class ScenarioError(ValueError):
    pass


def _need(block, key, where, kind=object):
    """block[key] of a required key; a ScenarioError naming it if it is
    missing or not of the given kind (dict for a JSON object, or list)."""
    if not isinstance(block, dict) or key not in block:
        raise ScenarioError(f"{where} block needs the key {key!r}")
    return _typed(block[key], kind, key, where)


def _typed(value, kind, key, where):
    """value, or a ScenarioError naming key if it is not of the given kind."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ScenarioError(f"{where} {key!r} must be {noun}, not {type(value).__name__}")
    return value


def _closed(block, keys, where):
    """block, an object whose keys are all among keys; a ScenarioError
    naming any other key."""
    extra = sorted(set(_typed(block, dict, "block", where)) - set(keys))
    if extra:
        raise ScenarioError(f"{where} block takes only the keys {list(keys)}, not {extra}")
    return block


def _leaf_key(key, name, nleaf):
    """The leaf index a transversal F_ab / F_a key writes in decimal."""
    if key not in [str(i) for i in range(nleaf)]:
        raise ScenarioError(f"transversal {name!r} key {key!r} is not a leaf index in range({nleaf})")
    return int(key)


_TRIVIAL_BFV = {"connection": "trivial"}
_CHART_KEYS = ("torus", "fiber", "leaf")
_STRUCTURES = ("jacobi", "contact", "lcs", "jet")
_TOP_LEVEL_KEYS = ("schema", "chart") + _STRUCTURES + ("transversal", "section", "formal", "bfv")


class Scenario:
    def __init__(self, data: dict, name: str = "<scenario>"):
        self.name = name
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        if data.get("schema") != 1:
            raise ScenarioError("unsupported scenario schema (expected schema: 1)")
        try:
            chart_block = data["chart"]
            if not isinstance(chart_block, dict):
                raise TypeError(f"must be an object, not {type(chart_block).__name__}")
            extra = sorted(set(chart_block) - set(_CHART_KEYS))
            if extra:
                raise TypeError(f"takes only the keys {list(_CHART_KEYS)}, not {extra}")
            for key in _CHART_KEYS:
                names = chart_block.get(key, [])
                if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                    raise TypeError(f"{key!r} must be a list of coordinate names")
            self.chart = Chart(
                torus=chart_block.get("torus", ()),
                fiber=chart_block.get("fiber", ()),
                leaf=chart_block.get("leaf", ()),
            )
        except (KeyError, ChartError, TypeError) as exc:
            raise ScenarioError(f"invalid chart block: {exc}") from None
        structures = [k for k in _STRUCTURES if k in data]
        if len(structures) != 1:
            raise ScenarioError("scenario needs exactly one structure block")
        self.structure_kind = structures[0]
        self.data = data
        self._built = {}  # artifact name -> value, or the ObstructionFailure it raised

    def _once(self, name, build):
        """The artifact called name, built by build() on its first use.  An
        ObstructionFailure is a result, kept and raised again on every use;
        any other error is raised and nothing is kept."""
        if name not in self._built:
            try:
                self._built[name] = build()
            except ObstructionFailure as exc:
                self._built[name] = exc
        value = self._built[name]
        if isinstance(value, ObstructionFailure):
            raise value
        return value

    def check_keys(self):
        """A ScenarioError naming a top-level key the format does not have
        (a misspelt "Formal" would otherwise be ignored)."""
        _closed(self.data, _TOP_LEVEL_KEYS, "top-level")

    # -- parsing helpers ----------------------------------------------------

    def _expr(self, text) -> ScalarFn:
        try:
            return parse_scalar(self.chart, text)
        except ExprError as exc:
            raise ScenarioError(f"bad expression {text!r}: {exc}") from None

    def _exprs(self, value, n, key) -> list:
        """The n expressions of the transversal list called key."""
        if not isinstance(value, list) or len(value) != n:
            raise ScenarioError(f"transversal {key!r} must be a list of {n} expressions")
        return [self._expr(e) for e in value]

    def _expr_rows(self, value, n, key) -> list:
        """The n x n expressions of the transversal matrix called key."""
        square = isinstance(value, list) and len(value) == n
        if not (square and all(isinstance(row, list) and len(row) == n for row in value)):
            raise ScenarioError(f"transversal {key!r} must be {n} rows of {n} expressions")
        return [[self._expr(e) for e in row] for row in value]

    def _components(self, comps: dict) -> dict:
        return {name: self._expr(e) for name, e in comps.items()}

    def _vector(self, comps: dict) -> MultiVectorField:
        return MultiVectorField.vector(self.chart, self._components(comps))

    def _skew_terms(self, items, where) -> dict:
        """{idx: coefficient} of a list of {"idx": [...], "coef": expr} items."""
        terms = {}
        for item in items:
            idx = _need(item, "idx", where)
            if not isinstance(idx, list) or any(type(i) is not int for i in idx):
                raise ScenarioError(f"{where} idx {idx!r} is not a list of integers")
            terms[tuple(idx)] = self._expr(_need(item, "coef", where))
        return terms

    def _mvf(self, items, degree) -> MultiVectorField:
        return MultiVectorField(self.chart, degree, self._skew_terms(items, "jacobi"))

    # -- structure --------------------------------------------------------------

    def jacobi(self) -> MultiDerivation:
        return self._once("jacobi", self._build_jacobi)

    def _build_jacobi(self) -> MultiDerivation:
        kind = self.structure_kind
        block = self.data[kind]
        if kind == "jacobi":
            _closed(block, ("p", "q"), kind)
            p = self._mvf(_typed(block.get("p", []), list, "p", kind), 2)
            q = self._mvf(_typed(block.get("q", []), list, "q", kind), 1)
            j = MultiDerivation(p, q)
        elif kind == "contact":
            _closed(block, ("theta", "reeb", "frame"), kind)
            theta = self._components(_need(block, "theta", kind, dict))
            reeb = self._vector(_need(block, "reeb", kind, dict))
            frame = [
                self._vector(_typed(v, dict, "frame", kind))
                for v in _need(block, "frame", kind, list)
            ]
            j = contact_to_jacobi(ContactChart(self.chart, theta, reeb, frame))
        elif kind == "lcs":
            _closed(block, ("omega", "theta1"), kind)
            omega = Form(self.chart, 2, self._skew_terms(_need(block, "omega", kind, list), kind))
            theta1 = _typed(block.get("theta1", []), list, "theta1", kind)
            theta1 = Form(self.chart, 1, self._skew_terms(theta1, kind))
            j = lcs_to_jacobi(omega, theta1)
        elif kind == "jet":
            if block != {}:
                raise ScenarioError(f"jet block takes no keys and must be {{}}, not {json.dumps(block)}")
            j = fiberwise_linear_jacobi(self.chart)
        else:  # pragma: no cover
            raise ScenarioError(f"unknown structure {kind}")
        return j

    def section(self) -> SectionOfNormalBundle:
        return self._once("section", self._build_section)

    def _build_section(self) -> SectionOfNormalBundle:
        block = self.data.get("section")
        if block is None:
            raise ScenarioError("scenario has no section block")
        _closed(block, ("components",), "section")
        comps = [self._expr(e) for e in _need(block, "components", "section", list)]
        try:
            return SectionOfNormalBundle(self.chart, comps)
        except ChartError as exc:
            raise ScenarioError(f"invalid section: {exc}") from None

    def formal_order(self) -> int:
        """The formal block's order, a positive integer (3 when absent)."""
        block = _closed(self.data.get("formal", {}), ("order",), "formal")
        order = block.get("order", 3)
        if type(order) is not int or order < 1:
            raise ScenarioError(f"formal 'order' must be a positive integer, not {order!r}")
        return order

    def transversal(self) -> TransversalData:
        return self._once("transversal", self._build_transversal)

    def _build_transversal(self) -> TransversalData:
        block = self.data.get("transversal")
        if block is None:
            raise ScenarioError("scenario has no transversal block")
        _closed(block, ("frame_a", "frame_z", "C", "omega", "F_ab", "F_a"), "transversal")
        ga = [
            self._vector(_typed(v, dict, "frame_a", "transversal"))
            for v in _need(block, "frame_a", "transversal", list)
        ]
        gz = self._vector(_need(block, "frame_z", "transversal", dict))
        n = len(ga)
        nleaf = len(self.chart.leaf)
        C = self._exprs(block.get("C", ["0"] * n), n, "C")
        omega = self._expr_rows(_need(block, "omega", "transversal"), n, "omega")
        fab = {
            _leaf_key(i, "F_ab", nleaf): self._expr_rows(mat, n, "F_ab")
            for i, mat in _typed(block.get("F_ab", {}), dict, "F_ab", "transversal").items()
        }
        fa = {
            _leaf_key(i, "F_a", nleaf): self._exprs(vec, n, "F_a")
            for i, vec in _typed(block.get("F_a", {}), dict, "F_a", "transversal").items()
        }
        return TransversalData(self.chart, ga, gz, C, omega, fab, fa)

    def ghost_rank(self) -> int:
        return self.chart.m

    # -- shared artifacts: J -> table, J -> Lift -> Omega_0 -> d_BFV ------------

    def table(self) -> MultibracketTable:
        return self._once("table", lambda: MultibracketTable(self.jacobi()))

    def lift(self) -> Lift:
        return self._once("lift", self._build_lift)

    def _build_lift(self) -> Lift:
        # the trivial connection is the only one a scenario can name
        block = self.data.get("bfv", _TRIVIAL_BFV)
        if block != _TRIVIAL_BFV:
            raise ScenarioError(
                f"bfv block must be {json.dumps(_TRIVIAL_BFV)} (the only supported "
                f"'connection'), not {json.dumps(block)}"
            )
        return Lift(self.jacobi(), self.ghost_rank())

    def omega0(self):
        """(Omega_BRST, corrections) of the zero section; raises the
        ObstructionFailure of a zero section that is not coisotropic."""
        zero = SectionOfNormalBundle.zero
        return self._once("omega0", lambda: brst_charge(self.lift(), zero(self.chart)))

    def dbfv(self):
        """d_BFV of Omega_0, its square checked to be zero."""
        return self._once("dbfv", lambda: d_bfv(self.lift(), self.omega0()[0]))


def load_scenario(path_or_name: str):
    """Load a scenario from a file path or a built-in name."""
    import importlib.resources as resources
    import os

    name = path_or_name
    if os.path.exists(path_or_name):
        with open(path_or_name, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario is not UTF-8 text: {exc}") from None
        except RecursionError:
            raise ScenarioError("scenario JSON is nested too deeply") from None
        name = os.path.splitext(os.path.basename(path_or_name))[0]
        return Scenario(data, name)
    builtin = path_or_name.split("/")[-1]
    try:
        text = (
            resources.files("coiso")
            .joinpath("scenarios")
            .joinpath(f"{builtin}.json")
            .read_text(encoding="utf-8")
        )
    except (FileNotFoundError, ModuleNotFoundError):
        raise ScenarioError(
            f"scenario {path_or_name!r}: no such file or built-in scenario"
        ) from None
    return Scenario(json.loads(text), builtin)


def builtin_names():
    import importlib.resources as resources

    folder = resources.files("coiso").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json"))
