"""Scenario files: the JSON input format of the command line front end.

``SCHEMA`` is the format (schema 1): a table from each block to the keys it
takes, each key with whether it is required and the kind of its JSON value.
``Scenario`` walks it once, over the whole document, so a malformed block
is an error whichever task runs; the builders then read keys directly.
Expressions are parsed by the builder of the artifact that reads them (the
costly part of a load), each distinct text once per Scenario, and the
constructors check what values mean.

A ``Scenario`` also holds the artifacts its tasks share (the Jacobi
structure, the section and its coisotropy residue, the transversal data,
the multibracket table, the lift, Omega_0, d_BFV and its HPL data), each
built on first use and kept for the life of the object.
"""

from __future__ import annotations

import importlib.resources as resources
import json
import os

from .ring import Chart, ContentError, ScalarFn
from .expr import parse_scalar
from .multivector import MultiVectorField
from .multider import MultiDerivation
from .leafform import LeafForm
from .geom import Form, contact_to_jacobi, fiberwise_linear_jacobi, is_coisotropic_section, lcs_to_jacobi
from .linfty import MultibracketTable
from .bfv import Lift, ObstructionFailure, brst_charge, d_bfv, hpl_resolution
from .transversal import TransversalData


class ScenarioFileError(ContentError):
    """No such scenario file or built-in, or one that is not UTF-8 JSON."""


def _is_str(v):
    return isinstance(v, str)


def _is_list(v, entry, n=None):
    """v is a list (of n entries, if n is given) whose entries pass entry."""
    return isinstance(v, list) and (n is None or len(v) == n) and all(map(entry, v))


def _is_field(v):
    return isinstance(v, dict) and all(map(_is_str, v.values()))


def _is_term(v):
    return (
        isinstance(v, dict)
        and set(v) == {"idx", "coef"}
        and _is_list(v["idx"], lambda i: type(i) is int)
        and _is_str(v["coef"])
    )


def _is_matrix(v, n):
    return _is_list(v, lambda row: _is_list(row, _is_str, n), n)


def _is_leaf_keyed(v, doc, entry):
    leaf = {str(i) for i in range(len(doc["chart"].get("leaf", [])))}
    return isinstance(v, dict) and set(v) <= leaf and all(map(entry, v.values()))


def _n(doc):  # the number of transversal frame_a fields
    return len(doc["transversal"]["frame_a"])


# A kind is (what the value must be, test(value, document)).  A test reads
# sizes from the document only where the walk has checked them: the chart
# comes before every other block, frame_a before the rest of transversal.
_NAMES = ("a list of coordinate names", lambda v, d: _is_list(v, _is_str))
_FIELD = ("an object {coordinate name: expression}", lambda v, d: _is_field(v))
_FIELDS = ("a list of {coordinate name: expression} objects", lambda v, d: _is_list(v, _is_field))
_TERMS = (  # one item per term: an idx given twice would keep only its last coef
    'a list of {"idx": [ints], "coef": expr} objects, no two with the same indices',
    lambda v, d: _is_list(v, _is_term) and len({tuple(sorted(t["idx"])) for t in v}) == len(v),
)
_ROW = ("a list of one expression per frame_a field", lambda v, d: _is_list(v, _is_str, _n(d)))
_MATRIX = ("a square matrix, one row per frame_a field", lambda v, d: _is_matrix(v, _n(d)))
_LEAF_MATRICES = (
    "an object from leaf indices to square matrices, one row per frame_a field",
    lambda v, d: _is_leaf_keyed(v, d, lambda m: _is_matrix(m, _n(d))),
)
_LEAF_ROWS = (
    "an object from leaf indices to lists of one expression per frame_a field",
    lambda v, d: _is_leaf_keyed(v, d, lambda r: _is_list(r, _is_str, _n(d))),
)
_FIBER_ROW = (
    "a list of one expression per fiber coordinate",
    lambda v, d: _is_list(v, _is_str, len(d["chart"].get("fiber", []))),
)
_POSITIVE = ("a positive integer", lambda v, d: type(v) is int and v >= 1)
REQUIRED, OPTIONAL = True, False

# block -> key -> (required, kind); a key whose kind is a table holds a block
SCHEMA = {
    "schema": (REQUIRED, ("1", lambda v, d: type(v) is int and v == 1)),
    "chart": (REQUIRED, dict.fromkeys(("torus", "fiber", "leaf"), (OPTIONAL, _NAMES))),
    "jacobi": (OPTIONAL, {"p": (OPTIONAL, _TERMS), "q": (OPTIONAL, _TERMS)}),
    "contact": (OPTIONAL, {
        "theta": (REQUIRED, _FIELD), "reeb": (REQUIRED, _FIELD), "frame": (REQUIRED, _FIELDS),
    }),
    "lcs": (OPTIONAL, {"omega": (REQUIRED, _TERMS), "theta1": (OPTIONAL, _TERMS)}),
    "jet": (OPTIONAL, {}),
    "transversal": (OPTIONAL, {
        "frame_a": (REQUIRED, _FIELDS),
        "frame_z": (REQUIRED, _FIELD),
        "C": (OPTIONAL, _ROW),
        "omega": (REQUIRED, _MATRIX),
        "F_ab": (OPTIONAL, _LEAF_MATRICES),
        "F_a": (OPTIONAL, _LEAF_ROWS),
    }),
    "section": (OPTIONAL, {"components": (REQUIRED, _FIBER_ROW)}),
    "formal": (OPTIONAL, {"order": (OPTIONAL, _POSITIVE)}),
    # the trivial connection is the only one a scenario can name
    "bfv": (OPTIONAL, {"connection": (REQUIRED, ('"trivial"', lambda v, d: v == "trivial"))}),
}
STRUCTURES = ("jacobi", "contact", "lcs", "jet")


def _walk(where, block, table, doc):
    """A ContentError naming the first key of block, in table order, that
    the table does not take or whose value is not of its kind."""
    if not isinstance(block, dict):
        raise ContentError(f"{where} block must be an object, not {type(block).__name__}")
    extra = sorted(set(block) - set(table))
    if extra:
        raise ContentError(f"{where} block takes only the keys {list(table)}, not {extra}")
    for key, (required, kind) in table.items():
        if key not in block:
            if required:
                raise ContentError(f"{where} block needs the key {key!r}")
        elif isinstance(kind, dict):
            _walk(key, block[key], kind, doc)
        elif not kind[1](block[key], doc):
            raise ContentError(f"{where} {key!r} must be {kind[0]}")


class Scenario:
    def __init__(self, data: dict, name: str = "<scenario>"):
        self.name = name
        _walk("top-level", data, SCHEMA, data)
        structures = [k for k in STRUCTURES if k in data]
        if len(structures) != 1:
            raise ContentError(f"scenario needs exactly one structure block of {list(STRUCTURES)}")
        try:
            self.chart = Chart(**data["chart"])
        except ContentError as exc:
            raise ContentError(f"invalid chart block: {exc}") from None
        self.structure_kind = structures[0]
        self.data = data
        self._built = {}  # artifact name -> value, or the ObstructionFailure it raised
        self._parsed = {}  # expression text -> its ScalarFn

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

    # -- parsing helpers ----------------------------------------------------

    def _expr(self, text) -> ScalarFn:
        """The ScalarFn of an expression text.  Each distinct text is parsed
        once per Scenario and its ScalarFn shared, as a ScalarFn never
        changes after construction; a text that fails to parse is not kept,
        so it raises the same error on every use."""
        f = self._parsed.get(text)
        if f is None:
            try:
                f = parse_scalar(self.chart, text)
            except ContentError as exc:
                raise ContentError(f"bad expression {text!r}: {exc}") from None
            self._parsed[text] = f
        return f

    def _exprs(self, texts) -> list:
        return [self._expr(e) for e in texts]

    def _components(self, comps: dict) -> dict:
        return {name: self._expr(e) for name, e in comps.items()}

    def _vector(self, comps: dict) -> MultiVectorField:
        return MultiVectorField.vector(self.chart, self._components(comps))

    def _skew_terms(self, items) -> dict:
        """{idx: coefficient} of a list of {"idx": [...], "coef": expr} items."""
        return {tuple(item["idx"]): self._expr(item["coef"]) for item in items}

    # -- structure --------------------------------------------------------------

    def jacobi(self) -> MultiDerivation:
        return self._once("jacobi", self._build_jacobi)

    def _build_jacobi(self) -> MultiDerivation:
        kind = self.structure_kind
        block = self.data[kind]
        if kind == "jacobi":
            p = MultiVectorField(self.chart, 2, self._skew_terms(block.get("p", [])))
            q = MultiVectorField(self.chart, 1, self._skew_terms(block.get("q", [])))
            return MultiDerivation.from_parts(p, q)
        if kind == "contact":
            theta = self._components(block["theta"])
            reeb = self._vector(block["reeb"])
            frame = [self._vector(v) for v in block["frame"]]
            theta = Form(self.chart, 1, {(self.chart.index(name),): f for name, f in theta.items()})
            return contact_to_jacobi(theta, reeb, frame)
        if kind == "lcs":
            omega = Form(self.chart, 2, self._skew_terms(block["omega"]))
            theta1 = Form(self.chart, 1, self._skew_terms(block.get("theta1", [])))
            return lcs_to_jacobi(omega, theta1)
        return fiberwise_linear_jacobi(self.chart)  # the jet block is {}

    def section(self) -> LeafForm:
        """The section block's normal section sum_a g_a delta_a."""
        return self._once("section", self._build_section)

    def _build_section(self) -> LeafForm:
        if "section" not in self.data:
            raise ContentError("scenario has no section block")
        comps = self._exprs(self.data["section"]["components"])
        try:
            return LeafForm.section(self.chart, comps)
        except ContentError as exc:
            raise ContentError(f"invalid section: {exc}") from None

    def section_or_zero(self) -> LeafForm:
        """The section, or the zero section without a section block."""
        return self.section() if "section" in self.data else LeafForm.zero(self.chart, 1)

    def residue(self) -> LeafForm:
        """MC(-s) of section_or_zero() as a degree-2 leaf form: the residues
        {y_a - g_a, y_b - g_b}|_{y=g} of its graph, term for term."""
        return self._once("residue", self._build_residue)

    def _build_residue(self) -> LeafForm:
        _, residues = is_coisotropic_section(self.jacobi(), self.section_or_zero())
        return LeafForm._raw(self.chart, 2, residues)

    def formal_order(self) -> int:
        """The formal block's order (3 when absent)."""
        return self.data.get("formal", {}).get("order", 3)

    def transversal(self) -> TransversalData:
        return self._once("transversal", self._build_transversal)

    def _build_transversal(self) -> TransversalData:
        block = self.data.get("transversal")
        if block is None:
            raise ContentError("scenario has no transversal block")
        ga = [self._vector(v) for v in block["frame_a"]]
        gz = self._vector(block["frame_z"])
        C = self._exprs(block.get("C", ["0"] * len(ga)))
        omega = [self._exprs(row) for row in block["omega"]]
        fab = {int(i): [self._exprs(row) for row in m] for i, m in block.get("F_ab", {}).items()}
        fa = {int(i): self._exprs(row) for i, row in block.get("F_a", {}).items()}
        return TransversalData(self.chart, ga, gz, C, omega, fab, fa)

    # -- shared artifacts: J -> table, J -> Lift -> Omega_0 -> d_BFV -> HPL -----

    def table(self) -> MultibracketTable:
        return self._once("table", lambda: MultibracketTable(self.jacobi()))

    def lift(self) -> Lift:
        return self._once("lift", lambda: Lift(self.jacobi()))

    def omega0(self):
        """(Omega_BRST, corrections, {Omega_BRST, -}) of the zero section;
        raises the ObstructionFailure of a zero section that is not
        coisotropic."""
        return self._once("omega0", lambda: brst_charge(self.lift(), LeafForm.zero(self.chart, 1)))

    def dbfv(self):
        """d_BFV of Omega_0, its square checked to be zero."""
        return self._once("dbfv", lambda: d_bfv(self.omega0()[2]))

    def hpl(self):
        """The HPL data of d_BFV: the zero-section contraction perturbed by
        d_BFV - d[0]."""
        return self._once("hpl", lambda: hpl_resolution(self.lift(), self.dbfv()))


def load_scenario(path_or_name: str):
    """The scenario in a file, or the built-in scenario of that name (a name
    holds no path separator); a ScenarioFileError if it cannot be read as
    JSON."""
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ScenarioFileError(f"cannot read scenario file: {exc.strerror}") from None
        name = os.path.splitext(os.path.basename(path_or_name))[0]
    else:
        name = path_or_name
        try:
            if "/" in name or os.sep in name:  # a path that is not a file names no built-in
                raise FileNotFoundError(name)
            folder = resources.files("coiso").joinpath("scenarios")
            raw = folder.joinpath(f"{name}.json").read_bytes()
        except (OSError, ValueError, ModuleNotFoundError):  # ValueError: a NUL in the name
            raise ScenarioFileError(
                f"scenario {path_or_name!r}: no such file or built-in scenario"
            ) from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioFileError(f"scenario is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ScenarioFileError("scenario JSON is nested too deeply") from None
    except ValueError as exc:
        raise ScenarioFileError(f"scenario parse error: {exc}") from None
    return Scenario(data, name)


def builtin_names():
    folder = resources.files("coiso").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json"))
