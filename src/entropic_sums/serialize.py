"""JSON instance loading and cell and column formatting for the command-line front end."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .classical import JointDistribution, ProbVector
from .quantum import DensityOperator, PureEnsemble, RankOnePOVM


def _complex_grid(doc: dict, re_key: str, im_key: str) -> np.ndarray:
    re = np.asarray(doc[re_key], dtype=float)
    im = np.asarray(doc[im_key], dtype=float)
    if re.shape != im.shape:
        raise ValueError(f"'{re_key}' and '{im_key}' must have matching shapes")
    return re + 1j * im


def _int_field(doc: dict, key: str) -> int:
    if type(doc[key]) is not int:  # a JSON integer; not a float, bool or null
        raise ValueError(f"'{key}' must be an integer, got {doc[key]!r}")
    return doc[key]


def instance_from_dict(doc: dict):
    """Build a typed instance from a parsed JSON document; 'kind' selects the type."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("document must be a JSON object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "prob_vector":
            return ProbVector(doc["values"])
        if kind == "density":
            m = _complex_grid(doc, "re", "im")
            d = _int_field(doc, "dim")
            if m.shape != (d, d):
                raise ValueError(f"density grids must be {d}x{d}, got {m.shape}")
            return DensityOperator(m)
        if kind == "joint":
            vals = np.asarray(doc["values"], dtype=float)
            if vals.shape != (_int_field(doc, "rows"), _int_field(doc, "cols")):
                raise ValueError(f"joint grid shape {vals.shape} does not match rows/cols")
            return JointDistribution(vals)
        if kind == "ensemble":
            states = _complex_grid(doc, "states_re", "states_im")
            return PureEnsemble(doc["weights"], states)
        if kind == "povm":
            return RankOnePOVM(_complex_grid(doc, "vectors_re", "vectors_im"))
    except KeyError as exc:
        raise ValueError(f"{kind!r} document is missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{kind!r} document has a field of the wrong type ({exc})") from None
    raise ValueError(f"unknown instance kind {kind!r}")


def load_instance(path: str):
    """Load one typed instance from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return instance_from_dict(doc)


def fmt_cell(value) -> str:
    """CSV cell: floats at 17 significant digits, booleans lowercase, None empty, the rest by str."""
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


#: CSV text of the cells of a column that holds only booleans and None.
_FLAG_TEXT = {True: "true", False: "false", None: ""}


def fmt_column(cells) -> list[str]:
    """CSV cells of one column, equal to ``map(fmt_cell, cells)``; a column of
    flags or of strings and ints is rendered by one rule for the whole column."""
    kinds = set(map(type, cells))
    if kinds <= {bool, type(None)}:
        return list(map(_FLAG_TEXT.__getitem__, cells))
    if kinds <= {str, int}:
        return list(map(str, cells))
    return list(map(fmt_cell, cells))


#: Types whose JSON tokens never hold the item separator ", ".
_SPLITTABLE = {float, int, bool, type(None)}


def json_column(cells) -> list[str]:
    """JSON texts of the cells of one column, equal to ``map(json.dumps, cells)``.

    A column of numbers, booleans and None is one ``json.dumps`` of the whole
    column, split at the item separator: the encoder writes each item of a
    list as it writes a lone value (``float.__repr__``, ``NaN``, ``Infinity``,
    ``null``, ``true``, ints), and none of those tokens holds ", ". A column
    of strings goes through the encoder's own string rule; any other column
    falls back to one ``json.dumps`` per cell.
    """
    kinds = set(map(type, cells))
    if kinds <= _SPLITTABLE:
        return json.dumps(list(cells))[1:-1].split(", ") if kinds else []
    if kinds == {str}:
        return list(map(encode_basestring_ascii, cells))
    return list(map(json.dumps, cells))
