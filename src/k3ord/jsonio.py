"""Exact JSON conventions for scenario, expected, and report files.

Numbers do not survive JSON implementations at arbitrary precision, so
the file format never uses them: every integer is a decimal string,
every rational is {"num": "...", "den": "..."}, and matrices are arrays
of row arrays.  A parser hook rejects any raw JSON number outright,
which keeps accidental precision loss from slipping in silently.

Integers are bounded only by the interpreter's limit on int/str
conversion (``sys.get_int_max_str_digits()``, 4300 digits by default),
which keeps a short document from forcing quadratic-time conversion.
A decimal string over the limit, or a computed integer whose decimal
form would exceed it, is a SchemaError.

Documents carry a "schema": "k3ord/1" field.  Emission is canonical
(sorted keys, fixed separators, UTF-8, trailing newline) so that equal
reports are equal bytes.
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Union

from .errors import ParseError, SchemaError
from .matrices import IntMatrix

SCHEMA = "k3ord/1"

# ASCII only: str.isdigit and int() also take other Unicode digits
_DECIMAL = re.compile(r"-?[0-9]+")
# a comma-joined run of them; a comma inside an entry still fails int()
_DECIMALS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _reject_number(token):
    raise ParseError(
        f"raw JSON number {token!r}; integers must be decimal strings"
    )


def loads_strict(text: str):
    """Parse JSON, refusing numeric literals."""
    try:
        return json.loads(
            text,
            parse_int=_reject_number,
            parse_float=_reject_number,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc


def load_file(path: Union[str, Path]):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc
    return loads_strict(text)


def dumps_canonical(data) -> str:
    """Serialize a JSON tree to its unique canonical text."""
    return (
        json.dumps(data, sort_keys=True, separators=(", ", ": "), ensure_ascii=False)
        + "\n"
    )


# --- encoding Python values into the file conventions -------------------------------


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"a computed integer exceeds the {limit}-digit limit") from exc


def encode(value):
    """Recursively convert exact values to their JSON-tree form."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, Fraction):
        return {"num": _decimal(value.numerator), "den": _decimal(value.denominator)}
    if isinstance(value, IntMatrix):
        return [list(map(_decimal, r)) for r in value.to_rows()]
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise SchemaError(f"object keys must be strings, got {k!r}")
            out[k] = encode(v)
        return out
    if hasattr(value, "value") and isinstance(value.value, str):
        return value.value
    raise SchemaError(f"cannot encode {type(value).__name__} values")


# --- decoding with shape checks ------------------------------------------------------


def as_int(node, what: str = "integer") -> int:
    if isinstance(node, str) and _DECIMAL.fullmatch(node):
        try:
            return int(node)
        except ValueError as exc:
            limit = sys.get_int_max_str_digits()
            raise SchemaError(f"{what} exceeds the {limit}-digit limit") from exc
    raise SchemaError(f"expected a decimal string for {what}, got {node!r}")


def as_fraction(node, what: str = "rational") -> Fraction:
    if isinstance(node, str):
        return Fraction(as_int(node, what))
    if isinstance(node, dict) and set(node) == {"num", "den"}:
        den = as_int(node["den"], f"{what} denominator")
        if den <= 0:
            raise SchemaError(f"{what} denominator must be positive, got {den}")
        return Fraction(as_int(node["num"], f"{what} numerator"), den)
    raise SchemaError(f"expected a rational for {what}, got {node!r}")


def as_str(node, what: str = "string") -> str:
    if isinstance(node, str):
        return node
    raise SchemaError(f"expected a string for {what}, got {node!r}")


def as_list(node, what: str = "array") -> list:
    if isinstance(node, list):
        return node
    raise SchemaError(f"expected an array for {what}, got {node!r}")


def as_dict(node, what: str = "object") -> dict:
    if isinstance(node, dict):
        return node
    raise SchemaError(f"expected an object for {what}, got {node!r}")


def as_int_vector(node, what: str = "vector") -> tuple[int, ...]:
    items = as_list(node, what)
    # fast path: one type scan and one match over the joined entries; any
    # offender, an over-long number included, takes the per-entry loop
    if set(map(type, items)) <= {str} and _DECIMALS.fullmatch(",".join(items)):
        try:
            return tuple([*map(int, items)])
        except ValueError:
            pass
    return tuple([as_int(x, f"{what} entry") for x in items])


def as_fraction_vector(node, what: str = "vector") -> tuple[Fraction, ...]:
    return tuple([as_fraction(x, f"{what} entry") for x in as_list(node, what)])


def as_int_matrix(node, what: str = "matrix") -> IntMatrix:
    rows = [as_int_vector(r, f"{what} row") for r in as_list(node, what)]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise SchemaError(f"{what} has ragged rows")
    return IntMatrix.from_rows(rows)


def require(mapping: dict, key: str, what: str = "document"):
    mapping = as_dict(mapping, what)
    if key not in mapping:
        raise SchemaError(f"{what} is missing the {key!r} field")
    return mapping[key]


def check_schema(document: dict, what: str = "document") -> None:
    declared = require(document, "schema", what)
    if declared != SCHEMA:
        raise SchemaError(
            f"{what} declares schema {declared!r}, this tool reads {SCHEMA!r}"
        )
