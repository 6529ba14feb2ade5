"""Exact JSON conventions for scenario, expected, and report files.

Numbers do not survive JSON implementations at arbitrary precision, so
the file format never uses them: every integer is a decimal string,
every rational is {"num": "...", "den": "..."}, and matrices are arrays
of row arrays.  A parser hook rejects any raw JSON number outright,
which keeps accidental precision loss from slipping in silently.  A key
may appear once per object: another hook refuses a duplicated key by name.

Integers are bounded only by the interpreter's limit on int/str
conversion (``sys.get_int_max_str_digits()``, 4300 digits by default),
which keeps a short document from forcing quadratic-time conversion.
A decimal string over the limit, or a computed integer whose decimal
form would exceed it, is a SchemaError.

Documents carry a "schema": "k3ord/1" field.  Emission is canonical
(sorted keys, fixed separators, UTF-8, trailing newline) so that equal
reports are equal bytes.

Every reader takes the JSON path of the value it reads, and every
SchemaError it raises starts with that path: a dot before a key, [i]
after an array index, as in payload.gram[0][1] or checks[1].name.  A
check's payload is read from the root "payload" (for the flat signature
document that is the document itself); paths in a scenario, expected or
payload file start at the document root (the runner puts an expected
file's name before its errors).  Readers of vectors, lists and
matrices take the expected sizes too.  Vectors and matrices are read
whole, and encode writes a matrix with one str map; each formats a path,
or falls back to one entry at a time, only on the way to an error.

Every field of an object is read by field(), whose default, if given,
stands for a missing key as it is.  Null is never read as absent: a key
that is present goes through its reader, so "free_action": null is
refused by path like any other wrong value.
"""

import json
import re
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable, Union

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


def _object(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"duplicate key {key!r}; a key may appear once per object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_object, parse_int=_reject_number,
                            parse_float=_reject_number, parse_constant=_reject_number)


def loads_strict(text: str):
    """Parse JSON, refusing numeric literals, NaN and Infinity included."""
    try:
        if text.startswith("\ufeff"):  # json.loads' own check and words
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc


def load_file(path: Union[str, Path]):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        if exc.filename is not None:  # named as Path.read_text names it
            exc.filename = str(Path(path))
        raise ParseError(f"cannot read {Path(path)}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{Path(path)} is not UTF-8: {exc}") from exc
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
        try:
            flat = [*map(str, value.entries)]
        except ValueError:
            flat = [*map(_decimal, value.entries)]  # raises, naming the limit
        c = value.cols
        return [flat[i * c:(i + 1) * c] for i in range(value.rows)]
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


# --- decoding with paths and shapes --------------------------------------------------


def _at(path: str, text: str) -> SchemaError:
    return SchemaError(f"{path}: {text}" if path else text)


def as_int(node, path: str) -> int:
    if isinstance(node, str) and _DECIMAL.fullmatch(node):
        try:
            return int(node)
        except ValueError as exc:
            limit = sys.get_int_max_str_digits()
            raise _at(path, f"exceeds the {limit}-digit limit") from exc
    raise _at(path, f"expected a decimal string, got {node!r}")


def as_fraction(node, path: str) -> Fraction:
    if isinstance(node, str):
        return Fraction(as_int(node, path))
    if isinstance(node, dict) and set(node) == {"num", "den"}:
        den = as_int(node["den"], f"{path}.den")
        if den <= 0:
            raise _at(f"{path}.den", f"must be positive, got {den}")
        return Fraction(as_int(node["num"], f"{path}.num"), den)
    raise _at(path, f"expected a rational, got {node!r}")


def as_str(node, path: str) -> str:
    if isinstance(node, str):
        return node
    raise _at(path, f"expected a string, got {node!r}")


def as_dict(node, path: str) -> dict:
    if isinstance(node, dict):
        return node
    raise _at(path, f"expected an object, got {node!r}")


def as_list(node, path: str, length=None) -> list:
    if not isinstance(node, list):
        raise _at(path, f"expected an array, got {node!r}")
    if length is not None and len(node) != length:
        raise _at(path, f"length {len(node)}, expected {length}")
    return node


def as_items(node, path: str, read: Callable, length=None) -> list:
    """The entries of an array, each put through read(entry, path[i])."""
    return [read(x, f"{path}[{i}]") for i, x in enumerate(as_list(node, path, length))]


def _ints(items: list):
    """The ints of decimal strings by one type scan, one match and one int
    map; None on any offender, an over-long number included."""
    if set(map(type, items)) <= {str} and _DECIMALS.fullmatch(",".join(items)):
        try:
            return [*map(int, items)]
        except ValueError:
            pass
    return None


def as_int_vector(node, path: str, length=None) -> tuple[int, ...]:
    items = as_list(node, path, length)
    ints = _ints(items)
    if ints is None:
        ints = [as_int(x, f"{path}[{i}]") for i, x in enumerate(items)]
    return tuple(ints)


def as_fraction_vector(node, path: str, length=None) -> tuple[Fraction, ...]:
    return tuple(as_items(node, path, as_fraction, length))


def as_int_matrix(node, path: str, rows=None, cols=None) -> IntMatrix:
    """An integer matrix; without cols, each row as long as the first, and
    no rows 0 x cols (0x0 without cols)."""
    items = as_list(node, path, rows)
    if not items:
        return IntMatrix(0, cols or 0, ())
    if cols is None and isinstance(items[0], list):
        cols = len(items[0])
    # fast path: read whole, as _ints reads a vector; any offender, a
    # ragged or non-list row included, takes the per-row loop
    if set(map(type, items)) == {list} and {*map(len, items)} == {cols}:
        ints = _ints([*chain.from_iterable(items)])
        if ints is not None:
            return IntMatrix(len(items), cols, tuple(ints))
    return IntMatrix.from_rows(as_items(items, path, lambda r, at: as_int_vector(r, at, cols)))


def as_int_rows(node, path: str, rows=None, cols=None) -> tuple[tuple[int, ...], ...]:
    return as_int_matrix(node, path, rows, cols).to_rows()


_REQUIRED = object()


def field(mapping, path: str, key: str, read: Callable, *shape, default=_REQUIRED):
    """The key field of the object at path, put through read with its shape.
    A missing key is refused unless a default is given, which is returned
    as it is; a key that is present always goes through read, null too."""
    mapping = as_dict(mapping, path)
    if key in mapping:
        return read(mapping[key], f"{path}.{key}" if path else key, *shape)
    if default is _REQUIRED:
        raise _at(path, f"missing the {key!r} field")
    return default


def check_schema(document) -> None:
    declared = field(document, "", "schema", lambda node, _: node)
    if declared != SCHEMA:
        raise _at("schema", f"declares {declared!r}, this tool reads {SCHEMA!r}")
