"""Config validation against ``config_schema.json``, the one definition of
every config key's type, range, enum and array shape."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
from collections.abc import Mapping, Sequence, Set
from pathlib import Path

import numpy as np


def _canonical_json(obj) -> str:
    # A record's field that is not JSON (a complex, say) is compared by its repr.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def _show(value) -> str:
    """``value`` as JSON text, or as its ``repr`` when it is not JSON."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


# JSON type name -> the Python types ``json.loads`` gives for it. ``bool`` is
# its own type, so true and false are neither integers nor numbers.
_JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,),
               "boolean": (bool,), "integer": (int,), "number": (int, float)}
# The JSON Schema keywords the validator implements; the schema may use no other.
_SCHEMA_KEYWORDS = frozenset({
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "items",
    "minItems", "uniqueItems", "properties", "required",
    "additionalProperties", "oneOf", "description", "$comment",
})


def _check_schema(schema: dict, where: str = "#") -> None:
    """Raise ``ValueError`` if ``schema`` uses a keyword or type name the
    validator does not implement."""
    unknown = sorted(set(schema) - _SCHEMA_KEYWORDS)
    if unknown or schema.get("type") not in (None, *_JSON_TYPES):
        raise ValueError(f"config schema at {where} uses unsupported "
                         f"{unknown or schema['type']}")
    subschemas = {f"properties/{k}": v for k, v in schema.get("properties", {}).items()}
    subschemas.update((f"oneOf/{i}", v) for i, v in enumerate(schema.get("oneOf", ())))
    subschemas.update((k, schema[k]) for k in ("items", "additionalProperties")
                      if isinstance(schema.get(k), dict))
    for key, sub in subschemas.items():
        _check_schema(sub, f"{where}/{key}")


@functools.cache
def _config_schema() -> dict:
    """``config_schema.json``, checked to use only supported keywords."""
    schema = json.loads(Path(__file__).with_name("config_schema.json").read_text())
    _check_schema(schema)
    return schema


def _schema_errors(value, schema: dict, path: str = "", _root: str = "the config",
                   _noun: str = "config key"):
    """Yield one message per way ``value`` breaks ``schema``; each names the
    key path (``sweep.m_list[1]``) of the offending value, as ``_noun`` plus
    the path, or as ``_root`` for ``value`` itself."""
    at = f"{_noun} '{path}'" if path else _root
    kind = schema.get("type")
    if kind is not None and type(value) not in _JSON_TYPES[kind]:
        yield f"{at} must be of type {kind}, not {_show(value)}"
        return
    if "enum" in schema and _canonical_json(value) not in map(_canonical_json, schema["enum"]):
        yield f"{at} is {_show(value)}; it must be one of {json.dumps(schema['enum'])}"
    if type(value) in (int, float):
        if "minimum" in schema and value < schema["minimum"]:
            yield f"{at} is {value}, below its minimum {schema['minimum']}"
        if "maximum" in schema and value > schema["maximum"]:
            yield f"{at} is {value}, above its maximum {schema['maximum']}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield f"{at} is {value}; it must be above {schema['exclusiveMinimum']}"
        if kind == "number" and type(value) is float and not math.isfinite(value):
            yield f"{at} is {value}; it must be finite"
    elif type(value) is list:
        if len(value) < schema.get("minItems", 0):
            yield f"{at} has {len(value)} items; it needs at least {schema['minItems']}"
        if schema.get("uniqueItems") and len(set(map(_canonical_json, value))) < len(value):
            yield f"{at} repeats an item; its items must be unique"
        for i, item in enumerate(value):
            yield from _schema_errors(item, schema.get("items", {}), f"{path}[{i}]",
                                      _root, _noun)
    elif type(value) is dict:
        prefix = f"{path}." if path else ""
        properties = schema.get("properties", {})
        for key, item in value.items():
            sub = properties.get(key, schema.get("additionalProperties", {}))
            if sub is False:
                yield (f"{_noun} '{prefix}{key}' is unknown; {at} takes "
                       f"{', '.join(sorted(properties))}")
            else:
                yield from _schema_errors(item, sub, prefix + key, _root, _noun)
        for key in schema.get("required", ()):
            if key not in value:
                yield f"{_noun} '{prefix}{key}' is required"
    if "oneOf" in schema:
        failed = [next(_schema_errors(value, alt, path, _root, _noun), None)
                  for alt in schema["oneOf"]]
        n_fit = failed.count(None)
        if n_fit != 1:
            detail = "; ".join(failed) if n_fit == 0 else schema.get("description", "")
            yield f"{at} fits {n_fit} of its forms but must fit exactly one: {detail}"


def _json_value(value):
    """``value`` as the JSON value the schema reads: numpy values as Python
    ones, sequences and sets as lists, other reals as ints or floats (a
    ``Fraction`` as a float), mapping keys as strings."""
    if isinstance(value, np.ndarray | np.generic):
        value = value.tolist()
    if isinstance(value, Mapping):
        return {str(key): _json_value(item) for key, item in value.items()}
    if isinstance(value, Sequence | Set) and not isinstance(value, str | bytes):
        return [_json_value(item) for item in value]
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return int(value) if isinstance(value, numbers.Integral) else float(value)
    return value


def _check_fields(record, section: str) -> dict:
    """The dataclass ``record``'s fields as JSON values, a field whose default
    is None left out while None; raises ``ValueError`` naming the record and
    the field at the first way they break the schema's ``section``."""
    name = type(record).__name__
    fields = {f.name: _json_value(getattr(record, f.name)) for f in dataclasses.fields(record)
              if f.default is not None or getattr(record, f.name) is not None}
    for error in _schema_errors(fields, _config_schema()["properties"][section],
                                _root=name, _noun=f"{name} field"):
        raise ValueError(error)
    return fields
