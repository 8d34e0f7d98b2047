"""JSON serialization helpers.

Release objects, hierarchies and experiment results all support a
``to_dict()`` / ``from_dict()`` pair; the helpers here handle the last mile of
turning those dictionaries into files, converting NumPy scalars and arrays
into plain Python types along the way.

:func:`canonical_json_bytes` is the one canonical serialisation, and its
bytes are frozen: exactly those of
``(json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n").encode()``.
Stored release documents, the SHA-256 level, answer and legacy partition
fingerprints, the catalog ``graph`` column and served response bodies (and
so their ETags) are all these bytes or digests of them.  A refresh reuses a
stored level only when its recomputed fingerprint equals the stored one, so
any drift would re-perturb, and re-spend the budget of, every level of every
stored release.  ``tests/golden/release_bytes.json`` and the oracle test in
``tests/test_utils_serialization.py`` pin them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

PathLike = Union[str, Path]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable Python types.

    NumPy integers, floats, booleans and arrays are converted to their Python
    equivalents; sets and tuples become lists; dictionaries keep their keys
    (converted to ``str`` when they are not already JSON-safe).
    """
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(key, (str, int, float, bool)) or key is None:
                json_key = key
            elif isinstance(key, (np.integer,)):
                json_key = int(key)
            elif isinstance(key, (np.floating,)):
                json_key = float(key)
            else:
                json_key = str(key)
            out[json_key] = to_jsonable(value)
        return out
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    raise TypeError(f"object of type {type(obj).__name__} is not JSON-serialisable")


_quote: Callable[[str], str] = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_INFINITY = float("inf")


def _float_text(value: float) -> str:
    """``json``'s spelling of a float, by its own test (so a float subclass's
    ``==`` applies): ``NaN``/``Infinity``, else ``float.__repr__``."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return _float_repr(value)


def _key_text(key: Any) -> str:
    """A JSON-safe dict key quoted the way ``json`` spells it."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    return _quote(_int_repr(key))


def _numpy_int_text(value: np.integer) -> str:
    return _int_repr(int(value))


def _numpy_float_text(value: np.floating) -> str:
    return _float_text(float(value))


#: Exact scalar type -> its JSON text, as ``json`` spells it after
#: :func:`to_jsonable` (NumPy scalars become Python ``int``/``float``).
_SCALAR_TEXT: Dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: _int_repr,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
for _type in set(np.sctypeDict.values()):
    if issubclass(_type, np.integer):
        _SCALAR_TEXT[_type] = _numpy_int_text
    elif issubclass(_type, np.floating):
        _SCALAR_TEXT[_type] = _numpy_float_text
del _type

_JSON_KEYS = {str, int, float, bool, type(None)}

#: Layouts of small dicts with exact-``str`` keys, by ``(indent, key
#: types..., keys...)`` (see :func:`_dict_layout`).  A release repeats a few
#: dozen dict layouts (per level, per statistic, per fingerprint payload), so
#: most dicts skip sorting and quoting their keys.  Key types are part of the
#: signature, so a key that merely equals a ``str`` never reuses its layout.
_LAYOUTS: Dict[tuple, tuple] = {}
_LAYOUT_MAX_KEYS = 32
_LAYOUT_CACHE_SIZE = 1024


def _emit(value: Any, indent: str, append: Callable[[str], None]) -> None:
    """Append the canonical JSON text of ``value``; ``indent`` is the newline
    plus the indentation of the line ``value`` starts on."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        append(text(value))
    elif type(value) is dict:
        _emit_dict(value, indent, append)
    elif type(value) is list:
        _emit_list(value, indent, append)
    elif isinstance(value, str):
        append(_quote(value))
    elif isinstance(value, int):
        append(_int_repr(value))
    elif isinstance(value, float):
        append(_float_text(value))
    else:
        # Tuples, sets, arrays, subclasses, ``to_dict`` objects: convert
        # once; the result is plain JSON types (or str/int/float subclasses,
        # spelled above), so this never recurses back here.
        _emit(to_jsonable(value), indent, append)


def _emit_list(items: list, indent: str, append: Callable[[str], None]) -> None:
    if not items:
        append("[]")
        return
    inner = indent + "  "
    separator = "," + inner
    prefix = "[" + inner
    scalar_text = _SCALAR_TEXT.get
    for item in items:
        text = scalar_text(type(item))
        if text is not None:
            append(prefix + text(item))
        else:
            append(prefix)
            _emit(item, inner, append)
        prefix = separator
    append(indent + "]")


def _dict_layout(mapping: dict, indent: str) -> Optional[tuple]:
    """``((key, head) pairs in key order, inner indent, closing text)`` of a
    dict whose keys are all exact ``str``; ``None`` for any other dict.

    A head is the text before a value: ``{`` or ``,``, a newline, the inner
    indent, the quoted key and ``": "``.
    """
    if set(map(type, mapping)) - {str}:
        return None
    inner = indent + "  "
    pairs = [(key, "," + inner + _quote(key) + ": ") for key in sorted(mapping)]
    if not pairs:
        return pairs, inner, "{}"
    pairs[0] = (pairs[0][0], "{" + pairs[0][1][1:])
    return pairs, inner, indent + "}"


def _emit_dict(mapping: dict, indent: str, append: Callable[[str], None]) -> None:
    signature = (indent, *map(type, mapping), *mapping)
    layout = _LAYOUTS.get(signature)
    if layout is None:
        layout = _dict_layout(mapping, indent)
        if layout is None:
            _emit_any_keys(mapping, indent, append)
            return
        if len(mapping) <= _LAYOUT_MAX_KEYS:
            if len(_LAYOUTS) >= _LAYOUT_CACHE_SIZE:
                _LAYOUTS.clear()
            _LAYOUTS[signature] = layout
    pairs, inner, close = layout
    scalar_text = _SCALAR_TEXT.get
    for key, head in pairs:
        value = mapping[key]
        text = scalar_text(type(value))
        if text is not None:
            append(head + text(value))
        elif type(value) is dict:
            append(head)
            _emit_dict(value, inner, append)
        else:
            append(head)
            _emit(value, inner, append)
    append(close)


def _emit_any_keys(mapping: dict, indent: str, append: Callable[[str], None]) -> None:
    """A non-empty dict with a key other than an exact ``str``, as ``json``
    spells it after :func:`to_jsonable`."""
    if not set(map(type, mapping)) <= _JSON_KEYS:
        # Odd keys are stringified (and may then collide) by to_jsonable.
        mapping = to_jsonable(mapping)
    inner = indent + "  "
    separator = "," + inner
    prefix = "{" + inner
    # Sorted on (key, value) pairs as json sorts them; mixed key types raise
    # its TypeError.  Keys are distinct, so values are never compared.
    for key, value in sorted(mapping.items()):
        append(prefix + _key_text(key) + ": ")
        _emit(value, inner, append)
        prefix = separator
    append(indent + "}")


def canonical_json_bytes(obj: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, 2-space indent, trailing newline.

    The single definition of the canonical serialisation shared by the
    release store (stored documents), the content fingerprints and the
    serving layer (HTTP responses): both sides using this one helper is
    what makes a stored release byte-identical across store backends and
    over the wire.

    The bytes are exactly
    ``(json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")``
    and must stay so: stored level fingerprints, the catalog ``graph``
    column and served ETags are digests of them (see the module docstring).
    ``indent`` keeps ``json`` on its pure-Python encoder, so one emitter
    writes the same text directly: exact-type fast paths for plain and
    NumPy scalars, ``str`` through ``json``'s C escaper, and
    :func:`to_jsonable` applied only to values that need it.  Mixed-type
    keys and unserialisable objects raise ``TypeError`` as ``json`` does.
    """
    parts: List[str] = []
    _emit(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts).encode("utf-8")


def to_json_file(obj: Any, path: PathLike, indent: int = 2) -> Path:
    """Write ``obj`` (after :func:`to_jsonable` conversion) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(obj), handle, indent=indent, sort_keys=True)
        handle.write("\n")
    return path


def from_json_file(path: PathLike) -> Any:
    """Load a JSON document written by :func:`to_json_file`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)
