"""Tests for repro.utils.serialization."""

import json
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.serialization import (
    canonical_json_bytes,
    from_json_file,
    to_json_file,
    to_jsonable,
)


class TestToJsonable:
    def test_passthrough_scalars(self):
        assert to_jsonable(3) == 3
        assert to_jsonable(2.5) == 2.5
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True

    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(4)) == 4
        assert isinstance(to_jsonable(np.int64(4)), int)
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_array(self):
        assert to_jsonable(np.array([1, 2, 3])) == [1, 2, 3]

    def test_nested_structures(self):
        data = {"a": [np.float64(1.0), {"b": (1, 2)}], "c": {4, 5} }
        result = to_jsonable(data)
        assert result["a"][0] == 1.0
        assert result["a"][1]["b"] == [1, 2]
        assert sorted(result["c"]) == [4, 5]

    def test_non_string_keys_are_stringified(self):
        result = to_jsonable({(1, 2): "pair", np.int64(3): "n"})
        assert result["(1, 2)"] == "pair"
        assert result[3] == "n"

    def test_object_with_to_dict(self):
        class Thing:
            def to_dict(self):
                return {"value": np.int64(7)}

        assert to_jsonable(Thing()) == {"value": 7}

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestJsonFileRoundTrip:
    def test_round_trip(self, tmp_path):
        payload = {"rows": [{"x": 1, "y": np.float64(2.0)}], "name": "demo"}
        path = to_json_file(payload, tmp_path / "out" / "result.json")
        assert path.exists()
        loaded = from_json_file(path)
        assert loaded["name"] == "demo"
        assert loaded["rows"][0]["y"] == 2.0

    def test_creates_parent_directories(self, tmp_path):
        path = to_json_file({"a": 1}, tmp_path / "deep" / "nested" / "f.json")
        assert path.exists()


# ----------------------------------------------------------------------
# canonical_json_bytes against its reference definition
# ----------------------------------------------------------------------
class Level(IntEnum):
    FINE = 0
    COARSE = 3


class Tag(str):
    """A plain ``str`` subclass."""


class Ratio(float):
    """A plain ``float`` subclass."""


class ReversedTag(str):
    """A ``str`` subclass that sorts backwards."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)

    __hash__ = str.__hash__


class Record:
    """An object serialised through its ``to_dict``."""

    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return self.payload


def reference_bytes(obj) -> bytes:
    """The frozen definition of the canonical bytes."""
    return (json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


def outcome(encode, obj):
    """The bytes ``encode`` produces for ``obj``, or ``TypeError`` if it raises one."""
    try:
        return encode(obj)
    except TypeError:
        return TypeError


any_text = st.text(st.characters(exclude_categories=()), max_size=12)  # surrogates included
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-05, 1e300, 5e-324]
)
big_ints = st.integers(min_value=-(10**40), max_value=10**40)
numpy_scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int32),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    floats.map(np.float64),
    st.booleans().map(np.bool_),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    big_ints,
    floats,
    any_text,
    any_text.map(Tag),
    floats.map(Ratio),
    st.sampled_from(Level),
    numpy_scalars,
)
arrays = st.one_of(
    st.lists(st.integers(min_value=-1000, max_value=1000), max_size=6).map(np.array),
    st.lists(floats, max_size=6).map(np.array),
    st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).map(
        lambda values: np.array(values).reshape(2, 2)
    ),
)
str_keys = st.one_of(any_text, st.sampled_from(["level", "epsilon", "groups", "a", "b"]))
odd_keys = st.one_of(
    any_text.map(Tag),
    st.integers(min_value=-5, max_value=5).map(np.int64),
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    st.just("(1, 2)"),
    st.sampled_from(Level),
)


def dicts(values):
    return st.one_of(
        st.dictionaries(str_keys, values, max_size=5),
        st.dictionaries(st.integers(min_value=-50, max_value=50) | st.booleans(), values, max_size=4),
        st.dictionaries(floats | st.integers(min_value=-3, max_value=3), values, max_size=4),
        st.dictionaries(st.none() | st.booleans(), values, max_size=3),
        st.dictionaries(odd_keys, values, max_size=4),
        st.dictionaries(st.one_of(str_keys, st.integers(), odd_keys, st.none()), values, max_size=4),
    )


documents = st.recursive(
    scalars | arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        dicts(children),
        dicts(children).map(Record),
        st.frozensets(st.integers(min_value=-20, max_value=20), max_size=4),
    ),
    max_leaves=25,
)


class TestCanonicalJsonBytes:
    @given(documents)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_bytes_or_its_type_error(self, document):
        assert outcome(canonical_json_bytes, document) == outcome(reference_bytes, document)

    @given(documents)
    @settings(max_examples=100, deadline=None)
    def test_repeat_encoding_is_stable(self, document):
        # The second pass reuses cached dict layouts.
        first = outcome(canonical_json_bytes, document)
        assert outcome(canonical_json_bytes, document) == first

    @pytest.mark.parametrize(
        "document",
        [
            {"b": 1, 2: "mixed"},
            {"level": [1, {"x": object()}]},
            object(),
            {(1, 2): object()},
            {"a": 1j},
        ],
        ids=["mixed-keys", "nested-object", "object", "odd-key-object", "complex"],
    )
    def test_raises_type_error_where_reference_does(self, document):
        with pytest.raises(TypeError):
            reference_bytes(document)
        with pytest.raises(TypeError):
            canonical_json_bytes(document)

    def test_equal_keys_of_another_type_do_not_reuse_a_layout(self):
        plain = {"a": 1, "b": 2, "c": 3}
        reversed_keys = {ReversedTag(key): value for key, value in plain.items()}
        assert canonical_json_bytes(plain) == reference_bytes(plain)
        assert canonical_json_bytes(reversed_keys) == reference_bytes(reversed_keys)
        assert canonical_json_bytes(reversed_keys) != canonical_json_bytes(plain)

    def test_colliding_odd_key_keeps_to_jsonable_semantics(self):
        document = {(1, 2): "tuple", "(1, 2)": "text", "z": [np.int64(4), (np.float32(0.5),)]}
        assert canonical_json_bytes(document) == reference_bytes(document)

    def test_exact_layout(self):
        document = {"b": [1, 2.5, None], "a": {"nested": True, "empty": {}, "list": []}}
        assert canonical_json_bytes(document) == (
            b'{\n  "a": {\n    "empty": {},\n    "list": [],\n    "nested": true\n  },\n'
            b'  "b": [\n    1,\n    2.5,\n    null\n  ]\n}\n'
        )
