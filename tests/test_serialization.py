import dataclasses
import json
import math
import re

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given
from hypothesis import strategies as st

import framekit as fk
from framekit import serialization as ser
from framekit.errors import SchemaError

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_system_round_trip_bitwise(rng):
    cols = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    vs = fk.VectorSystem(cols, labels=tuple(f"c{i}" for i in range(7)))
    doc = json.loads(json.dumps(ser.system_to_json(vs)))
    back = ser.system_from_json(doc)
    assert np.array_equal(vs.columns, back.columns)
    assert back.labels == vs.labels


@given(st.lists(finite_doubles, min_size=4, max_size=4))
def test_system_round_trip_extreme_floats(values):
    cols = np.array([[complex(values[0], values[1])], [complex(values[2], values[3])]])
    vs = fk.VectorSystem(cols)
    text = ser.dumps(ser.system_to_json(vs))
    assert "".join(ser._system_chunks(vs)) == text
    back = ser.system_from_json(json.loads(text))
    assert np.array_equal(vs.columns, back.columns)


def test_system_schema_rejects_dim_zero():
    doc = {"v": 1, "dim": 0, "count": 1, "columns": []}
    with pytest.raises(SchemaError):
        ser.system_from_json(doc)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.pop("v"),
        lambda d: d.update(v=2),
        lambda d: d.pop("columns"),
        lambda d: d.update(columns=d["columns"][:-1]),
        lambda d: d.update(columns=d["columns"][:-1] + [[1.0]]),
        lambda d: d.update(dim="two"),
        lambda d: d.update(count=0),
        lambda d: d.update(labels=["a", "a"]),
        lambda d: d.update(labels=[1, 2]),
    ],
)
def test_system_schema_rejects_malformed(mutation):
    doc = ser.system_to_json(fk.orthonormal(2))
    mutation(doc)
    with pytest.raises(SchemaError):
        ser.system_from_json(doc)


def test_file_round_trip(tmp_path):
    vs = fk.lemma51(6)
    path = tmp_path / "sys.json"
    ser.save_system(vs, path)
    assert path.read_bytes() == ser.dumps(reference_system_to_json(vs)).encode()
    back = ser.load_system(path)
    assert np.array_equal(vs.columns, back.columns)


def test_trace_round_trip(tmp_path):
    trace = fk.extract_frame(fk.lemma51(12), 0.25)
    path = tmp_path / "trace.json"
    ser.save_trace(trace, path)
    back = ser.load_trace(path)
    assert back.final_subset == trace.final_subset
    assert len(back.rounds) == len(trace.rounds)
    assert back.final_riesz_constant == trace.final_riesz_constant
    assert back.stop_reason == trace.stop_reason
    assert back.rounds[0].selected == trace.rounds[0].selected


def test_valid_trace_documents_decode_unchanged():
    for trace in (
        fk.extract_frame(fk.lemma51(12), 0.25),
        fk.extract_frame(fk.random_frame(24, 48, seed=1, cond=1e3), 0.25, c=0.8),
        fk.extract_biorthogonal(fk.perturbed_pairs(8), 0.25),
    ):
        doc = json.loads(ser.dumps(ser.trace_to_json(trace)))
        back = ser.trace_from_json(doc)
        assert back.rounds == trace.rounds
        assert ser.dumps(ser.trace_to_json(back)) == ser.dumps(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("examined", "abc"),
        ("selected", "abc"),
        ("residual_norms", "12"),
        ("round", "1"),
        ("round", True),
        ("bt_target", 2.0),
        ("normalized", 1),
    ],
)
def test_trace_schema_rejects_wrong_round_field_type(field, value):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    doc["rounds"][0][field] = value
    with pytest.raises(SchemaError, match=field):
        ser.trace_from_json(doc)


@pytest.mark.parametrize("value", ["abc", {"0": 1}, 3])
def test_trace_schema_rejects_non_list_final_subset(value):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    doc["final_subset"] = value
    with pytest.raises(SchemaError, match="final_subset"):
        ser.trace_from_json(doc)


@pytest.mark.parametrize("text, value", [("inf", math.inf), ("-inf", -math.inf)])
def test_trace_decodes_an_infinite_round_value(text, value):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    doc["rounds"][0]["rule2_lower_bound"] = text
    assert ser.trace_from_json(doc).rounds[0].rule2_lower_bound == value


@pytest.mark.parametrize(
    "path, value",
    [
        (("parameters",), []),
        (("parameters",), "eps"),
        (("rounds", 0, "examined"), ["a"]),
        (("rounds", 0, "examined"), [True]),
        (("rounds", 0, "selected"), [1.5]),
        (("final_subset",), ["0"]),
        (("mode",), 5),
        (("mode",), "sideways"),
        (("stop_reason",), 5),
        (("stop_reason",), None),
    ],
    ids=["parameters-list", "parameters-str", "examined-str", "examined-bool",
         "selected-float", "final_subset-str", "mode-int", "mode-unknown",
         "stop_reason-int", "stop_reason-null"],
)
def test_trace_schema_rejects_malformed_fields(path, value):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    with pytest.raises(SchemaError, match=str(path[-1])):
        ser.trace_from_json(doc)


def test_trace_round_trip_preserves_infinite_bound(tmp_path):
    vs = fk.perturbed_pairs(8)
    trace = fk.extract_biorthogonal(vs, 0.25)
    assert trace.parameters["theoretical_bound"] == math.inf
    path = tmp_path / "trace.json"
    ser.save_trace(trace, path)
    back = ser.load_trace(path)
    assert back.parameters["theoretical_bound"] == math.inf
    text = path.read_text()
    assert "Infinity" not in text and '"inf"' in text


def test_metrics_json_encodes_infinity_as_string():
    doc = ser.metrics_to_json(fk.basis_metrics(fk.duplicated(2)))
    assert doc["riesz"] == "inf"
    assert doc["besselian"] == "inf"
    assert doc["separation"] == pytest.approx(0.0, abs=1e-12)


def test_report_json_fields():
    doc = ser.report_to_json(fk.frame_report(fk.orthonormal(3)))
    assert set(doc) == {
        "lower_bound",
        "upper_bound",
        "min_norm",
        "max_norm",
        "is_tight",
        "is_spanning",
        "tolerance",
    }


def test_selection_json_fields():
    doc = ser.selection_to_json(fk.select_greedy(fk.orthonormal(3), 2))
    assert doc["subset"] == [0, 1]
    assert doc["method"] == "greedy"


# ---------------------------------------------------------------------------
# result documents derive from their dataclasses


def _strict_loads(text):
    """json.loads that refuses the non-standard tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ser.report_to_json(fk.frame_report(fk.orthonormal(2), math.inf)), "tolerance"),
        (lambda: ser.metrics_to_json(fk.basis_metrics(fk.duplicated(2))), "riesz"),
        (lambda: ser.trace_to_json(fk.extract_biorthogonal(fk.perturbed_pairs(8), 0.25)),
         "parameters"),
    ],
    ids=["report-tolerance", "metrics", "trace-parameters"],
)
def test_documents_with_an_infinite_value_are_strict_json(build, field):
    doc = build()
    assert "inf" in json.dumps(doc[field])
    assert _strict_loads(ser.dumps(doc)) == doc


def _parent_node(doc, path):
    """The node of doc that holds the last step of path, and that step."""
    *parents, key = path
    for step in parents:
        doc = doc[step]
    return doc, key


def _node_id(value):
    """"rounds.0.coverage" for a path into a document; pytest's default id otherwise."""
    return ".".join(map(str, value)) if isinstance(value, tuple) else None


ROUND_FIELDS = [f.name for f in dataclasses.fields(fk.ExtractionRound)]


def test_round_documents_write_and_read_every_extraction_round_field():
    assert list(ser._ROUND_READERS) == ROUND_FIELDS
    written = set()
    for trace in (
        fk.extract_frame(fk.random_frame(3, 6, 0), 0.25, 0.5),
        fk.extract_biorthogonal(fk.perturbed_pairs(2), 0.25, 0.5),
    ):
        doc = json.loads(ser.dumps(ser.trace_to_json(trace)))
        for rnd, entry in zip(trace.rounds, doc["rounds"], strict=True):
            present = [name for name in ROUND_FIELDS if getattr(rnd, name) is not None]
            assert set(entry) == {ser._DOC_KEYS.get(name, name) for name in present}
            written |= set(entry)
        assert ser.trace_from_json(doc).rounds == trace.rounds
    assert written == {ser._DOC_KEYS.get(name, name) for name in ROUND_FIELDS}


REQUIRED_ROUND_KEYS = ["round", "examined", "residual_norms", "selected", "certified_bound",
                       "bt_target", "normalized", "coverage"]
TRACE_KEYS = ["mode", "rounds", "final_subset", "final_riesz_constant", "stop_reason", "parameters"]


@pytest.mark.parametrize(
    "path",
    [("rounds", 0, key) for key in REQUIRED_ROUND_KEYS] + [(key,) for key in TRACE_KEYS],
    ids=_node_id,
)
def test_trace_decoder_names_a_missing_field(path):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    node, key = _parent_node(doc, path)
    del node[key]
    with pytest.raises(SchemaError) as exc:
        ser.trace_from_json(doc)
    assert str(exc.value) == f"field {key!r}: missing"


@pytest.mark.parametrize(
    "path, value",
    [
        (("rounds",), [5]),
        (("rounds",), 5),
        (("rounds",), {"0": {}}),
        (("rounds", 0, "certified_bound"), None),
        (("rounds", 0, "coverage"), [0.5]),
        (("rounds", 0, "coverage"), True),
        (("rounds", 0, "rule2_lower_bound"), "x"),
        (("rounds", 0, "residual_norms", 0), None),
        (("final_riesz_constant",), {}),
        (("final_riesz_constant",), "Infinity"),
        (("mode",), None),
        (("parameters",), None),
    ],
    ids=_node_id,
)
def test_trace_decoder_names_an_ill_typed_field(path, value):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    node, key = _parent_node(doc, path)
    node[key] = value
    name = next(step for step in reversed(path) if isinstance(step, str))
    with pytest.raises(SchemaError, match=f"^field '{name}': "):
        ser.trace_from_json(doc)


def test_gallery_spec_round_trip():
    spec = fk.GallerySpec("weightedExponentials", {"a": 0.25, "N": 4, "sign": "-"})
    doc = ser.gallery_spec_to_json(spec)
    back = ser.gallery_spec_from_json(doc)
    assert back == spec


def test_gallery_spec_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        ser.gallery_spec_from_json({"kind": "mystery"})


# ---------------------------------------------------------------------------
# parity of the array-speed system codec with the per-entry codec it replaced


def reference_system_to_json(system):
    pairs = []
    for i in range(system.count):
        for k in range(system.dim):
            z = system.columns[k, i]
            pairs.append([float(z.real), float(z.imag)])
    doc = {"v": 1, "dim": system.dim, "count": system.count, "columns": pairs}
    if system.labels is not None:
        doc["labels"] = list(system.labels)
    return doc


def reference_columns_from_json(doc):
    """The former decoding loop of system_from_json, after its header checks."""
    dim, count, pairs = doc["dim"], doc["count"], doc["columns"]
    cols = np.zeros((dim, count), dtype=np.complex128)
    for pos, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            raise SchemaError(f"field 'columns'[{pos}]: expected an [re, im] pair")
        cols[pos % dim, pos // dim] = complex(pair[0], pair[1])
    return cols


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


SUBNORMAL = 5e-324
CODEC_ENTRIES = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308 / 3, 1.0, -2.5,
                 1.7976931348623157e308, 0.1]


# integral doubles, which repr writes with an exponent past 1e16 ("1e+16")
INTEGRAL = np.array([1e16, -1e16, 2.0**53, -(2.0**53) + 1, 1e22, 1e300, -1.0, 12345678901234.0,
                     1e15, 3.0, 0.0, -0.0, 2.0**63, 1e100, 7.0]) * (1 - 1j)


def codec_systems():
    entries = np.array(CODEC_ENTRIES)
    grid = entries[:, None] + 1j * entries[None, ::-1]  # 9 x 9, every sign and scale pair
    signed = np.array([[complex(0.0, -0.0), complex(-0.0, 0.0)], [complex(-0.0, -0.0), 1j]])
    return [
        fk.VectorSystem(grid),
        fk.VectorSystem(grid[:4, :7], tuple(f"col {i}" for i in range(7))),
        fk.VectorSystem(signed, ("a", "b")),
        fk.random_frame(6, 11, 3),
        fk.lemma52_block(2, 0.3),
        fk.VectorSystem(INTEGRAL.reshape(3, 5), ("é", "日本", "\u2016x\u2016", "\U0001d4d5", "")),
    ]


@pytest.mark.parametrize("system", codec_systems(), ids=lambda s: repr(s))
def test_system_codec_matches_per_entry_codec(system, tmp_path):
    doc = ser.system_to_json(system)
    assert doc == reference_system_to_json(system)
    assert ser.dumps(doc) == ser.dumps(reference_system_to_json(system))
    ser.save_system(system, tmp_path / "system.json")
    written = (tmp_path / "system.json").read_bytes()
    assert written == ser.dumps(reference_system_to_json(system)).encode()
    text_doc = json.loads(ser.dumps(doc))
    back = ser.system_from_json(text_doc)
    assert same_bits(back.columns, reference_columns_from_json(text_doc))
    assert same_bits(back.columns, system.columns)
    assert back.labels == system.labels


pair_entries = st.one_of(
    finite_doubles,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([0, -0.0, SUBNORMAL, -SUBNORMAL, 2**53 + 1, -(2**63) - 1]),
)


@given(st.integers(1, 3), st.data())
def test_system_decoder_matches_per_entry_decoder(dim, data):
    count = data.draw(st.integers(1, 3))
    pairs = data.draw(
        st.lists(st.lists(pair_entries, min_size=2, max_size=2), min_size=dim * count,
                 max_size=dim * count)
    )
    doc = {"v": 1, "dim": dim, "count": count, "columns": pairs}
    assert same_bits(ser.system_from_json(doc).columns, reference_columns_from_json(doc))


MALFORMED_PAIRS = [
    (0, "x"),
    (0, None),
    (1, 1.0),
    (2, (1.0, 2.0)),
    (3, {"re": 1.0, "im": 0.0}),
    (4, [1.0]),
    (5, [1.0, 2.0, 3.0]),
    (5, []),
    (0, [True, 0.0]),
    (3, [0.0, False]),
    (4, ["1.5", 0.0]),
    (1, [None, 0.0]),
    (2, [[1.0], 0.0]),
    (5, [1.0, {"x": 1}]),
]


@pytest.mark.parametrize("pos,bad", MALFORMED_PAIRS)
def test_system_decoder_reports_the_same_malformed_pair(pos, bad):
    doc = ser.system_to_json(fk.random_frame(2, 3, 0))
    doc["columns"][pos] = bad
    if pos < 5:
        doc["columns"][5] = [0.0, "later"]  # the first malformed pair is the one named
    with pytest.raises(SchemaError) as expected:
        reference_columns_from_json(doc)
    with pytest.raises(SchemaError) as got:
        ser.system_from_json(doc)
    assert str(got.value) == str(expected.value)
    assert f"'columns'[{pos}]" in str(got.value)


def test_system_decoder_accepts_number_subclasses_like_before():
    doc = ser.system_to_json(fk.orthonormal(2))
    doc["columns"][1] = [np.float64(0.5), np.float64(-0.0)]
    assert same_bits(ser.system_from_json(doc).columns, reference_columns_from_json(doc))


def test_system_decoder_rejects_an_integer_too_large_for_a_double():
    doc = {"v": 1, "dim": 2, "count": 1, "columns": [[1, 0], [0, -(10**400)]]}
    with pytest.raises(SchemaError, match=r"'columns'\[1\]: entry too large"):
        ser.system_from_json(doc)
    # the first fault in pair order is the one named, whichever its kind
    doc.update(count=3, columns=[[1, 0], [10**400, 0], [True, 0.0], [0, 0], [0, 0], [0, 0]])
    with pytest.raises(SchemaError, match=r"'columns'\[1\]: entry too large"):
        ser.system_from_json(doc)


def test_read_json_rejects_an_integer_over_the_digit_limit(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"v": 1, "dim": 1, "count": 1, "columns": [[1' + "0" * 5000 + ", 0]]}")
    with pytest.raises(SchemaError, match="invalid JSON"):
        ser.load_system(path)


@pytest.mark.parametrize(
    "path",
    [
        ("rounds", 0, "residual_norms", 1),
        ("rounds", 0, "certified_bound"),
        ("rounds", 0, "coverage"),
        ("rounds", 0, "rule2_lower_bound"),
        ("final_riesz_constant",),
    ],
)
def test_trace_decoder_rejects_an_integer_too_large_for_a_double(path):
    doc = ser.trace_to_json(fk.extract_frame(fk.random_frame(3, 6, 0), 0.25, 0.5))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = 10**400
    with pytest.raises(SchemaError, match="entry too large for a double"):
        ser.trace_from_json(doc)


def test_read_json_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes('{"v": 1}'.encode("utf-16"))  # starts with the bytes ff fe
    with pytest.raises(SchemaError, match="utf-8"):
        ser.load_system(path)


def test_read_json_rejects_nesting_past_the_recursion_limit(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(SchemaError, match="invalid JSON"):
        ser.load_system(path)


# ---------------------------------------------------------------------------
# load_system's fast path for the writer's layout, against the general path


SMALL_SPECS = {
    "orthonormal": {"n": 3},
    "lemma51": {"n": 4},
    "duplicated": {"n": 3, "doubleAmbient": True},
    "perturbedPairs": {"n": 4},
    "weightedExponentials": {"a": 0.25, "N": 3, "sign": -1},
    "lemma52Block": {"k": 2, "eps": 0.3},
    "prop53Truncation": {"M": 1, "epsilons": [0.3]},
    "randomFrame": {"n": 4, "m": 7, "seed": 3},
}


def test_small_specs_cover_every_gallery_kind():
    assert sorted(SMALL_SPECS) == sorted(fk.GALLERY_KINDS)


def parity_systems():
    gallery = [fk.generate(fk.GallerySpec(kind, params)) for kind, params in SMALL_SPECS.items()]
    return codec_systems() + gallery


def general_load(path):
    """load_system's general path: the whole text through json.loads, then system_from_json."""
    return ser.system_from_json(ser._parse_json(path.read_text(encoding="utf-8"), path))


def load_outcome(load, path):
    """The decoded system as (shape, bits, labels), or the SchemaError message."""
    try:
        system = load(path)
    except SchemaError as exc:
        return str(exc)
    return system.columns.shape, system.columns.view(np.uint64).tobytes(), system.labels


@pytest.mark.parametrize("system", parity_systems(), ids=lambda s: repr(s))
def test_load_system_matches_the_general_decoder(system, tmp_path):
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    back = ser.load_system(path)
    reference = ser.system_from_json(json.loads(path.read_text(encoding="utf-8")))
    assert same_bits(back.columns, reference.columns)
    assert same_bits(back.columns, system.columns)
    assert back.labels == reference.labels == system.labels


@pytest.mark.parametrize("system", parity_systems(), ids=lambda s: repr(s))
def test_load_system_reads_the_writers_layout_without_the_general_parser(
    system, tmp_path, monkeypatch
):
    path = tmp_path / "system.json"
    ser.save_system(system, path)

    def general_parser_called(*args):
        raise AssertionError("the writer's own layout took the general path")

    monkeypatch.setattr(ser, "_parse_json", general_parser_called)
    back = ser.load_system(path)
    assert same_bits(back.columns, system.columns)
    assert back.labels == system.labels


def writer_text(pairs, tail):
    """A system text in the writer's layout, built from the token strings of each pair."""
    return '{"columns": [' + ",".join("[" + ",".join(p) + "]" for p in pairs) + "]," + tail


def _edit_pairs(edit):
    """A mutation whose pairs of token strings are edit(pairs)."""
    return lambda pairs, tail: writer_text(edit([list(p) for p in pairs]), tail)


def _set_token(pair, entry, token):
    def edit(pairs):
        pairs[pair][entry] = token
        return pairs

    return _edit_pairs(edit)


def _edit_tail(edit):
    """A mutation whose text after the pairs is edit(tail)."""
    return lambda pairs, tail: writer_text(pairs, edit(tail))


def _edit_text(edit):
    """A mutation of the whole text in the writer's layout."""
    return lambda pairs, tail: edit(writer_text(pairs, tail))


TOKENS = [
    "+1", "01", "1.", ".5", "1.e5", "1.2.3", "1e5e3", "",  # not JSON
    "-0",  # the integer 0, so +0.0
    "NaN", "Infinity", "-Infinity",  # JSON extensions that json.loads accepts
    "1e400", "-1e400", str(10**400),  # past the double range, as floats and as an int
    "1E5", "-1.5e-3",  # valid forms the writer does not use
    '"0.5"', "true", "null", "[1]", "{}",  # JSON values that are not numbers
]
SECOND_COLUMNS = '"columns": [[0.5,0.5],[0.5,0.5],[0.5,0.5],[0.5,0.5],[0.5,0.5],[0.5,0.5]]'
ESCAPED_SECOND_COLUMNS = SECOND_COLUMNS.replace("columns", "col\\u0075mns")


def with_header(text, dim, count):
    """text with the header's "dim" and "count" set; the pairs hold no '"'."""
    text = re.sub(r'"dim": \d+', f'"dim": {dim}', text)
    return re.sub(r'"count": \d+', f'"count": {count}', text)


# (dim, count) against the mutation base's 2 x 3: fewer pairs, more, as many in
# another shape, and sizes whose array could not be allocated
HEADER_SIZES = [(2, 2), (2, 4), (1, 3), (3, 3), (1, 1), (6, 1), (1, 6), (3, 2),
                (2, 10**12), (10**12, 2), (10**6, 10**6)]
# a field holding ']],"', which the fast path finds after the pairs' own end
EXTRA_FIELD = '"extra": [[[1]],"x"]'

TEXT_MUTATIONS = {
    **{f"token {t!r} at {pos}": _set_token(*pos, t) for t in TOKENS for pos in [(0, 0), (5, 1)]},
    # the first "," of the text is inside the first pair
    "space inside a pair": _edit_text(lambda text: text.replace(",", ", ", 1)),
    "newline inside a pair": _edit_text(lambda text: text.replace(",", ",\n", 1)),
    "space after the prefix": _edit_text(lambda text: text.replace("[[", "[[ ", 1)),
    "space between pairs": _edit_text(lambda text: text.replace("],[", "], [", 1)),
    "three-number pair": _edit_pairs(lambda p: [p[0] + ["0.5"]] + p[1:]),
    "three-number pair then a one-number pair": _edit_pairs(
        lambda p: [p[0] + p[1][:1], p[1][1:]] + p[2:]),
    "empty pair": _edit_pairs(lambda p: [p[0], []] + p[2:]),
    "one-number pair": _edit_pairs(lambda p: p[:3] + [p[3][:1]] + p[4:]),
    "nested pair": _edit_pairs(lambda p: p[:2] + [["[" + p[2][0], p[2][1] + "]"]] + p[3:]),
    "a pair too few": _edit_pairs(lambda p: p[:-1]),
    "a pair too many": _edit_pairs(lambda p: p + [["1", "2"]]),
    "no pairs": lambda pairs, tail: '{"columns": [],' + tail,
    "empty columns body": lambda pairs, tail: '{"columns": [[]],' + tail,
    "',}' tail": lambda pairs, tail: writer_text(pairs, "}\n"),
    "trailing comma in the tail": _edit_tail(lambda t: t.replace('"v": 1}', '"v": 1,}')),
    "unclosed tail": _edit_tail(lambda t: t.replace("}", "")),
    "second columns key": _edit_tail(
        lambda t: t.replace('"v": 1}', f'"v": 1,{SECOND_COLUMNS}}}')),
    "escaped second columns key": _edit_tail(
        lambda t: t.replace('"v": 1}', f'"v": 1,{ESCAPED_SECOND_COLUMNS}}}')),
    "second dim key": _edit_tail(lambda t: t.replace('"v": 1}', '"v": 1,"dim": 3}')),
    "wrong dim": _edit_tail(lambda t: t.replace('"dim": 2', '"dim": 3')),
    "dim zero": _edit_tail(lambda t: t.replace('"dim": 2', '"dim": 0')),
    "dim a string": _edit_tail(lambda t: t.replace('"dim": 2', '"dim": "2"')),
    "labels of numbers": _edit_tail(
        lambda t: t.replace('"labels": ["a","b","c"]', '"labels": [1,2,3]')),
    "version 2": _edit_tail(lambda t: t.replace('"v": 1', '"v": 2')),
    "spaced prefix": _edit_text(lambda text: text.replace('": [[', '":  [[', 1)),
    "compact prefix": _edit_text(lambda text: text.replace('": [[', '":[[', 1)),
    "leading space": _edit_text(lambda text: " " + text),
    "text after the document": _edit_text(lambda text: text + "[]"),
    **{f"header {dim} x {count}": _edit_tail(lambda t, dim=dim, count=count: with_header(t, dim, count))
       for dim, count in HEADER_SIZES},
    "a later ']],\"' last in the tail": _edit_tail(
        lambda t: t.replace('"v": 1}', f'"v": 1,{EXTRA_FIELD}}}')),
    "a later ']],\"' first in the tail": _edit_tail(
        lambda t: t.replace('"count"', f'{EXTRA_FIELD},"count"')),
}


def mutation_base():
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    system = fk.VectorSystem(cols, ("a", "b", "c"))
    flat = ser._column_floats(system.columns).ravel().tolist()
    pairs = [[repr(flat[i]), repr(flat[i + 1])] for i in range(0, len(flat), 2)]
    return system, pairs, ser.dumps(ser._system_fields(system))[1:]


def test_mutation_base_is_the_writers_text(tmp_path):
    system, pairs, tail = mutation_base()
    ser.save_system(system, tmp_path / "system.json")
    assert (tmp_path / "system.json").read_text() == writer_text(pairs, tail)


@pytest.mark.parametrize("name", TEXT_MUTATIONS)
def test_load_system_decodes_mutated_text_like_the_general_path(name, tmp_path):
    _, pairs, tail = mutation_base()
    text = TEXT_MUTATIONS[name](pairs, tail)
    path = tmp_path / "system.json"
    path.write_text(text, encoding="utf-8")
    assert text != writer_text(pairs, tail)
    assert load_outcome(ser.load_system, path) == load_outcome(general_load, path)


# ---------------------------------------------------------------------------
# save_system and load_system work in blocks of _BLOCK_PAIRS pairs


@pytest.fixture(params=[1, 2, 3])
def small_blocks(request, monkeypatch):
    """Blocks of 1, 2 or 3 pairs, so that block edges fall between the pairs of small systems."""
    monkeypatch.setattr(ser, "_BLOCK_PAIRS", request.param)
    return request.param


@pytest.mark.parametrize("name", TEXT_MUTATIONS)
def test_small_blocks_decode_mutated_text_like_the_general_path(name, small_blocks, tmp_path):
    test_load_system_decodes_mutated_text_like_the_general_path(name, tmp_path)


@pytest.mark.parametrize("system", parity_systems(), ids=lambda s: repr(s))
def test_small_blocks_read_the_writers_layout_without_the_general_parser(
    system, small_blocks, tmp_path, monkeypatch
):
    test_load_system_reads_the_writers_layout_without_the_general_parser(
        system, tmp_path, monkeypatch
    )


@pytest.mark.parametrize("system", parity_systems(), ids=lambda s: repr(s))
def test_small_blocks_write_the_per_entry_codec_bytes(system, small_blocks, tmp_path):
    ser.save_system(system, tmp_path / "system.json")
    written = (tmp_path / "system.json").read_bytes()
    assert written == ser.dumps(reference_system_to_json(system)).encode()


def reader_block_pairs(text, monkeypatch):
    """The number of pairs in each block that load_system's fast path decodes."""
    sizes = []
    loads = json.loads

    def recording_loads(s, *args, **kwargs):
        value = loads(s, *args, **kwargs)
        if isinstance(value, list):  # a block, not the fields after the pairs
            sizes.append(len(value) // 2)
        return value

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", recording_loads)
        assert ser._system_from_writer_text(text) is not None
    return sizes


B = ser._BLOCK_PAIRS
# random_frame(n, m) has n * m pairs: B - 1, B, B + 1 and 2B + 1
BLOCK_EDGE_FRAMES = [(127, 129), (128, 128), (113, 145), (99, 331)]


@pytest.mark.parametrize("n,m", BLOCK_EDGE_FRAMES)
def test_systems_at_the_block_edges_round_trip(n, m, tmp_path, monkeypatch):
    system = fk.random_frame(n, m, 5)
    text = "".join(ser._system_chunks(system))
    assert text == ser.dumps(reference_system_to_json(system))
    sizes = reader_block_pairs(text, monkeypatch)
    assert sum(sizes) == n * m
    assert all(B // 2 <= k <= 2 * B for k in sizes[:-1])  # about B pairs each
    test_load_system_reads_the_writers_layout_without_the_general_parser(
        system, tmp_path, monkeypatch
    )


# each at least as long as any repr of a double, so the bad text is cut where the good one is
LONG_BAD_TOKENS = {
    "int past the double range": str(10**400),
    "float past the double range": "9" * 30 + "e300",  # json reads it as inf
    "string": '"' + "0" * 30 + '"',
    "not JSON": "1.2.3" + "4" * 30,
}


@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("name", LONG_BAD_TOKENS)
def test_a_bad_token_in_the_last_pair_of_a_block(name, block, tmp_path, monkeypatch):
    system = fk.random_frame(99, 331, 5)  # 2B + 1 pairs
    flat = ser._column_floats(system.columns).ravel().tolist()
    pairs = [[repr(flat[i]), repr(flat[i + 1])] for i in range(0, len(flat), 2)]
    tail = ser.dumps(ser._system_fields(system))[1:]
    assert writer_text(pairs, tail) == "".join(ser._system_chunks(system))
    sizes = reader_block_pairs(writer_text(pairs, tail), monkeypatch)
    assert len(sizes) >= 2
    last = sum(sizes[:block + 1]) - 1
    path = tmp_path / "system.json"
    path.write_text(_set_token(last, 1, LONG_BAD_TOKENS[name])(pairs, tail), encoding="utf-8")
    assert load_outcome(ser.load_system, path) == load_outcome(general_load, path)


def test_save_and_load_hold_one_block_of_python_floats(tmp_path):
    system = fk.random_frame(128, 2048, 3, 100.0)  # 16 blocks of pairs
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    text_bytes, array_bytes = path.stat().st_size, system.columns.nbytes
    # a Python float per entry alone would take 24 bytes per 8-byte double
    assert traced_peak(lambda: ser.save_system(system, path)) <= 2 * array_bytes + 2**21
    assert traced_peak(lambda: ser.load_system(path)) <= 2 * text_bytes + 2 * array_bytes



def test_load_holds_the_text_and_one_array(tmp_path):
    # mostly zeros, so the text (6.1 MiB) is smaller than the array (8 MiB)
    system = fk.assemble_block_system([fk.random_frame(32, 64, seed) for seed in range(16)])
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    text_bytes, array_bytes = path.stat().st_size, system.columns.nbytes
    assert text_bytes < array_bytes
    # the blocks of pairs take under 2 MiB; a copy of the decoded array would not fit
    assert traced_peak(lambda: ser.load_system(path)) <= text_bytes + array_bytes + 2**21


@pytest.mark.parametrize("count", [63, 65, 1, 4096, 10**5, 10**12])
def test_a_header_off_the_pairs_holds_the_text_and_one_array(count, tmp_path):
    system = fk.random_frame(64, 64, 2)
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    path.write_text(with_header(path.read_text(), 64, count), encoding="utf-8")
    text_bytes, array_bytes = path.stat().st_size, system.columns.nbytes
    outcome = []
    # a count of 10**5 is a 98 MiB array, which a text of 4096 pairs cannot fill
    peak = traced_peak(lambda: outcome.append(load_outcome(ser.load_system, path)))
    assert outcome == [load_outcome(general_load, path)]
    assert peak <= text_bytes + array_bytes + 2**21


def test_save_holds_one_block_of_columns(tmp_path):
    system = fk.random_frame(128, 2048, 3, 100.0)  # 4 MiB of columns
    block_bytes = 16 * system.dim * (ser._BLOCK_PAIRS // system.dim)
    # a block's floats, its tuple and its text take under 3 MiB as Python objects
    peak = traced_peak(lambda: ser.save_system(system, tmp_path / "system.json"))
    assert peak <= block_bytes + 3 * 2**20


def test_prop53_build_holds_two_arrays_at_most():
    holder = []
    peak = traced_peak(lambda: holder.append(fk.build_prop53_truncation(2, [0.1, 0.1])[0]))
    # the layers and their block-diagonal sum, then the sum and the real norm buffer
    assert peak <= 2 * holder[0].columns.nbytes + 2**20


@pytest.mark.parametrize("dim,count", [(1, 7), (2, 7), (3, 4), (4, 3), (7, 2)])
def test_small_blocks_cut_the_writer_text_at_whole_columns(dim, count, small_blocks):
    rng = np.random.default_rng(dim * count)
    system = fk.VectorSystem(rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count)))
    chunks = list(ser._system_chunks(system))
    step = max(1, small_blocks // dim)  # one column per block when dim > _BLOCK_PAIRS
    pair_chunks = chunks[1:-1]
    assert len(pair_chunks) == -(-count // step)
    assert [c.count("[") for c in pair_chunks] == [
        dim * min(step, count - j) for j in range(0, count, step)
    ]
    assert "".join(chunks) == ser.dumps(reference_system_to_json(system))


# ---------------------------------------------------------------------------
# exact zeros: +0.0 is written as the literal 0.0 and read without the float scanner


def zero_base():
    """A labelled system with +0.0 and -0.0 as re and as im, all-zero pairs and a subnormal."""
    pairs = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
             (1.5, 0.0), (0.0, -2.5), (SUBNORMAL, 0.0), (0.0, 0.0)]
    floats = np.array(pairs).reshape(4, 2, 2)  # count, dim, [re, im]
    system = fk.VectorSystem(floats.view(np.complex128)[..., 0].T, tuple("abcd"))
    flat = ser._column_floats(system.columns).ravel().tolist()
    tokens = [[repr(flat[i]), repr(flat[i + 1])] for i in range(0, len(flat), 2)]
    return system, tokens, ser.dumps(ser._system_fields(system))[1:]


def test_zero_base_is_the_writers_text(tmp_path):
    system, tokens, tail = zero_base()
    ser.save_system(system, tmp_path / "system.json")
    text = (tmp_path / "system.json").read_text()
    assert text == writer_text(tokens, tail)
    assert text.startswith('{"columns": [[0.0,0.0],[-0.0,0.0],[0.0,-0.0],[-0.0,-0.0],')


ZERO_TOKENS = [
    "0.0", "-0.0", "0.00", "00.0", "-0.00", "0.0e0", "0.0E0", "0e0", "0", "-0", "00", ".0", "0.",
    "+0.0", "0.0.0", "0.0e", "0.0-", "1e400", "-1e-400", "5e-324", "1.5",
    "false", "true", "null", "", "0.0 ", " 0.0", "[0.0]", "0.0,0.0",
]


@pytest.mark.parametrize("token", ZERO_TOKENS)
def test_load_system_decodes_zero_tokens_like_the_general_path(token, tmp_path):
    system, tokens, tail = zero_base()
    path = tmp_path / "system.json"
    for pair in range(len(tokens)):
        for entry in (0, 1):
            path.write_text(_set_token(pair, entry, token)(tokens, tail), encoding="utf-8")
            assert load_outcome(ser.load_system, path) == load_outcome(general_load, path)


@pytest.mark.parametrize("token", ZERO_TOKENS)
def test_small_blocks_decode_zero_tokens_like_the_general_path(token, small_blocks, tmp_path):
    test_load_system_decodes_zero_tokens_like_the_general_path(token, tmp_path)


def zero_systems():
    """Systems of exact zeros: all +0.0, all -0.0, mixed signs, subnormals, real-valued."""
    rng = np.random.default_rng(11)

    def of_floats(values, dim, count):
        floats = rng.choice(np.array(values), size=(dim, count, 2))
        return fk.VectorSystem(floats.view(np.complex128)[..., 0])

    return [
        fk.VectorSystem(np.zeros((3, 4))),
        fk.VectorSystem(np.full((2, 3), complex(-0.0, -0.0))),
        of_floats([0.0, -0.0], 4, 5),
        of_floats([0.0, -0.0, 1.0, -0.5, 0.1], 5, 6),
        of_floats([0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308 / 3], 3, 7),
        fk.VectorSystem(rng.standard_normal((4, 7))),
        fk.VectorSystem(np.where(rng.random((6, 9)) < 0.7, 0.0, rng.standard_normal((6, 9)))),
        fk.generate(fk.GallerySpec("prop53Truncation", SMALL_SPECS["prop53Truncation"])),
    ]


@pytest.mark.parametrize("system", zero_systems(), ids=lambda s: repr(s))
def test_zero_systems_write_the_per_entry_codec_bytes(system, tmp_path):
    expected = ser.dumps(reference_system_to_json(system))
    assert "".join(ser._system_chunks(system)) == expected
    ser.save_system(system, tmp_path / "system.json")
    assert (tmp_path / "system.json").read_bytes() == expected.encode()
    assert same_bits(ser.load_system(tmp_path / "system.json").columns, system.columns)


@pytest.mark.parametrize("system", zero_systems(), ids=lambda s: repr(s))
def test_small_blocks_write_zero_systems_like_the_per_entry_codec(system, small_blocks, tmp_path):
    test_zero_systems_write_the_per_entry_codec_bytes(system, tmp_path)


def test_the_fast_path_parses_no_zero_token(monkeypatch):
    system = fk.generate(fk.GallerySpec("prop53Truncation", SMALL_SPECS["prop53Truncation"]))
    text = "".join(ser._system_chunks(system))
    assert "[0.0," in text and ",0.0]" in text
    parsed = []
    loads = json.loads

    def recording_loads(s, *args, **kwargs):
        parsed.append(s)
        return loads(s, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", recording_loads)
        back = ser._system_from_writer_text(text)
    assert back is not None and same_bits(back.columns, system.columns)
    blocks = [s for s in parsed if s.startswith("[")]  # not the fields after the pairs
    assert blocks
    assert all("0.0" not in re.split(r"[\[\],]", s) for s in blocks)


# ---------------------------------------------------------------------------
# only the nonzero tokens are parsed: the tokens 0.0 are located in the block's bytes


def reader_parses(text, monkeypatch):
    """Each block load_system's fast path decodes, with the lengths of the lists json.loads returns for it."""
    blocks = []
    loads, block_pairs = json.loads, ser._block_pairs

    def recording_loads(s, *args, **kwargs):
        value = loads(s, *args, **kwargs)
        if isinstance(value, list):  # a block, not the fields after the pairs
            blocks[-1][1].append(len(value))
        return value

    def recording_block_pairs(block):
        blocks.append((block, []))
        return block_pairs(block)

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", recording_loads)
        patch.setattr(ser, "_block_pairs", recording_block_pairs)
        assert ser._system_from_writer_text(text) is not None
    return blocks


PARSE_COUNT_SYSTEMS = {
    "prop53Truncation": lambda: fk.generate(
        fk.GallerySpec("prop53Truncation", SMALL_SPECS["prop53Truncation"])),
    "zero base": lambda: zero_base()[0],
    "all +0.0": lambda: fk.VectorSystem(np.zeros((3, 4))),
}


@pytest.mark.parametrize("name", PARSE_COUNT_SYSTEMS)
def test_the_fast_path_parses_only_the_nonzero_tokens(name, monkeypatch):
    system = PARSE_COUNT_SYSTEMS[name]()
    text = "".join(ser._system_chunks(system))
    blocks = reader_parses(text, monkeypatch)
    nonzero_doubles = np.count_nonzero(ser._column_floats(system.columns).view(np.uint64))
    assert sum(sum(lengths) for _, lengths in blocks) == nonzero_doubles
    for block, lengths in blocks:
        parsed = [t for t in re.findall(r"[^\[\],]+", block) if t != "0.0"]
        # one json.loads per block that holds a nonzero token, none for a block of 0.0 tokens
        assert lengths == ([len(parsed)] if parsed else [])


@pytest.mark.parametrize("name", PARSE_COUNT_SYSTEMS)
def test_small_blocks_parse_only_the_nonzero_tokens(name, small_blocks, monkeypatch):
    test_the_fast_path_parses_only_the_nonzero_tokens(name, monkeypatch)


def lone_token_cases(dim, count, monkeypatch):
    """Texts of a dim x count system of +0.0 with the token 1.5 at the edges of the file and of its blocks.

    Each case maps a name to the (pair, entry) places of 1.5.  1.5 is as long
    as 0.0, so every text is cut into the blocks of the all-zero text.
    """
    system = fk.VectorSystem(np.zeros((dim, count)))
    tokens = [["0.0", "0.0"] for _ in range(dim * count)]
    tail = ser.dumps(ser._system_fields(system))[1:]
    assert writer_text(tokens, tail) == "".join(ser._system_chunks(system))
    sizes = [block.count("[") for block, _ in reader_parses(writer_text(tokens, tail), monkeypatch)]
    assert len(sizes) >= 2
    last, cut = dim * count - 1, sizes[0]  # cut: the first pair of the second block
    cases = {}
    for entry, part in [(0, "re"), (1, "im")]:
        cases[f"{part} of the first pair of the file"] = [(0, entry)]
        cases[f"{part} of the last pair of the file"] = [(last, entry)]
        cases[f"{part} of the last pair of a block"] = [(cut - 1, entry)]
        cases[f"{part} of the first pair of a block"] = [(cut, entry)]
        cases[f"{part} of two adjacent pairs across a block cut"] = [(cut - 1, entry), (cut, entry)]
    cases["im and re of two adjacent pairs across a block cut"] = [(cut - 1, 1), (cut, 0)]
    return tokens, tail, sizes, cases


def check_lone_token_cases(dim, count, tmp_path, monkeypatch):
    tokens, tail, sizes, cases = lone_token_cases(dim, count, monkeypatch)
    path = tmp_path / "system.json"
    for name, places in cases.items():
        edited = [list(pair) for pair in tokens]
        expected = np.zeros((dim * count, 2))
        for pair, entry in places:
            edited[pair][entry] = "1.5"
            expected[pair, entry] = 1.5
        text = writer_text(edited, tail)
        assert [b.count("[") for b, _ in reader_parses(text, monkeypatch)] == sizes, name
        path.write_text(text, encoding="utf-8")
        outcome = load_outcome(ser.load_system, path)
        assert outcome == load_outcome(general_load, path), name
        columns = expected.view(np.complex128).reshape(count, dim).T  # file order to columns
        assert outcome[1] == np.ascontiguousarray(columns).tobytes(), name


def test_a_lone_nonzero_token_at_the_block_edges(tmp_path, monkeypatch):
    check_lone_token_cases(2, B, tmp_path, monkeypatch)  # 2B pairs: two blocks or more


def test_small_blocks_a_lone_nonzero_token_at_the_block_edges(small_blocks, tmp_path, monkeypatch):
    check_lone_token_cases(2, 4, tmp_path, monkeypatch)


@pytest.mark.parametrize("token", ZERO_TOKENS)
def test_zero_tokens_next_to_a_nonzero_token_decode_like_the_general_path(token, tmp_path):
    system = fk.VectorSystem(np.zeros((2, 3)))
    tail = ser.dumps(ser._system_fields(system))[1:]
    path = tmp_path / "system.json"
    for nonzero in range(12):  # the flat token positions of the 6 pairs
        for neighbour in (nonzero - 1, nonzero + 1):
            if not 0 <= neighbour < 12:
                continue
            flat = ["0.0"] * 12
            flat[nonzero], flat[neighbour] = "1.5", token
            path.write_text(writer_text(zip(flat[0::2], flat[1::2]), tail), encoding="utf-8")
            assert load_outcome(ser.load_system, path) == load_outcome(general_load, path)


@pytest.mark.parametrize("token", ZERO_TOKENS)
def test_small_blocks_zero_tokens_next_to_a_nonzero_token(token, small_blocks, tmp_path):
    test_zero_tokens_next_to_a_nonzero_token_decode_like_the_general_path(token, tmp_path)


def test_number_characters_between_pairs_take_the_general_path(tmp_path):
    system = fk.VectorSystem(np.zeros((2, 3)))
    tail = ser.dumps(ser._system_fields(system))[1:]
    path = tmp_path / "system.json"
    # each character breaks a "],[", so the texts have one pair more than the tail's
    # dim * count for each one and reach the block decoder
    zeros = writer_text([["0.0", "0.0"]] * 7, tail)
    joins = [m.start() for m in re.finditer(r"\],\[", zeros)]
    # an all-zero block is never parsed, so nothing but its own checks can reject these
    texts = [zeros[:pos] + "0" + zeros[pos:] for i in joins for pos in (i + 1, i + 2)]
    # with one character after "]," and one before "," the nonzero tokens read as
    # [1.5,2.5,[4.5],...]: as many numbers as the tokens that are not 0.0
    text = writer_text([["1.5", "2.5"], ["0.0", "4.5"]] + [["5.5", "6.5"]] * 6, tail)
    texts.append(text.replace("],[0.0,4.5],", "],0[0.0,4.5]0,"))
    assert all(text.count("],[") + 1 == 6 for text in texts)
    for text in texts:
        path.write_text(text, encoding="utf-8")
        outcome = load_outcome(ser.load_system, path)
        assert isinstance(outcome, str)
        assert outcome == load_outcome(general_load, path)


def test_small_blocks_number_characters_between_pairs(small_blocks, tmp_path):
    test_number_characters_between_pairs_take_the_general_path(tmp_path)


@pytest.mark.parametrize("text, value", [("true", True), ("1.0", 1.0), ('"1"', "1"), ("2", 2)])
@pytest.mark.parametrize("blocks", [1, ser._BLOCK_PAIRS])
def test_system_version_must_be_the_int_one(text, value, blocks, tmp_path, monkeypatch):
    # "v": true and "v": 1.0 compared equal to 1 and loaded
    monkeypatch.setattr(ser, "_BLOCK_PAIRS", blocks)
    _, pairs, tail = mutation_base()
    path = tmp_path / "system.json"
    path.write_text(writer_text(pairs, tail.replace('"v": 1', f'"v": {text}')), encoding="utf-8")
    expected = f"field 'v': expected 1, got {value!r}"
    assert load_outcome(ser.load_system, path) == load_outcome(general_load, path) == expected


@pytest.mark.parametrize("value", [True, 1.0, "1", 2, None])
def test_trace_version_must_be_the_int_one(value):
    doc = ser.trace_to_json(fk.extract_frame(fk.lemma51(6), 0.25))
    doc["v"] = value
    with pytest.raises(SchemaError) as exc:
        ser.trace_from_json(doc)
    assert str(exc.value) == f"field 'v': expected 1, got {value!r}"


@pytest.mark.parametrize("value", [True, 1.0, "x", 2, None])
def test_spec_version_when_present_must_be_the_int_one(value):
    with pytest.raises(SchemaError) as exc:
        ser.gallery_spec_from_json({"v": value, "kind": "lemma51", "n": 4})
    assert str(exc.value) == f"field 'v': expected 1, got {value!r}"


def test_spec_version_may_be_absent():
    spec = fk.GallerySpec("lemma51", {"n": 4})
    assert ser.gallery_spec_from_json({"kind": "lemma51", "n": 4}) == spec
    assert ser.gallery_spec_from_json({"v": 1, "kind": "lemma51", "n": 4}) == spec
