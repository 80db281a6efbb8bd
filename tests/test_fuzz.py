"""Decoder fuzz: malformed input fails only with SchemaError or BadParameter.

Every document starts from a valid one (a system, a trace, a gallery spec, a
sweep plan) and has a few of its nodes replaced or deleted.  Every size the
strategies can produce is tiny or is rejected before anything is allocated,
so no example builds a system of more than about a megabyte.
"""
import contextlib
import copy
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import framekit as fk
from framekit import serialization as ser
from framekit.cli import main
from framekit.errors import BadParameter, SchemaError
from test_serialization import general_load, load_outcome

REJECTIONS = (SchemaError, BadParameter)

# numbers every decoder must refuse or survive cheaply: none is a valid size
# that builds anything large
ODD_NUMBERS = [-1, 1.5, -2.5, 1e300, math.nan, math.inf, -math.inf, 10**400, 2**63]
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.sampled_from(ODD_NUMBERS)
    | st.sampled_from(["inf", "-inf", "frame", "biorthogonal", "n"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# tiny valid parameters per gallery kind
VALID_PARAMS = {
    "orthonormal": {"n": st.integers(1, 4)},
    "lemma51": {"n": st.integers(1, 4)},
    "duplicated": {"n": st.integers(1, 3), "doubleAmbient": st.booleans()},
    "perturbedPairs": {"n": st.integers(1, 3)},
    "weightedExponentials": {
        "a": st.sampled_from([0.0, 0.25, 0.45]),
        "N": st.integers(0, 3),
        "sign": st.sampled_from([1, -1, "+", "-"]),
        "normalized": st.booleans(),
    },
    "lemma52Block": {
        "k": st.integers(1, 2),
        "eps": st.sampled_from([0.5, 2.0]),
        "a": st.sampled_from([0.25, 0.45]),
        "startN": st.integers(0, 8),
    },
    "prop53Truncation": {
        "M": st.just(1),
        "epsilons": st.just([1.0]),
        "a": st.just(0.45),
        "startN": st.integers(0, 4),
        "normalized": st.booleans(),
    },
    "randomFrame": {
        "n": st.integers(1, 3),
        "m": st.integers(1, 5),
        "seed": st.integers(0, 3),
        "cond": st.sampled_from([1.0, 10.0, 1e4]),
    },
}


@st.composite
def gallery_specs(draw):
    """A spec whose parameters are each valid, junk or missing, maybe plus an unknown key."""
    kind = draw(st.sampled_from(sorted(VALID_PARAMS)) | st.text(max_size=3))
    doc = {"kind": kind}
    for name, valid in VALID_PARAMS.get(kind, {}).items():
        choice = draw(st.integers(0, 5))
        if choice:
            doc[name] = draw(JUNK if choice == 1 else valid)
    if draw(st.integers(0, 5)) == 0:
        doc[draw(st.text(max_size=3))] = draw(JUNK)
    return doc


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """doc with up to two nodes replaced by junk or deleted; now and then junk itself."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if draw(st.booleans()):
            parent[key] = draw(JUNK)
        else:
            del parent[key]
    return doc


def _system_doc(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ser.system_to_json(fk.VectorSystem(cols))


TRACE_DOCS = [
    ser.trace_to_json(fk.extract_frame(fk.random_frame(3, 6, 0), 0.25, 0.5)),
    ser.trace_to_json(fk.extract_biorthogonal(fk.perturbed_pairs(2), 0.25, 0.5)),
]
PLAN = {
    "v": 1,
    "generator": {"kind": "lemma51", "n": 3},
    "sweep": {"name": "n", "values": [2, 3]},
    "extract": {"mode": "frame", "eps": 0.25, "c": 0.1},
    "seed": 0,
}


def _decodes_or_rejects(decode, doc):
    try:
        decode(doc)
    except REJECTIONS:
        pass


def _loads_like_the_general_path(path):
    """load_system gives the bits, labels or error of json.loads and system_from_json."""

    def general_path(path):
        return ser.system_from_json(ser._parse_json(path.read_text(encoding="utf-8"), path))

    outcomes = []
    for load in (ser.load_system, general_path):
        try:
            system = load(path)
        except REJECTIONS as exc:
            outcomes.append(repr(exc))
        else:
            outcomes.append((system.columns.shape, system.columns.view(np.uint64).tobytes(),
                             system.labels))
    assert outcomes[0] == outcomes[1]


def _run_cli(*argv):
    """cli.main must return, and every nonzero exit must print a JSON diagnostic."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        diagnostic = json.loads(err.getvalue().splitlines()[-1])
        assert set(diagnostic) == {"error", "message"}
    return code


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_decoders_reject_only_with_schema_error_or_bad_parameter(tmp_path, data):
    system_doc = data.draw(st.integers(0, 50).map(_system_doc).flatmap(mutated), label="system")
    trace_doc = data.draw(st.sampled_from(TRACE_DOCS).flatmap(mutated), label="trace")
    spec = data.draw(gallery_specs().flatmap(mutated), label="spec")
    plan = data.draw(mutated(PLAN), label="plan")

    _decodes_or_rejects(ser.system_from_json, system_doc)
    _decodes_or_rejects(ser.trace_from_json, trace_doc)
    _decodes_or_rejects(lambda doc: fk.generate(ser.gallery_spec_from_json(doc)), spec)

    if isinstance(plan, dict):
        plan["out"] = str(tmp_path / "sweep.csv")  # the CLI writes only under tmp_path
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    _run_cli("sweep", "--plan", str(plan_path))

    system_path = tmp_path / "system.json"
    if data.draw(st.integers(0, 5), label="raw bytes") == 0:
        raw = data.draw(st.sampled_from([b"", b"\xff\xfe"]) | st.binary(max_size=8))
        system_path.write_bytes(raw)
    else:
        # ser.dumps sorts "columns" first, in the layout load_system reads by its fast path
        dump = data.draw(st.sampled_from([json.dumps, ser.dumps]), label="writer")
        system_path.write_text(dump(system_doc))
        _loads_like_the_general_path(system_path)
    _run_cli("analyze", "--in", str(system_path))
    mode = data.draw(st.sampled_from(["frame", "biorthogonal"]), label="mode")
    _run_cli("extract", "--in", str(system_path), "--mode", mode, "--eps", "0.25",
             "--out", str(tmp_path / "trace.json"))

    spec_text = json.dumps(spec)
    if data.draw(st.booleans(), label="spec from file"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_text)
        spec_text = str(spec_path)
    # --spec=TEXT: a spec such as -Infinity would otherwise read as an option
    _run_cli("gen", f"--spec={spec_text}", "--out", str(tmp_path / "gen.json"))


# about half the entries exact zeros of either sign, the rest any finite double
ZERO_HEAVY = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([1, 2, 3, ser._BLOCK_PAIRS]),
       st.data())
def test_zero_heavy_systems_round_trip_bit_for_bit(tmp_path, dim, count, block_pairs, data):
    floats = data.draw(st.lists(ZERO_HEAVY, min_size=2 * dim * count, max_size=2 * dim * count))
    # the doubles in file order: column-major pairs, re before im
    system = fk.VectorSystem(np.array(floats).view(np.complex128).reshape(count, dim).T)
    path = tmp_path / "system.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ser, "_BLOCK_PAIRS", block_pairs)
        ser.save_system(system, path)
        assert path.read_text() == json.dumps(ser.system_to_json(system), sort_keys=True,
                                              separators=(",", ": ")) + "\n"
        back = ser.load_system(path)
        assert back.columns.view(np.uint64).tobytes() == system.columns.view(np.uint64).tobytes()
        _loads_like_the_general_path(path)


# short runs of number characters, and the two texts of an exact zero
SPLICED_TOKENS = st.text("0123456789.-+eE", max_size=6) | st.sampled_from(["0.0", "-0.0"])


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([1, 2, 3, ser._BLOCK_PAIRS]),
       st.data())
def test_tokens_spliced_into_zero_heavy_text_decode_like_the_general_path(
    tmp_path, dim, count, block_pairs, data
):
    floats = data.draw(st.lists(ZERO_HEAVY, min_size=2 * dim * count, max_size=2 * dim * count))
    system = fk.VectorSystem(np.array(floats).view(np.complex128).reshape(count, dim).T)
    text = "".join(ser._system_chunks(system))
    start, stop = len('{"columns": ['), text.index("]]") + 1  # the pairs text
    for _ in range(data.draw(st.integers(1, 3), label="splices")):
        token = data.draw(SPLICED_TOKENS, label="token")
        if data.draw(st.booleans(), label="in place of a token"):
            spans = [m.span() for m in re.finditer(r"[^\[\],]+", text[start:stop])]
            i, j = data.draw(st.sampled_from(spans)) if spans else (0, 0)
            i, j = start + i, start + j
        else:
            i = data.draw(st.integers(start, stop), label="at")
            j = data.draw(st.integers(i, min(i + 3, stop)), label="to")
        text = text[:i] + token + text[j:]
        stop += len(token) - (j - i)
    path = tmp_path / "system.json"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ser, "_BLOCK_PAIRS", block_pairs)
        assert load_outcome(ser.load_system, path) == load_outcome(general_load, path)
