"""JSON serialization of systems, reports, metrics, selections and traces.

Documents carry a schema version field "v": 1.  Complex entries are written as
[re, im] pairs in column-major order, numbers at full double precision so a
round trip is bitwise exact.  Infinity is encoded as the string "inf", never
as a bare JSON-illegal Infinity token.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .core import FrameReport, VectorSystem
from .errors import BadParameter, SchemaError
from .extraction import ExtractionRound, ExtractionTrace
from .gallery import GALLERY_KINDS, GallerySpec
from .metrics import BasisMetrics
from .selection import SelectionResult

SCHEMA_VERSION = 1


def _encode_scalar(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _decode_scalar(x) -> float:
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SchemaError(f"expected a number or 'inf', got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise SchemaError("entry too large for a double") from None


def dumps(doc) -> str:
    """Deterministic JSON text: sorted keys, newline-terminated."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": ")) + "\n"


# ---------------------------------------------------------------------------
# VectorSystem


def _column_floats(columns: np.ndarray) -> np.ndarray:
    """The entries as doubles in file order: column-major, re before im.

    A C-order copy of the transpose, read as floats, one row per column.
    """
    return np.ascontiguousarray(columns.T).view(np.float64)


def _system_fields(system: VectorSystem) -> dict:
    """Every field of the system document but "columns"."""
    doc = {"v": SCHEMA_VERSION, "dim": system.dim, "count": system.count}
    if system.labels is not None:
        doc["labels"] = list(system.labels)
    return doc


def system_to_json(system: VectorSystem) -> dict:
    doc = _system_fields(system)
    doc["columns"] = _column_floats(system.columns).reshape(-1, 2).tolist()
    return doc


# [re, im] pairs per block of a system file that save_system formats and
# load_system decodes at once (about 0.7 MB of text)
_BLOCK_PAIRS = 1 << 14

# the printf template of a pair, indexed by 2 * (re is not +0.0) + (im is not +0.0)
_PAIR_FORMATS = np.array(["[0.0,0.0],", "[0.0,%r],", "[%r,0.0],", "[%r,%r],"], dtype=object)


def _system_chunks(system: VectorSystem):
    """The pieces of dumps(system_to_json(system)), one block of whole columns at a time.

    json writes a finite double (every system entry is finite) as
    float.__repr__, which is what %r writes.  The text of +0.0 is always
    "0.0", so each pair's template writes the +0.0 entries (all bits zero)
    as that literal and leaves %r for the others, -0.0 included: the same
    bytes, with no repr of a +0.0.  "columns" sorts first and dumps separates
    items with ",", so the pair text goes in front of the dumps of the other
    fields.  A block is max(1, _BLOCK_PAIRS // dim) columns, so only one
    block's floats are Python objects, and only one block of the columns is
    copied into file order, at a time.
    """
    cols = system.columns
    step = max(1, _BLOCK_PAIRS // system.dim)
    yield '{"columns": ['
    for j in range(0, system.count, step):
        floats = _column_floats(cols[:, j:j + step]).ravel()
        nonzero = floats.view(np.uint64) != 0
        template = "".join(_PAIR_FORMATS[2 * nonzero[0::2] + nonzero[1::2]].tolist())
        pairs = template % tuple(floats[nonzero].tolist())
        yield pairs if j + step < system.count else pairs[:-1]
    yield "]," + dumps(_system_fields(system))[1:]


def _expect(doc: dict, field: str, kinds) -> object:
    if field not in doc:
        raise SchemaError(f"field {field!r}: missing")
    value = doc[field]
    # bool is an int subclass: accept it only where a bool is asked for
    if not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool):
        raise SchemaError(f"field {field!r}: wrong type {type(value).__name__}")
    return value


def _expect_version(doc: dict, optional: bool = False) -> None:
    """Refuse a "v" that is not the int 1; an optional one (specs, plans) may be absent."""
    if optional and "v" not in doc:
        return
    value = doc.get("v")
    if isinstance(value, bool) or not isinstance(value, int) or value != SCHEMA_VERSION:
        raise SchemaError(f"field 'v': expected {SCHEMA_VERSION}, got {value!r}")


def _expect_indices(doc: dict, field: str) -> tuple[int, ...]:
    values = _expect(doc, field, list)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in values):
        raise SchemaError(f"field {field!r}: expected a list of integers")
    return tuple(values)


def system_from_json(doc) -> VectorSystem:
    if not isinstance(doc, dict):
        raise SchemaError("system document must be a JSON object")
    return _system_from_fields(doc, lambda dim, count: _columns_of_pairs(doc, dim, count))


def _columns_of_pairs(doc: dict, dim: int, count: int) -> np.ndarray:
    """The (dim, count) columns of the "columns" pairs of doc, in a fresh C-order array."""
    pairs = _expect(doc, "columns", list)
    if len(pairs) != dim * count:
        raise SchemaError(
            f"field 'columns': expected {dim * count} [re, im] pairs, got {len(pairs)}"
        )
    return np.ascontiguousarray(_flat_pairs(pairs).view(np.complex128).reshape(count, dim).T)


def _system_from_fields(doc: dict, columns) -> VectorSystem:
    """The system of a v1 document: every field check but the decoding of the pairs.

    columns(dim, count) returns the decoded columns, once "dim" and "count"
    are checked, as a fresh C-order complex128 array that the system then
    owns.  Both decoders end here, so they raise the same SchemaError for the
    same document.
    """
    _expect_version(doc)
    dim = _expect(doc, "dim", int)
    count = _expect(doc, "count", int)
    if dim < 1:
        raise SchemaError(f"field 'dim': must be >= 1, got {dim}")
    if count < 1:
        raise SchemaError(f"field 'count': must be >= 1, got {count}")
    cols = columns(dim, count)
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise SchemaError("field 'labels': expected a list of strings")
        labels = tuple(labels)
    try:
        return VectorSystem._own(cols, labels)
    except BadParameter as exc:
        raise SchemaError(str(exc)) from exc


def _flat_pairs(pairs: list) -> np.ndarray:
    """The entries of a list of [re, im] pairs as doubles, or the error for the first bad pair."""
    if not _pairs_well_typed(pairs):
        raise _pair_error(pairs)
    try:
        return np.fromiter(itertools.chain.from_iterable(pairs), np.float64, count=2 * len(pairs))
    except OverflowError:
        raise _pair_error(pairs) from None


def _pairs_well_typed(pairs: list) -> bool:
    """Every pair is a list of two numbers that are not bools, tested by type sets."""
    if not all(issubclass(kind, list) for kind in set(map(type, pairs))):
        return False
    if set(map(len, pairs)) != {2}:
        return False
    entry_kinds = set(map(type, itertools.chain.from_iterable(pairs)))
    return all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in entry_kinds)


def _pair_error(pairs: list) -> SchemaError:
    """The error for the first pair that is malformed or has an entry too large for a double."""
    for pos, pair in enumerate(pairs):
        if not _pairs_well_typed([pair]):
            return SchemaError(f"field 'columns'[{pos}]: expected an [re, im] pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            return SchemaError(f"field 'columns'[{pos}]: entry too large for a double")
    return SchemaError("field 'columns': malformed [re, im] pairs")


def save_system(system: VectorSystem, path) -> None:
    with Path(path).open("w") as f:
        f.writelines(_system_chunks(system))


def load_system(path) -> VectorSystem:
    text = _read_text(path)
    system = _system_from_writer_text(text)
    if system is None:
        system = system_from_json(_parse_json(text, path))
    return system


_WRITER_PREFIX = '{"columns": [['
# str.translate table that deletes every character a JSON number can contain
_NUMBER_CHARS = dict.fromkeys(map(ord, "0123456789.-+eE"))


def _system_from_writer_text(text: str) -> VectorSystem | None:
    """load_system for the layout save_system writes, without a Python list per pair.

    The pairs text [re,im],...,[re,im] is cut at "],[" into blocks of about
    _BLOCK_PAIRS pairs.  The nonzero tokens of each block go to json.loads as
    one flat list of numbers, so the JSON scanner still checks each of them and
    makes the same int and float objects as a parse of the whole text, and
    np.fromiter converts them as _flat_pairs does.  The tokens 0.0, the text of
    +0.0, are located by one array pass over the block's bytes and never
    parsed (_block_pairs).  The tail is found from the end of the text and
    gives "dim" and "count", so the number of pairs is read off the header,
    not counted; a text too short for that many pairs is refused before the
    array is allocated.  Each block goes straight into the system's own C-order
    array, so the text and one array are held at once.  A block that would
    overfill the array, or blocks that end short of it, leave the layout.
    Any text not in the writer's layout returns None and takes the general
    path, which then gives every result and diagnostic.  Each check is one
    C-level pass per block.
    """
    if not text.startswith(_WRITER_PREFIX):
        return None
    # the last ']],"', found from the end: one later than the pairs' end leaves
    # a '"' among the pairs, which _block_pairs refuses, and ',"' rules out a
    # tail such as ",}", which would parse as "{}"
    end = text.rfind(']],"', len(_WRITER_PREFIX))
    if end < 0:
        return None
    try:
        fields = json.loads("{" + text[end + 3:])
    except (ValueError, RecursionError):
        return None
    # json.loads of the whole text would keep the last of two "columns" keys
    if "columns" in fields:
        return None
    dim, count = fields.get("dim"), fields.get("count")
    # any other header takes the general path, which names what is wrong with it
    if type(dim) is not int or type(count) is not int or dim < 1 or count < 1:
        return None
    start, stop = len(_WRITER_PREFIX) - 1, end + 1
    n_pairs = dim * count
    # the shortest pair is "[0,0]", so k pairs and their commas take 6k - 1 characters
    if stop - start < 6 * n_pairs - 1:
        return None
    cols = np.empty((dim, count), np.complex128)
    # _BLOCK_PAIRS times the mean length of a pair and its comma
    step = _BLOCK_PAIRS * (stop + 1 - start) // n_pairs
    filled = 0
    while start < stop:
        # a block ends at the first "],[" whose "[" lies at or past start + step
        cut = text.find("],[", start + max(step - 2, 1), stop)
        cut = stop if cut < 0 else cut + 1
        pairs = _block_pairs(text[start:cut])
        if pairs is None or filled + len(pairs) > n_pairs:
            return None
        start = cut + 1
        _fill_file_order(cols, filled, pairs)
        filled += len(pairs)
        del pairs  # before the next block is decoded
    if filled < n_pairs:
        return None
    return _system_from_fields(fields, lambda dim, count: cols)


def _fill_file_order(cols: np.ndarray, start: int, pairs: np.ndarray) -> None:
    """Write pairs to cols from position start of the file's column-major order.

    Row j of cols.T is column j, so the pairs are the tail of one such row, whole
    rows and the head of one more: three strided writes, not one per element.
    """
    dim = cols.shape[0]
    rows = cols.T
    col, row = divmod(start, dim)
    head = min(len(pairs), dim - row) if row else 0
    if head:
        rows[col, row:row + head] = pairs[:head]
        col += 1
    whole = (len(pairs) - head) // dim
    rows[col:col + whole] = pairs[head:head + whole * dim].reshape(whole, dim)
    tail = pairs[head + whole * dim:]
    if len(tail):
        rows[col + whole, :len(tail)] = tail


def _block_pairs(block: str) -> np.ndarray | None:
    """The pairs of one block "[re,im],...,[re,im]" as complex128, or None off the layout.

    Once the block is known to be brackets of two tokens made of number
    characters (so it is ASCII and holds no letter), its commas locate every
    token in one array pass over its bytes.  A token is +0.0 exactly when it
    is the 3 bytes "0.0", which is what "[0.0," and ",0.0]" match; those are
    never parsed.  In one bytearray, every delimiter but the outer brackets
    and every such token become spaces, which JSON skips, and a comma follows
    each other token but the last, so json.loads reads the other tokens as
    before and np.fromiter puts them between the zeros.  An all-zero block is
    not parsed at all.  Its bytes, text, list and floats are freed on return,
    before the next block's.
    """
    skeleton = block.translate(_NUMBER_CHARS)
    k = (len(skeleton) + 1) // 4  # the skeleton of k pairs has 4k - 1 characters
    # exactly k brackets of two tokens each, the tokens made of number characters
    if skeleton != "[" + ",],[" * (k - 1) + ",]":
        return None
    buf = bytearray(block, "ascii")
    del skeleton, block  # the caller's slice of the text is freed here
    u = np.frombuffer(buf, np.uint8)
    # the 2k - 1 commas alternate: the one in pair p ends re, the one after it
    # follows the "]" that ends im; the last im ends at the last byte
    ends = np.append(np.flatnonzero(u == ord(",")), len(u))
    ends[1::2] -= 1
    # "]" ends each pair and "],[" joins them: the skeleton does not see number
    # characters outside the brackets
    if (u[0] != ord("[") or np.any(u[ends[1::2]] != ord("]"))
            or np.any(u[ends[1:-1:2] + 2] != ord("["))):
        return None
    # a token is 0.0 when its 3 bytes read 0.0 after its opening "[" or ","; a
    # shorter token has its opening delimiter among those 3 bytes, so it fails
    # the test even where ends - 4 is negative and wraps
    before = u[ends - 4]
    zero = (((before == ord("[")) | (before == ord(","))) & (u[ends - 3] == ord("0"))
            & (u[ends - 2] == ord(".")) & (u[ends - 1] == ord("0")))
    # spaces for the delimiters but the outer brackets, and for the zero tokens
    u[ends] = u[ends[1:-1:2] + 1] = u[ends[1:-1:2] + 2] = ord(" ")
    zero_ends = ends[zero]
    u[zero_ends - 3] = u[zero_ends - 2] = u[zero_ends - 1] = ord(" ")
    ends = ends[~zero]
    u[ends[:-1]] = ord(",")
    u[-1] = ord("]")
    n = len(ends)
    del u, before, ends, zero_ends
    pairs = np.zeros(2 * k)
    if n:
        text = buf.decode("ascii")
        del buf
        try:
            numbers = json.loads(text)
        except ValueError:
            return None
        del text
        if len(numbers) != n:
            return None
        try:
            pairs[~zero] = np.fromiter(numbers, np.float64, count=n)
        except OverflowError:
            return None
    return pairs.view(np.complex128)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _read_json(path):
    return _parse_json(_read_text(path), path)


def _parse_json(text: str, source) -> object:
    """json.loads that rejects every malformed text with a SchemaError naming source.

    Besides syntax errors, json.loads raises ValueError for an integer literal
    over the int-to-str digit limit and RecursionError for deep nesting.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{source}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# reports, metrics, selections


def report_to_json(report: FrameReport) -> dict:
    return {
        "lower_bound": _encode_scalar(report.lower_bound),
        "upper_bound": _encode_scalar(report.upper_bound),
        "min_norm": _encode_scalar(report.min_norm),
        "max_norm": _encode_scalar(report.max_norm),
        "is_tight": report.is_tight,
        "is_spanning": report.is_spanning,
        "tolerance": report.tolerance,
    }


def metrics_to_json(metrics: BasisMetrics) -> dict:
    return {
        "riesz": _encode_scalar(metrics.riesz),
        "hilbertian": _encode_scalar(metrics.hilbertian),
        "besselian": _encode_scalar(metrics.besselian),
        "schauder": _encode_scalar(metrics.schauder),
        "separation": _encode_scalar(metrics.separation),
        "singular_values": [_encode_scalar(s) for s in metrics.singular_values],
    }


def selection_to_json(result: SelectionResult) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "subset": list(result.subset),
        "certified_lower_bound": _encode_scalar(result.certified_lower_bound),
        "method": result.method,
        "target_size": result.target_size,
        "normalization_applied": result.normalization_applied,
    }


# ---------------------------------------------------------------------------
# extraction traces


def trace_to_json(trace: ExtractionTrace) -> dict:
    rounds = []
    for rnd in trace.rounds:
        entry = {
            "round": rnd.index,
            "examined": list(rnd.examined),
            "residual_norms": [_encode_scalar(x) for x in rnd.residual_norms],
            "selected": list(rnd.selected),
            "certified_bound": _encode_scalar(rnd.certified_bound),
            "bt_target": rnd.bt_target,
            "normalized": rnd.normalized,
            "coverage": _encode_scalar(rnd.coverage),
        }
        if rnd.rule2_lower_bound is not None:
            entry["rule2_lower_bound"] = _encode_scalar(rnd.rule2_lower_bound)
        rounds.append(entry)
    parameters = {}
    for key, value in trace.parameters.items():
        if isinstance(value, float):
            parameters[key] = _encode_scalar(value)
        else:
            parameters[key] = value
    return {
        "v": SCHEMA_VERSION,
        "mode": trace.mode,
        "rounds": rounds,
        "final_subset": list(trace.final_subset),
        "final_riesz_constant": _encode_scalar(trace.final_riesz_constant),
        "stop_reason": trace.stop_reason,
        "parameters": parameters,
    }


def trace_from_json(doc) -> ExtractionTrace:
    if not isinstance(doc, dict):
        raise SchemaError("trace document must be a JSON object")
    _expect_version(doc)
    try:
        rounds = tuple(
            ExtractionRound(
                index=_expect(entry, "round", int),
                examined=_expect_indices(entry, "examined"),
                residual_norms=tuple(
                    _decode_scalar(x) for x in _expect(entry, "residual_norms", list)
                ),
                selected=_expect_indices(entry, "selected"),
                certified_bound=_decode_scalar(entry["certified_bound"]),
                bt_target=_expect(entry, "bt_target", int),
                normalized=_expect(entry, "normalized", bool),
                coverage=_decode_scalar(entry["coverage"]),
                rule2_lower_bound=(
                    _decode_scalar(entry["rule2_lower_bound"])
                    if "rule2_lower_bound" in entry
                    else None
                ),
            )
            for entry in doc["rounds"]
        )
        parameters = {
            key: (_decode_scalar(value) if isinstance(value, str) and value in ("inf", "-inf") else value)
            for key, value in _expect(doc, "parameters", dict).items()
        }
        mode = doc["mode"]
        if mode not in ("frame", "biorthogonal"):
            raise SchemaError(f"field 'mode': expected 'frame' or 'biorthogonal', got {mode!r}")
        return ExtractionTrace(
            mode=mode,
            rounds=rounds,
            final_subset=_expect_indices(doc, "final_subset"),
            final_riesz_constant=_decode_scalar(doc["final_riesz_constant"]),
            stop_reason=_expect(doc, "stop_reason", str),
            parameters=parameters,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed trace document: {exc!r}") from exc


def save_trace(trace: ExtractionTrace, path) -> None:
    Path(path).write_text(dumps(trace_to_json(trace)))


def load_trace(path) -> ExtractionTrace:
    return trace_from_json(_read_json(path))


# ---------------------------------------------------------------------------
# gallery specs


def gallery_spec_from_json(doc) -> GallerySpec:
    if not isinstance(doc, dict):
        raise SchemaError("gallery spec must be a JSON object")
    _expect_version(doc, optional=True)
    kind = doc.get("kind")
    if kind not in GALLERY_KINDS:
        raise SchemaError(f"field 'kind': expected one of {GALLERY_KINDS}, got {kind!r}")
    params = {key: value for key, value in doc.items() if key not in ("kind", "v")}
    return GallerySpec(kind=kind, params=params)


def gallery_spec_to_json(spec: GallerySpec) -> dict:
    doc = {"v": SCHEMA_VERSION, "kind": spec.kind}
    doc.update(spec.params)
    return doc
