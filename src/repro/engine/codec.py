"""Binary columnar codec: wire pages and ``snapshot.bin`` (format v2).

Every byte that crosses a process boundary used to be JSON.  This
module is the binary alternative, negotiated at hello time on the wire
(JSON v1 stays the fallback) and selected per data directory for
snapshots.  The shape follows the typed-domain column treatment of the
two-level concept-oriented model: values live in per-attribute
*dictionary columns* (each distinct node name stored once, rows as
fixed-width id arrays), and truth signs / posting sets travel as plain
bitsets serialised with ``int.to_bytes`` — exactly the masks the bulk
evaluator computes, so recovery can load them directly instead of
re-deriving the subsumption sweep.

Container layout (both wire messages and snapshot files)::

    magic(4) version(1) envelope_len(4) envelope_json
    nblocks(4) { block_len(8) block_bytes }*

The *envelope* is ordinary JSON carrying everything small (names,
schemas, checkpoint stamps); the *blocks* carry everything bulky (row
columns, sign bitsets, posting masks).  A wire message embeds
:class:`Columnar` markers where row data sits; :func:`encode_message`
lifts them into blocks and :func:`decode_message` splices the decoded
rows back, so a binary response decodes to the **same dict shape** as
the JSON one — callers above the framing layer cannot tell the
difference.

All multi-byte integers are big-endian (the wire's byte order); id
arrays are little-endian and byteswapped on big-endian hosts.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError, StorageError

#: First bytes of a binary wire-message body.  JSON bodies start with
#: ``{`` (0x7b), so one prefix comparison classifies a frame.
WIRE_MAGIC = b"RBC2"
#: First bytes of a ``snapshot.bin`` file.
SNAPSHOT_MAGIC = b"RDB2"
CODEC_VERSION = 1

SNAPSHOT_FORMAT_NAME = "repro-db-bin"
SNAPSHOT_FORMAT_VERSION = 1

FORMAT_BINARY = "binary"
FORMAT_JSON = "json"

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

#: Dictionary-id widths by dictionary size: (array typecode, max ids).
_ID_WIDTHS = (("B", 0xFF), ("H", 0xFFFF), ("I", 0xFFFFFFFF))


# ----------------------------------------------------------------------
# container
# ----------------------------------------------------------------------


def encode_container(magic: bytes, envelope: Dict[str, Any], blocks: Sequence[bytes]) -> bytes:
    head = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    parts = [magic, _U8.pack(CODEC_VERSION), _U32.pack(len(head)), head, _U32.pack(len(blocks))]
    for block in blocks:
        parts.append(_U64.pack(len(block)))
        parts.append(block)
    return b"".join(parts)


def decode_container(data: bytes, magic: bytes) -> Tuple[Dict[str, Any], List[bytes]]:
    if data[:4] != magic:
        raise ValueError("bad magic {!r} (expected {!r})".format(bytes(data[:4]), magic))
    offset = 4
    (version,) = _U8.unpack_from(data, offset)
    offset += 1
    if version != CODEC_VERSION:
        raise ValueError("unsupported codec version {}".format(version))
    (head_len,) = _U32.unpack_from(data, offset)
    offset += 4
    envelope = json.loads(data[offset : offset + head_len].decode("utf-8"))
    offset += head_len
    (nblocks,) = _U32.unpack_from(data, offset)
    offset += 4
    blocks: List[bytes] = []
    for _ in range(nblocks):
        (block_len,) = _U64.unpack_from(data, offset)
        offset += 8
        blocks.append(data[offset : offset + block_len])
        offset += block_len
    if offset != len(data):
        raise ValueError("trailing bytes after final block")
    return envelope, blocks


# ----------------------------------------------------------------------
# columnar row blocks
# ----------------------------------------------------------------------


def pack_rows(rows: Sequence[Sequence[str]], width: int) -> bytes:
    """One block of typed per-attribute columns.

    Each column is dictionary-encoded: the distinct values once (in
    first-appearance order), then one fixed-width id per row.  ``width``
    is the arity, needed explicitly so zero-row relations round-trip.
    """
    nrows = len(rows)
    parts = [_U32.pack(nrows), _U32.pack(width)]
    for position in range(width):
        dictionary: Dict[str, int] = {}
        ids: List[int] = []
        append = ids.append
        get = dictionary.get
        for row in rows:
            value = row[position]
            code = get(value)
            if code is None:
                code = len(dictionary)
                dictionary[value] = code
            append(code)
        names = list(dictionary)
        for typecode, cap in _ID_WIDTHS:
            if len(names) <= cap + 1:
                break
        encoded = [_U32.pack(len(names))]
        for name in names:
            raw = name.encode("utf-8")
            encoded.append(_U32.pack(len(raw)))
            encoded.append(raw)
        id_array = array(typecode, ids)
        if sys.byteorder == "big":
            id_array.byteswap()
        encoded.append(typecode.encode("ascii"))
        encoded.append(id_array.tobytes())
        parts.extend(encoded)
    return b"".join(parts)


def _unpack_columns(block: bytes) -> Tuple[int, int, List[List[str]]]:
    (nrows,) = _U32.unpack_from(block, 0)
    (width,) = _U32.unpack_from(block, 4)
    offset = 8
    columns: List[List[str]] = []
    for _ in range(width):
        (dict_size,) = _U32.unpack_from(block, offset)
        offset += 4
        names: List[str] = []
        for _ in range(dict_size):
            (name_len,) = _U32.unpack_from(block, offset)
            offset += 4
            names.append(block[offset : offset + name_len].decode("utf-8"))
            offset += name_len
        typecode = block[offset : offset + 1].decode("ascii")
        offset += 1
        id_array = array(typecode)
        nbytes = nrows * id_array.itemsize
        id_array.frombytes(block[offset : offset + nbytes])
        offset += nbytes
        if sys.byteorder == "big":
            id_array.byteswap()
        columns.append(list(map(names.__getitem__, id_array)))
    return nrows, width, columns


def unpack_rows(block: bytes) -> List[List[str]]:
    """Rows back out of :func:`pack_rows`, as lists of strings — the
    exact JSON wire shape, so message decoding can splice them in
    without a per-row conversion pass."""
    nrows, width, columns = _unpack_columns(block)
    if width == 0:
        return [[] for _ in range(nrows)]
    if width == 1:
        return [[value] for value in columns[0]]
    return list(map(list, zip(*columns)))


def unpack_row_tuples(block: bytes) -> List[Tuple[str, ...]]:
    """Rows as tuples — for the snapshot path, where they become the
    relation's item keys directly (``tuple()`` of a tuple is free)."""
    nrows, width, columns = _unpack_columns(block)
    if width == 0:
        return [()] * nrows
    return list(zip(*columns))


def pack_signs(truths: Sequence[bool]) -> bytes:
    """The positive-sign bitset of a row sequence (bit *i* = row *i*,
    little-endian bytes — the same layout as :func:`mask_to_bytes`)."""
    out = bytearray((len(truths) + 7) // 8 or 1)
    for i, truth in enumerate(truths):
        if truth:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


_BYTE_BITS = [
    [bool(value >> bit & 1) for bit in range(8)] for value in range(256)
]


def unpack_signs(block: bytes, count: int) -> List[bool]:
    # Byte-at-a-time via a 256-entry table: shifting a multi-thousand-bit
    # int once per row would make this quadratic in the row count.
    truths: List[bool] = []
    for byte in block:
        truths.extend(_BYTE_BITS[byte])
    if len(truths) < count:
        truths.extend([False] * (count - len(truths)))
    return truths[:count]


# ----------------------------------------------------------------------
# posting blocks
# ----------------------------------------------------------------------


def mask_to_bytes(mask: int) -> bytes:
    """A posting / sign bitset as little-endian ``int.to_bytes``;
    zero-width masks become one zero byte so the round-trip stays
    total."""
    return mask.to_bytes(max(1, (mask.bit_length() + 7) // 8), "little")


def mask_from_bytes(data: bytes) -> int:
    """Inverse of :func:`mask_to_bytes`."""
    return int.from_bytes(data, "little")


def pack_postings(table: Dict[str, int]) -> bytes:
    """One attribute's posting table (node name -> stored-tuple bitset).

    Zero masks are dropped — ``applicable_mask`` treats an absent node
    and a zero mask identically.  Entries keep the table's own order: a
    swept table is keyed in the hierarchy's topological order, the
    loaded one then is too, and ``mixed_sign_items`` hands its walk of
    the table to a topological sort (a ``CONFLICTS`` scan ran 6 % slower
    over name-sorted tables).  The same build still gives the same
    bytes.
    """
    entries = [(name, mask) for name, mask in table.items() if mask]
    parts = [_U32.pack(len(entries))]
    for name, mask in entries:
        raw = name.encode("utf-8")
        payload = mask_to_bytes(mask)
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
        parts.append(_U32.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_postings(block: bytes) -> Dict[str, int]:
    (count,) = _U32.unpack_from(block, 0)
    offset = 4
    table: Dict[str, int] = {}
    for _ in range(count):
        (name_len,) = _U32.unpack_from(block, offset)
        offset += 4
        name = block[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (mask_len,) = _U32.unpack_from(block, offset)
        offset += 4
        table[name] = mask_from_bytes(block[offset : offset + mask_len])
        offset += mask_len
    return table


# ----------------------------------------------------------------------
# wire messages
# ----------------------------------------------------------------------


class Columnar:
    """Marker for row data inside a wire message dict.

    ``rows`` is a sequence of equal-arity string rows; ``truths`` (when
    given) makes the decoded form ``[[list(row), bool], ...]`` — a
    relation's signed tuples — instead of ``[list(row), ...]``.
    """

    __slots__ = ("rows", "width", "truths")

    def __init__(
        self,
        rows: Sequence[Sequence[str]],
        width: Optional[int] = None,
        truths: Optional[Sequence[bool]] = None,
    ) -> None:
        self.rows = rows
        self.width = width if width is not None else (len(rows[0]) if rows else 0)
        self.truths = truths


def columnar_rows(rows: Sequence[Sequence[str]], width: Optional[int] = None) -> Columnar:
    return Columnar(rows, width=width)


def columnar_pairs(pairs: Sequence[Sequence[Any]], width: Optional[int] = None) -> Columnar:
    """From wire-shaped ``[[item, truth], ...]`` signed rows."""
    items = [pair[0] for pair in pairs]
    truths = [bool(pair[1]) for pair in pairs]
    if width is None and items:
        width = len(items[0])
    return Columnar(items, width=width or 0, truths=truths)


def columnar_relation(relation) -> Columnar:
    """A relation's signed tuples, straight off the asserted map —
    no intermediate ``[[item, truth], ...]`` list, which at 50k+ rows
    costs more than the entire columnar encode."""
    asserted = relation.asserted
    return Columnar(
        list(asserted.keys()),
        width=len(relation.schema.attributes),
        truths=list(asserted.values()),
    )


def _lift(value: Any, blocks: List[bytes]) -> Any:
    if isinstance(value, Columnar):
        ref: Dict[str, Any] = {
            "$rows": len(blocks),
            "n": len(value.rows),
        }
        blocks.append(pack_rows(value.rows, value.width))
        if value.truths is not None:
            ref["$signs"] = len(blocks)
            blocks.append(pack_signs(value.truths))
        return ref
    if isinstance(value, dict):
        return {key: _lift(item, blocks) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lift(item, blocks) for item in value]
    return value


def _splice(value: Any, blocks: List[bytes]) -> Any:
    if isinstance(value, dict):
        if "$rows" in value:
            rows = unpack_rows(blocks[value["$rows"]])
            if "$signs" in value:
                truths = unpack_signs(blocks[value["$signs"]], len(rows))
                return list(map(list, zip(rows, truths)))
            return rows
        return {key: _splice(item, blocks) for key, item in value.items()}
    if isinstance(value, list):
        return [_splice(item, blocks) for item in value]
    return value


def encode_message(message: Dict[str, Any]) -> bytes:
    """A wire message (dict, possibly holding :class:`Columnar`
    markers) as one binary body."""
    blocks: List[bytes] = []
    envelope = _lift(message, blocks)
    return encode_container(WIRE_MAGIC, envelope, blocks)


def decode_message(body: bytes) -> Dict[str, Any]:
    """The dict a binary body encodes — identical in shape to what the
    JSON encoding of the same message would have produced."""
    try:
        envelope, blocks = decode_container(body, WIRE_MAGIC)
        message = _splice(envelope, blocks)
    except (ValueError, KeyError, IndexError, struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError("undecodable binary frame body: {}".format(exc)) from None
    if not isinstance(message, dict):
        raise ProtocolError("binary frame body must decode to an object")
    return message


def is_binary_body(body: bytes) -> bool:
    return body[:4] == WIRE_MAGIC


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


def _relation_postings(relation) -> List[Dict[str, int]]:
    """The relation's per-attribute posting tables, building the bulk
    evaluator if needed (which also warms the serving cache).

    Recovery trusts bit *i* to be row *i* of the stored tuples, and an
    evaluator advanced through retractions has reused slots: that one is
    swept afresh here (a checkpoint is O(relation) anyway)."""
    from repro.core import bulk as _bulk

    evaluator = _bulk.evaluator_for(relation)
    if not evaluator.in_row_order():
        evaluator = _bulk.build_evaluator(relation)
    return evaluator._postings


def encode_snapshot(database, extra: Optional[Dict[str, Any]] = None) -> bytes:
    """The whole database as one ``snapshot.bin`` byte string.

    Carries everything :func:`repro.engine.storage.database_to_dict`
    carries plus, per relation, the version counters and posting
    bitsets needed to rebuild a warm :class:`~repro.core.bulk.
    BulkEvaluator` at recovery without re-running the sweep.
    """
    blocks: List[bytes] = []
    hierarchies = []
    for hierarchy in database.hierarchies.values():
        nodes = [
            [node, sorted(hierarchy.parents(node)), hierarchy.is_instance(node)]
            for node in hierarchy.nodes()
            if node != hierarchy.root
        ]
        hierarchies.append(
            {
                "name": hierarchy.name,
                "root": hierarchy.root,
                "nodes": nodes,
                "preference_edges": [list(edge) for edge in hierarchy.preference_edges()],
                "version": hierarchy.version,
            }
        )
    relations = []
    for relation in database.relations.values():
        items = list(relation.asserted)
        truths = list(relation.asserted.values())
        entry: Dict[str, Any] = {
            "name": relation.name,
            "strategy": relation.strategy.name,
            "attributes": [
                [attr, h.name]
                for attr, h in zip(relation.schema.attributes, relation.schema.hierarchies)
            ],
            "count": len(items),
            "version": relation.version,
            "rows": len(blocks),
        }
        blocks.append(pack_rows(items, len(relation.schema.attributes)))
        entry["signs"] = len(blocks)
        blocks.append(pack_signs(truths))
        entry["postings"] = []
        for table in _relation_postings(relation):
            entry["postings"].append(len(blocks))
            blocks.append(pack_postings(table))
        relations.append(entry)
    views = [
        {
            "name": name,
            "op": spec["op"],
            "sources": list(spec["sources"]),
            "conditions": dict(spec["conditions"]),
        }
        for name, spec in sorted(getattr(database, "view_definitions", {}).items())
    ]
    envelope: Dict[str, Any] = {
        "format": SNAPSHOT_FORMAT_NAME,
        "version": SNAPSHOT_FORMAT_VERSION,
        "name": database.name,
        "hierarchies": hierarchies,
        "relations": relations,
        "views": views,
    }
    if extra:
        envelope.update(extra)
    return encode_container(SNAPSHOT_MAGIC, envelope, blocks)


def snapshot_envelope(data: bytes) -> Dict[str, Any]:
    """Just the envelope of a binary snapshot (checkpoint stamps etc.)
    without rebuilding any objects."""
    try:
        envelope, _ = decode_container(data, SNAPSHOT_MAGIC)
    except (ValueError, struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError("corrupt binary snapshot: {}".format(exc)) from None
    return envelope


def decode_snapshot(data: bytes):
    """Rebuild ``(database, envelope)`` from :func:`encode_snapshot`.

    The rebuild is the trusted bulk path throughout: hierarchies load
    their node tables without per-node validation, relations load their
    tuple dicts without per-item schema checks, and stored posting
    bitsets pre-warm each relation's bulk evaluator — the version
    counters are restored too, so the evaluator key matches exactly
    what :func:`~repro.core.bulk.evaluator_for` would compute.
    """
    from repro.core.bulk import BulkEvaluator
    from repro.core.preemption import STRATEGIES
    from repro.engine.database import HierarchicalDatabase
    from repro.hierarchy.graph import Hierarchy

    try:
        envelope, blocks = decode_container(data, SNAPSHOT_MAGIC)
    except (ValueError, struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError("corrupt binary snapshot: {}".format(exc)) from None
    if envelope.get("format") != SNAPSHOT_FORMAT_NAME:
        raise StorageError(
            "not a {} snapshot (format={!r})".format(
                SNAPSHOT_FORMAT_NAME, envelope.get("format")
            )
        )
    if envelope.get("version") != SNAPSHOT_FORMAT_VERSION:
        raise StorageError(
            "unsupported binary snapshot version {!r}".format(envelope.get("version"))
        )
    try:
        database = HierarchicalDatabase(envelope.get("name", "db"))
        for spec in envelope.get("hierarchies", ()):
            hierarchy = Hierarchy.from_node_table(
                spec["name"],
                spec.get("root") or "thing",
                [(node, tuple(parents), bool(instance)) for node, parents, instance in spec["nodes"]],
                prefs=spec.get("preference_edges", ()),
            )
            hierarchy._version = int(spec.get("version", hierarchy.version))
            database.register_hierarchy(hierarchy)
        for spec in envelope.get("relations", ()):
            strategy_name = spec.get("strategy", "off-path")
            if strategy_name not in STRATEGIES:
                raise StorageError(
                    "unknown preemption strategy {!r}".format(strategy_name)
                )
            relation = database.create_relation(
                spec["name"],
                [(attr, hier) for attr, hier in spec["attributes"]],
                strategy=STRATEGIES[strategy_name],
            )
            count = int(spec["count"])
            items = unpack_row_tuples(blocks[spec["rows"]])
            truths = unpack_signs(blocks[spec["signs"]], count)
            relation.load_tuples(
                zip(items, truths), version=int(spec.get("version", count))
            )
            indexes = spec.get("postings")
            if indexes is not None:
                postings = [unpack_postings(blocks[i]) for i in indexes]
                evaluator = BulkEvaluator(
                    relation, relation.strategy, postings=postings
                )
                relation._bulk_eval = evaluator
        for spec in envelope.get("views", ()):
            database.define_view(
                spec["name"],
                spec["op"],
                list(spec.get("sources", ())),
                spec.get("conditions") or None,
            )
    except (KeyError, IndexError, TypeError, ValueError, struct.error) as exc:
        raise StorageError("corrupt binary snapshot: {}".format(exc)) from None
    return database, envelope
