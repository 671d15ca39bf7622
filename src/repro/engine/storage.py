"""JSON persistence for whole databases.

The format is versioned and human-readable: hierarchies serialise as
node lists in insertion order (each with its parents and an instance
flag) plus preference edges; relations serialise as attribute bindings
plus signed tuples.  ``load_database(save_database(db))`` round-trips
everything, including preemption strategies.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.core.preemption import STRATEGIES
from repro.errors import StorageError
from repro.hierarchy.graph import Hierarchy

FORMAT_NAME = "repro-db"
#: Version 2 added the ``views`` list; version-1 files still load.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)


def database_to_dict(database) -> Dict[str, Any]:
    """The serialisable form of a database."""
    hierarchies = []
    for hierarchy in database.hierarchies.values():
        nodes = []
        for node in hierarchy.nodes():
            if node == hierarchy.root:
                continue
            nodes.append(
                {
                    "name": node,
                    "parents": sorted(hierarchy.parents(node)),
                    "instance": hierarchy.is_instance(node),
                }
            )
        hierarchies.append(
            {
                "name": hierarchy.name,
                "root": hierarchy.root,
                "nodes": nodes,
                "preference_edges": [
                    list(edge) for edge in hierarchy.preference_edges()
                ],
            }
        )
    relations = []
    for relation in database.relations.values():
        relations.append(
            {
                "name": relation.name,
                "strategy": relation.strategy.name,
                "attributes": [
                    [attr, h.name]
                    for attr, h in zip(
                        relation.schema.attributes, relation.schema.hierarchies
                    )
                ],
                "tuples": [[list(t.item), t.truth] for t in relation.tuples()],
            }
        )
    views = [
        {
            "name": name,
            "op": spec["op"],
            "sources": list(spec["sources"]),
            "conditions": dict(spec["conditions"]),
        }
        for name, spec in sorted(
            getattr(database, "view_definitions", {}).items()
        )
    ]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": database.name,
        "hierarchies": hierarchies,
        "relations": relations,
        "views": views,
    }


def database_from_dict(payload: Dict[str, Any]):
    """Rebuild a database from :func:`database_to_dict` output."""
    from repro.engine.database import HierarchicalDatabase

    if payload.get("format") != FORMAT_NAME:
        raise StorageError(
            "not a {} file (format={!r})".format(FORMAT_NAME, payload.get("format"))
        )
    if payload.get("version") not in SUPPORTED_VERSIONS:
        raise StorageError(
            "unsupported format version {!r} (supported: {})".format(
                payload.get("version"), ", ".join(map(str, SUPPORTED_VERSIONS))
            )
        )
    database = HierarchicalDatabase(payload.get("name", "db"))
    for spec in payload.get("hierarchies", ()):
        hierarchy = Hierarchy(spec["name"], root=spec.get("root"))
        # Nodes are stored in insertion order, so parents always precede
        # children; first parent creates the node, the rest become edges.
        for node in spec.get("nodes", ()):
            parents = node.get("parents") or [hierarchy.root]
            if node.get("instance"):
                hierarchy.add_instance(node["name"], parents=parents[:1])
            else:
                hierarchy.add_class(node["name"], parents=parents[:1])
            for parent in parents[1:]:
                hierarchy.add_edge(parent, node["name"])
        for weaker, stronger in spec.get("preference_edges", ()):
            hierarchy.add_preference_edge(weaker, stronger)
        database.register_hierarchy(hierarchy)
    for spec in payload.get("relations", ()):
        strategy_name = spec.get("strategy", "off-path")
        if strategy_name not in STRATEGIES:
            raise StorageError("unknown preemption strategy {!r}".format(strategy_name))
        relation = database.create_relation(
            spec["name"],
            [(attr, hier) for attr, hier in spec["attributes"]],
            strategy=STRATEGIES[strategy_name],
        )
        for item, truth in spec.get("tuples", ()):
            relation.assert_item(tuple(item), truth=bool(truth))
    for spec in payload.get("views", ()):
        database.define_view(
            spec["name"],
            spec["op"],
            list(spec.get("sources", ())),
            spec.get("conditions") or None,
        )
    return database


def write_json_atomic(path: str, payload: Dict[str, Any]) -> None:
    """Crash-safely write ``payload`` as JSON to ``path``.

    The bytes go to an anonymous temp file *in the same directory*
    (``os.replace`` must not cross filesystems), are fsynced, and only
    then renamed into place — a crash at any point leaves either the
    old complete file or the new complete file, never a torn one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Crash-safely write raw bytes to ``path`` (binary twin of
    :func:`write_json_atomic`: same-directory temp file + fsync +
    ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def save_database_binary(
    database, path: str, extra: Optional[Dict[str, Any]] = None
) -> None:
    """Write the database to ``path`` in the binary columnar snapshot
    format (see :mod:`repro.engine.codec`), with the same crash-safety
    and ``extra``-stamping contract as :func:`save_database`."""
    from repro.engine.codec import encode_snapshot

    data = encode_snapshot(database, extra)
    try:
        write_bytes_atomic(path, data)
    except OSError as exc:
        raise StorageError("cannot write {}: {}".format(path, exc)) from exc


def read_binary_snapshot(path: str):
    """``(database, envelope)`` from a binary snapshot file."""
    from repro.engine.codec import decode_snapshot

    return decode_snapshot(read_bytes(path))


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        raise StorageError("no such database file: {}".format(path)) from None
    except OSError as exc:
        raise StorageError("cannot read {}: {}".format(path, exc)) from None


def save_database(database, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
    """Write the database to ``path`` crash-safely (temp file in the
    same directory + fsync + ``os.replace``).  ``extra`` keys are merged
    into the payload top level; :func:`database_from_dict` ignores keys
    it does not know."""
    payload = database_to_dict(database)
    if extra:
        payload.update(extra)
    try:
        write_json_atomic(path, payload)
    except OSError as exc:
        raise StorageError("cannot write {}: {}".format(path, exc)) from exc


def load_database(path: str):
    return database_from_dict(read_payload(path))


def read_payload(path: str) -> Dict[str, Any]:
    """The raw JSON payload of a saved database, before any object is
    rebuilt from it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise StorageError("no such database file: {}".format(path)) from None
    except json.JSONDecodeError as exc:
        raise StorageError("corrupt database file {}: {}".format(path, exc)) from None
    except OSError as exc:
        raise StorageError("cannot read {}: {}".format(path, exc)) from None
