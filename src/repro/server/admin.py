"""The server's observability surface.

Two transports, one set of commands:

* **wire admin requests** — ``{"op": "admin", "cmd": ...}`` frames on
  the regular HQL port, used by :class:`~repro.client.HQLClient`
  (``client.stats()``, ``client.metrics_text()``, …);
* an optional **HTTP admin endpoint** (``repro serve --admin-port``) —
  a deliberately tiny GET-only HTTP/1.0 responder so standard tooling
  works unmodified: ``curl :port/stats`` and a Prometheus scraper
  pointed at ``/metrics``.

Commands
--------
``ping``      liveness + uptime
``stats``     JSON snapshots of the per-database registry (``hql.*``,
              ``querycache.*``, ``txn.*``, ``server.*``), the
              process-global core registry (``algebra.*``, ``bulk.*``),
              and server state (sessions, lock, recovery)
``metrics``   both registries in Prometheus text exposition format
``slowlog``   the slow-query log as JSON (statement, elapsed_ms, span)
``sessions``  one row per live connection
``tenants``   one row per hosted tenant (sizes, cache hit rates,
              quota state, quarantine status)
``tenant_create`` / ``tenant_drop`` / ``tenant_quotas``
              tenant lifecycle and quota management
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional

from repro.errors import ServerError
from repro.obs import default_registry, render_span_tree

ADMIN_COMMANDS = (
    "ping",
    "stats",
    "metrics",
    "slowlog",
    "sessions",
    "replication",
    "tenants",
    "tenant_create",
    "tenant_drop",
    "tenant_quotas",
)


def admin_payload(server, cmd: str, args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The response payload for one admin command against ``server``
    (an :class:`~repro.server.server.HQLServer`).  ``args`` is the full
    request frame; only the tenant lifecycle commands read it."""
    args = args or {}
    if cmd == "ping":
        return {
            "cmd": "ping",
            "ok": True,
            "uptime_s": round(time.time() - server.started_at, 3),
        }
    if cmd == "stats":
        return {"cmd": "stats", "stats": stats_payload(server)}
    if cmd == "metrics":
        return {"cmd": "metrics", "text": metrics_text(server)}
    if cmd == "slowlog":
        return {"cmd": "slowlog", "entries": slowlog_payload(server)}
    if cmd == "sessions":
        return {
            "cmd": "sessions",
            "sessions": [s.describe() for s in server.sessions.values()],
        }
    if cmd == "replication":
        from repro.server.replication import replication_payload

        return {"cmd": "replication", "replication": replication_payload(server)}
    if cmd == "tenants":
        return {"cmd": "tenants", "tenants": tenants_payload(server)}
    if cmd == "tenant_create":
        from repro.tenants import TenantQuotas

        quotas = (
            TenantQuotas.from_dict(args["quotas"]) if args.get("quotas") else None
        )
        tenant = server.create_tenant(_required_name(args), quotas=quotas)
        return {"cmd": "tenant_create", "ok": True, "tenant": tenant.describe()}
    if cmd == "tenant_drop":
        server.drop_tenant(_required_name(args))
        return {"cmd": "tenant_drop", "ok": True}
    if cmd == "tenant_quotas":
        from repro.tenants import TenantQuotas

        tenant = server.registry.set_quotas(
            _required_name(args), TenantQuotas.from_dict(args.get("quotas"))
        )
        return {"cmd": "tenant_quotas", "ok": True, "tenant": tenant.describe()}
    raise ServerError(
        "unknown admin command {!r} (known: {})".format(cmd, ", ".join(ADMIN_COMMANDS))
    )


def _required_name(args: Dict[str, Any]) -> str:
    name = args.get("name")
    if not isinstance(name, str) or not name:
        raise ServerError("tenant admin commands need a 'name' string field")
    return name


def tenants_payload(server) -> list:
    """One row per hosted tenant, with live cursor and session counts
    folded in (the registry knows sizes and quotas; only the server
    knows which sessions hold cursors against which tenant)."""
    rows = []
    for name, info in sorted(server.registry.describe().items()):
        tenant = server.registry.tenants.get(name)
        row: Dict[str, Any] = {"name": name}
        row.update(info)
        healthy = tenant is not None and tenant.database is not None
        row["cursors_open"] = server._tenant_cursors(tenant) if healthy else 0
        row["sessions"] = sum(
            1 for s in server.sessions.values() if s.tenant is tenant
        )
        rows.append(row)
    return rows


def stats_payload(server) -> Dict[str, Any]:
    from repro.server.replication import replication_payload

    recovery = server.recovery
    return {
        "replication": replication_payload(server),
        "database": server.database.name,
        "tenants": tenants_payload(server),
        "engine": server.database.metrics.snapshot(),
        "core": default_registry().snapshot(),
        "server": {
            "uptime_s": round(time.time() - server.started_at, 3),
            "sessions": len(server.sessions),
            "cursors_open": sum(
                len(s.cursors) for s in server.sessions.values()
            ),
            "active_readers": server.lock.readers,
            "max_concurrent_readers": server.lock.max_concurrent_readers,
            "writer_active": server.lock.writer_active,
            "draining": server.draining,
            "recovery": None
            if recovery is None
            else {
                "data_dir": recovery.data_dir,
                "checkpoint": recovery.checkpoint_id,
                "checkpoints_taken": recovery.checkpoints,
                "journalled_since_checkpoint": recovery.journalled_since_checkpoint,
                "last_recovery": recovery.last_recovery,
            },
        },
    }


def metrics_text(server) -> str:
    """Every registry in Prometheus text format: the default tenant's
    engine registry under the usual ``repro_`` prefix (so existing
    scrapes are unchanged), each named tenant's registry under
    ``repro_tenant_<name>_`` (per-database registries share metric
    names, and duplicate series are invalid exposition format), then
    the process-global core registry."""
    parts = [server.database.metrics.to_prometheus()]
    for tenant in server.registry:
        if tenant.is_default or tenant.database is None:
            continue
        safe = tenant.name.replace("-", "_")
        parts.append(
            tenant.database.metrics.to_prometheus(
                prefix="repro_tenant_{}_".format(safe)
            )
        )
    parts.append(default_registry().to_prometheus())
    return "".join(parts)


def slowlog_payload(server) -> list:
    log = server.database.slow_query_log
    if log is None:
        return []
    entries = []
    for entry in log.entries():
        entries.append(
            {
                "statement": entry.statement,
                "elapsed_ms": entry.elapsed_ms,
                "span": (
                    render_span_tree(entry.span) if entry.span is not None else None
                ),
            }
        )
    return entries


# ----------------------------------------------------------------------
# the HTTP flavour
# ----------------------------------------------------------------------

_HTTP_ROUTES = {
    "/healthz": ("application/json", lambda s: json.dumps(admin_payload(s, "ping"))),
    "/stats": ("application/json", lambda s: json.dumps(stats_payload(s), indent=1)),
    "/metrics": ("text/plain; version=0.0.4", metrics_text),
    "/slowlog": ("application/json", lambda s: json.dumps(slowlog_payload(s), indent=1)),
    "/sessions": (
        "application/json",
        lambda s: json.dumps([x.describe() for x in s.sessions.values()], indent=1),
    ),
    "/replication": (
        "application/json",
        lambda s: json.dumps(_replication_payload(s), indent=1),
    ),
    "/tenants": (
        "application/json",
        lambda s: json.dumps(tenants_payload(s), indent=1),
    ),
}


def _replication_payload(server):
    from repro.server.replication import replication_payload

    return replication_payload(server)


async def handle_http(server, reader, writer) -> None:
    """One GET request per connection, HTTP/1.0 style (close after)."""
    try:
        request_line = await reader.readline()
        while True:  # drain headers until the blank line
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2 or parts[0] != "GET":
            _http_respond(writer, 405, "text/plain", "method not allowed\n")
            return
        path = parts[1].split("?", 1)[0]
        route = _HTTP_ROUTES.get(path)
        if route is None:
            _http_respond(
                writer,
                404,
                "text/plain",
                "unknown path {}; try {}\n".format(path, ", ".join(sorted(_HTTP_ROUTES))),
            )
            return
        content_type, build = route
        _http_respond(writer, 200, content_type, build(server))
        await writer.drain()
    except (ConnectionError, OSError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _http_respond(writer, status: int, content_type: str, body: str) -> None:
    reasons = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}
    payload = body.encode("utf-8")
    head = (
        "HTTP/1.0 {} {}\r\n"
        "Content-Type: {}\r\n"
        "Content-Length: {}\r\n"
        "Connection: close\r\n\r\n"
    ).format(status, reasons.get(status, "?"), content_type, len(payload))
    writer.write(head.encode("latin-1") + payload)
