"""Command-line entry points: ``python -m repro <command>``.

Commands
--------
``repl [db.json]``
    Start the interactive HQL shell, optionally over a saved database.
``run script.hql [--db db.json] [--save out.json]``
    Execute an HQL script file (against a loaded database if ``--db``),
    print each result, optionally save the final state.
``serve [--data-dir DIR] [--port P] [--admin-port P] ...``
    Serve a database over the HQL wire protocol (docs/SERVER.md).  With
    ``--data-dir`` the server recovers from snapshot + oplog on boot,
    journals every committed write, and checkpoints periodically and at
    graceful shutdown (SIGINT/SIGTERM drain in-flight statements).
``connect [--host H] [--port P] [--db TENANT]``
    Interactive HQL shell over the wire against a running server,
    optionally bound to a named tenant (``\\use`` switches later).
``tenants [--host H] [--port P] [--json] [create|drop NAME ...]``
    List a server's tenants (sizes, cache hit rates, quota state), or
    manage them: ``tenants create NAME [--max-tuples N] ...``,
    ``tenants drop NAME``.
``replicas [--host H] [--port P] [--json]``
    A server's replication role; on a leader, per-follower lag.
``version``
    Print the package version.

Replication: ``serve --data-dir DIR`` makes a *leader* (it has a
journal to ship); ``serve --replicate-from HOST:PORT`` makes a
read-only *follower* that bootstraps from the leader's snapshot and
replays its journal live (``--max-staleness`` bounds how stale a
follower will serve reads).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
from typing import List, Optional

from repro import __version__
from repro.engine.database import HierarchicalDatabase
from repro.engine.hql import HQLExecutor
from repro.engine.repl import HQLRepl
from repro.errors import ReproError

DEFAULT_PORT = 7497


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The hierarchical relational model (Jagadish, SIGMOD 1989).",
    )
    commands = parser.add_subparsers(dest="command")

    repl = commands.add_parser("repl", help="interactive HQL shell")
    repl.add_argument("database", nargs="?", help="a saved database (JSON)")

    run = commands.add_parser("run", help="execute an HQL script file")
    run.add_argument("script", help="path to the .hql file")
    run.add_argument("--db", help="load this database first")
    run.add_argument("--save", help="save the database here afterwards")
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-statement output"
    )

    serve = commands.add_parser("serve", help="serve HQL over the network")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT, help="port (0 = ephemeral)")
    serve.add_argument(
        "--data-dir",
        help="durable data directory (snapshot + oplog); recovered on boot",
    )
    serve.add_argument("--db", help="serve this saved database (no durability)")
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=500,
        help="journalled statements between automatic checkpoints (0 = off)",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the oplog on every committed write (power-loss durability)",
    )
    serve.add_argument(
        "--admin-port",
        type=int,
        help="also serve HTTP /metrics /stats /slowlog /sessions here",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        help="enable the slow-query log at this threshold (milliseconds)",
    )
    serve.add_argument(
        "--replicate-from",
        metavar="HOST:PORT",
        help="run as a read-only follower streaming this leader's journal",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="follower reconnect delay after losing the leader (seconds)",
    )
    serve.add_argument(
        "--max-staleness",
        type=float,
        help="follower refuses reads once this many seconds behind the leader "
        "(default: serve reads no matter how stale)",
    )
    serve.add_argument(
        "--tenants",
        metavar="NAME",
        nargs="+",
        help="named tenants to create at boot (beyond those discovered "
        "in --data-dir subdirectories)",
    )
    serve.add_argument(
        "--max-tuples",
        type=int,
        help="default per-tenant quota: stored tuples",
    )
    serve.add_argument(
        "--max-cursors",
        type=int,
        help="default per-tenant quota: open cursors",
    )
    serve.add_argument(
        "--statement-rate",
        type=float,
        help="default per-tenant quota: sustained statements per second",
    )

    connect = commands.add_parser("connect", help="HQL shell over the wire")
    connect.add_argument("--host", default="127.0.0.1")
    connect.add_argument("--port", type=int, default=DEFAULT_PORT)
    connect.add_argument(
        "--db", help="bind the session to this tenant (default: 'default')"
    )

    tenants = commands.add_parser(
        "tenants", help="list or manage a server's tenants"
    )
    tenants.add_argument("action", nargs="?", choices=("create", "drop", "quotas"))
    tenants.add_argument("name", nargs="?", help="tenant name (for create/drop/quotas)")
    tenants.add_argument("--host", default="127.0.0.1")
    tenants.add_argument("--port", type=int, default=DEFAULT_PORT)
    tenants.add_argument(
        "--json", action="store_true", help="raw JSON instead of a table"
    )
    tenants.add_argument("--max-tuples", type=int, help="quota: stored tuples")
    tenants.add_argument("--max-cursors", type=int, help="quota: open cursors")
    tenants.add_argument(
        "--statement-rate", type=float, help="quota: sustained statements/second"
    )

    replicas = commands.add_parser(
        "replicas", help="show a server's replication role and follower lag"
    )
    replicas.add_argument("--host", default="127.0.0.1")
    replicas.add_argument("--port", type=int, default=DEFAULT_PORT)
    replicas.add_argument(
        "--json", action="store_true", help="raw JSON instead of a table"
    )

    commands.add_parser("version", help="print the package version")
    return parser


def _cmd_serve(args) -> int:
    from repro.server import HQLServer

    if args.data_dir and args.db:
        print("error: --data-dir and --db are mutually exclusive")
        return 2
    if args.replicate_from and (args.data_dir or args.db):
        print(
            "error: --replicate-from streams all state from the leader; "
            "it cannot combine with --data-dir or --db"
        )
        return 2
    database = None
    if args.db:
        database = HierarchicalDatabase.load(args.db)

    default_quotas = None
    if args.max_tuples or args.max_cursors or args.statement_rate:
        from repro.tenants import TenantQuotas

        default_quotas = TenantQuotas(
            max_tuples=args.max_tuples,
            max_cursors=args.max_cursors,
            statement_rate=args.statement_rate,
        )

    server = HQLServer(
        database,
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        snapshot_interval=args.snapshot_interval,
        fsync=args.fsync,
        admin_port=args.admin_port,
        slow_query_ms=args.slow_ms,
        replicate_from=args.replicate_from,
        max_staleness_s=args.max_staleness,
        retry_s=args.poll_interval,
        default_quotas=default_quotas,
        tenants=tuple(args.tenants or ()),
    )

    async def main() -> None:
        host, port = await server.start()
        if server.follower_state is not None:
            print(
                "replicating from leader {} (read-only follower)".format(
                    server.follower_state.leader_addr
                ),
                flush=True,
            )
        recovery = server.recovery
        if recovery is not None and recovery.last_recovery is not None:
            info = recovery.last_recovery
            print(
                "recovered from {}: snapshot={} checkpoint={} replayed={} "
                "statement(s){}".format(
                    recovery.data_dir,
                    "yes" if info["snapshot"] else "no",
                    info["checkpoint"],
                    info["replayed"],
                    " (stale oplog discarded)" if info["discarded_stale_log"] else "",
                )
            )
        print("repro server listening on {}:{}".format(host, port), flush=True)
        named = [n for n in server.registry.names() if n != "default"]
        if named:
            print(
                "hosting {} tenant(s): default, {}".format(
                    len(named) + 1, ", ".join(named)
                ),
                flush=True,
            )
        if server.admin_port is not None:
            print(
                "admin endpoint on http://{}:{} (/metrics /stats /slowlog)".format(
                    host, server.admin_port
                ),
                flush=True,
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, stop.set)
        serve_task = asyncio.create_task(server.serve_forever())
        await stop.wait()
        print("shutting down: draining in-flight statements ...", flush=True)
        await server.shutdown(drain=True)
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    print("server stopped")
    return 0


def _cmd_replicas(args) -> int:
    import json

    from repro.client import HQLClient
    from repro.errors import ServerError

    client = HQLClient(host=args.host, port=args.port)
    try:
        payload = client.replication()
    except ServerError as exc:
        print("error: {}".format(exc))
        return 1
    finally:
        client.close()
    if args.json:
        print(json.dumps(payload, indent=1))
        return 0
    role = payload.get("role", "?")
    if role == "single":
        print("role: single (no replication configured)")
        return 0
    if role == "follower":
        print(
            "role: follower of {}  connected={}  position=({}, {})  "
            "lag={} entr{}  staleness={} ms  resyncs={}".format(
                payload.get("leader"),
                payload.get("connected"),
                payload.get("checkpoint"),
                payload.get("offset"),
                payload.get("lag_entries"),
                "y" if payload.get("lag_entries") == 1 else "ies",
                payload.get("staleness_ms"),
                payload.get("resyncs"),
            )
        )
        return 0
    print(
        "role: leader  generation={}  position=({}, {})  shipped={} entr{}".format(
            payload.get("generation"),
            payload.get("checkpoint"),
            payload.get("end_offset"),
            (payload.get("ship") or {}).get("entries", 0),
            "y" if (payload.get("ship") or {}).get("entries") == 1 else "ies",
        )
    )
    followers = payload.get("followers") or []
    if not followers:
        print("no followers attached")
        return 0
    print(
        "{:<24} {:>4} {:>6} {:>8} {:>12} {:>10} {:>10}".format(
            "follower", "gen", "ckpt", "offset", "lag_entries", "lag_ms", "seen_s"
        )
    )
    for row in followers:
        print(
            "{:<24} {:>4} {:>6} {:>8} {:>12} {:>10} {:>10}".format(
                (row.get("addr") or row.get("id") or "?")[:24],
                row.get("generation"),
                row.get("checkpoint"),
                row.get("offset"),
                row.get("lag_entries"),
                row.get("lag_ms"),
                row.get("last_seen_s"),
            )
        )
    return 0


def _cmd_connect(args) -> int:
    from repro.client import HQLClient, RemoteRepl
    from repro.errors import ServerError

    client = HQLClient(host=args.host, port=args.port, db=args.db)
    try:
        client.connect()
        if args.db:
            client.use(args.db)
    except ServerError as exc:
        print("error: {}".format(exc))
        client.close()
        return 1
    try:
        RemoteRepl(client).run()
    finally:
        client.close()
    return 0


def _cmd_tenants(args) -> int:
    import json

    from repro.client import HQLClient, _render_tenants
    from repro.errors import ServerError

    quotas = {}
    if args.max_tuples is not None:
        quotas["max_tuples"] = args.max_tuples
    if args.max_cursors is not None:
        quotas["max_cursors"] = args.max_cursors
    if args.statement_rate is not None:
        quotas["statement_rate"] = args.statement_rate

    client = HQLClient(host=args.host, port=args.port)
    try:
        if args.action in ("create", "drop", "quotas"):
            if not args.name:
                print("error: 'tenants {}' needs a tenant name".format(args.action))
                return 2
            if args.action == "create":
                client.create_tenant(args.name, quotas=quotas or None)
                print("created tenant {!r}".format(args.name))
            elif args.action == "drop":
                client.drop_tenant(args.name)
                print("dropped tenant {!r}".format(args.name))
            else:
                client.set_tenant_quotas(args.name, quotas)
                print("updated quotas for tenant {!r}".format(args.name))
        rows = client.tenants()
    except ServerError as exc:
        print("error: {}".format(exc))
        return 1
    finally:
        client.close()
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        print(_render_tenants(rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "repl":
        if args.database:
            try:
                database = HierarchicalDatabase.load(args.database)
            except (ReproError, OSError) as exc:
                print("error: {}".format(exc))
                return 1
        else:
            database = HierarchicalDatabase("session")
        HQLRepl(database).run()
        return 0
    if args.command == "run":
        if args.db:
            database = HierarchicalDatabase.load(args.db)
        else:
            database = HierarchicalDatabase("script")
        with open(args.script, "r", encoding="utf-8") as handle:
            text = handle.read()
        session = HQLExecutor(database)
        for result in session.run(text):
            if not args.quiet:
                print(result)
        if args.save:
            database.save(args.save)
        return 0
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "connect":
        return _cmd_connect(args)
    if args.command == "replicas":
        return _cmd_replicas(args)
    if args.command == "tenants":
        return _cmd_tenants(args)
    _build_parser().print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
