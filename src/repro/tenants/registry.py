"""The tenant registry: many named databases under one server process.

One ``repro serve`` process hosts a catalog of *tenants*.  Each tenant
is an independent :class:`~repro.engine.database.HierarchicalDatabase`
with its own hierarchies, relations, query cache, and
per-database metrics registry — nothing is shared between tenants
except the process, so the same relation or hierarchy name in two
tenants can never collide.  A durable server additionally gives every
tenant its own data directory::

    <data_dir>/                    the default tenant (back-compat layout)
    <data_dir>/<tenant>/           one subdirectory per named tenant
        snapshot.bin | .json       via the stock RecoveryManager
        oplog.hql
        tenant.json                quotas and metadata

The **default tenant** occupies the data directory root — exactly the
layout single-tenant servers have always written — so any pre-existing
data dir boots unchanged and any client that never mentions a
``db`` keeps talking to the same database it always did.

Isolation and failure containment
---------------------------------
Each tenant carries its own writer-preferring
:class:`~repro.server.locking.ReadWriteLock`, so a bulk write in one
tenant never blocks reads in another, and per-tenant checkpoints run
under that tenant's exclusive lock only — no global stop-the-world.
A tenant whose snapshot or journal is corrupt at boot is *quarantined*:
the registry records the failure, the server keeps serving every other
tenant, and requests against the broken one raise
:class:`~repro.errors.TenantQuarantinedError` (the ``stats`` surface
lists the reason).

Quotas
------
:class:`TenantQuotas` bounds a tenant's resource footprint: stored
tuples (checked before tuple-adding statements), open cursors across
the tenant's sessions, and statement rate (a :class:`TokenBucket` —
sustained statements/second with a burst allowance).  Violations raise
the typed :class:`~repro.errors.QuotaExceededError`, which the wire
protocol reports as a structured error frame.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.engine import storage
from repro.engine.database import HierarchicalDatabase
from repro.errors import (
    QuotaExceededError,
    StorageError,
    TenantError,
    TenantQuarantinedError,
    UnknownTenantError,
)
from repro.server.locking import ReadWriteLock
from repro.server.recovery import RecoveryManager

DEFAULT_TENANT = "default"
TENANT_META_FILE = "tenant.json"

#: Tenant names double as directory names and wire tokens, so they are
#: deliberately conservative: identifier-shaped, max 64 characters.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]{0,63}$")


def valid_tenant_name(name: str) -> bool:
    return bool(_NAME_RE.match(name or ""))


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantQuotas:
    """Per-tenant resource bounds; ``None`` means unlimited.

    ``statement_rate`` is sustained statements per second; ``burst``
    is the token-bucket capacity (defaults to 2× the rate, min 1) so
    short spikes ride through while the sustained rate is enforced.
    """

    max_tuples: Optional[int] = None
    max_cursors: Optional[int] = None
    statement_rate: Optional[float] = None
    burst: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return (
            self.max_tuples is None
            and self.max_cursors is None
            and self.statement_rate is None
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_tuples": self.max_tuples,
            "max_cursors": self.max_cursors,
            "statement_rate": self.statement_rate,
            "burst": self.burst,
        }

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, object]]) -> "TenantQuotas":
        payload = payload or {}

        def _num(key, cast):
            value = payload.get(key)
            return None if value is None else cast(value)

        return cls(
            max_tuples=_num("max_tuples", int),
            max_cursors=_num("max_cursors", int),
            statement_rate=_num("statement_rate", float),
            burst=_num("burst", int),
        )


class TokenBucket:
    """The classic rate limiter: ``capacity`` tokens, refilled at
    ``rate`` per second; :meth:`take` spends one if available."""

    __slots__ = ("rate", "capacity", "tokens", "stamp")

    def __init__(self, rate: float, capacity: Optional[int] = None) -> None:
        self.rate = float(rate)
        self.capacity = float(
            capacity if capacity is not None else max(1.0, 2.0 * rate)
        )
        self.tokens = self.capacity
        self.stamp = time.monotonic()

    def take(self, now: Optional[float] = None) -> bool:
        now = time.monotonic() if now is None else now
        self.tokens = min(self.capacity, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def __repr__(self) -> str:
        return "TokenBucket(rate={}, tokens={:.2f}/{:.0f})".format(
            self.rate, self.tokens, self.capacity
        )


# ----------------------------------------------------------------------
# one tenant
# ----------------------------------------------------------------------


class Tenant:
    """One named database with its lock, durability, quotas, and
    metrics.  ``quarantined`` holds the bootstrap failure message when
    the tenant's on-disk state could not be recovered (its ``database``
    is then ``None`` and every access raises)."""

    def __init__(
        self,
        name: str,
        database: Optional[HierarchicalDatabase],
        recovery: Optional[RecoveryManager] = None,
        quotas: Optional[TenantQuotas] = None,
        quarantined: Optional[str] = None,
    ) -> None:
        self.name = name
        self.database = database
        self.recovery = recovery
        self.lock = ReadWriteLock()
        self.quarantined = quarantined
        #: Set by the server when the tenant is dropped while sessions
        #: are still bound to it — their next statement reports it gone.
        self.dropped = False
        self.created_at = time.time()
        self._bucket: Optional[TokenBucket] = None
        self.quotas = quotas or TenantQuotas()
        if database is not None:
            metrics = database.metrics
            self.m_statements = metrics.counter("tenant.statements")
            self.m_errors = metrics.counter("tenant.errors")
            self.m_quota_denials = metrics.counter("tenant.quota.denials")

    @property
    def quotas(self) -> TenantQuotas:
        return self._quotas

    @quotas.setter
    def quotas(self, quotas: TenantQuotas) -> None:
        self._quotas = quotas
        self._bucket = (
            TokenBucket(quotas.statement_rate, quotas.burst)
            if quotas.statement_rate
            else None
        )

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_TENANT

    # ------------------------------------------------------------------
    # quota checks (each raises the typed QuotaExceededError)
    # ------------------------------------------------------------------

    def check_statement_rate(self) -> None:
        if self._bucket is not None and not self._bucket.take():
            self.m_quota_denials.inc()
            raise QuotaExceededError(
                self.name,
                "statement_rate",
                self._quotas.statement_rate,
                "rate over {}/s (burst {})".format(
                    self._quotas.statement_rate, int(self._bucket.capacity)
                ),
            )

    def check_tuple_quota(self) -> None:
        """Called before tuple-adding statements (ASSERT/LOAD): once the
        committed store is at the cap, further growth is refused.  The
        check reads committed state, so a transaction staging past the
        cap is caught at its next ASSERT, not mid-commit."""
        limit = self._quotas.max_tuples
        if limit is not None:
            current = self.stored_tuples()
            if current >= limit:
                self.m_quota_denials.inc()
                raise QuotaExceededError(self.name, "max_tuples", limit, current)

    def check_cursor_quota(self, open_cursors: int) -> None:
        limit = self._quotas.max_cursors
        if limit is not None and open_cursors >= limit:
            self.m_quota_denials.inc()
            raise QuotaExceededError(self.name, "max_cursors", limit, open_cursors)

    # ------------------------------------------------------------------

    def stored_tuples(self) -> int:
        if self.database is None:
            return 0
        return sum(len(r) for r in self.database.relations.values())

    def describe(self) -> Dict[str, object]:
        """The per-tenant ``stats`` block: size, cache behaviour, quota
        state, and (when quarantined) the bootstrap failure."""
        if self.quarantined is not None:
            return {"quarantined": self.quarantined}
        metrics = self.database.metrics
        hits = metrics.counter("querycache.hits").value
        misses = metrics.counter("querycache.misses").value
        info: Dict[str, object] = {
            "database": self.database.name,
            "relations": len(self.database.relations),
            "hierarchies": len(self.database.hierarchies),
            "tuples": self.stored_tuples(),
            "statements": self.m_statements.snapshot(),
            "errors": self.m_errors.snapshot(),
            "cache": {
                "entries": metrics.gauge("querycache.entries").value,
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
            },
            "quotas": {
                **self._quotas.to_dict(),
                "denials": self.m_quota_denials.snapshot(),
                "tokens": (
                    None if self._bucket is None else round(self._bucket.tokens, 2)
                ),
            },
        }
        if self.recovery is not None:
            info["data_dir"] = self.recovery.data_dir
            info["checkpoint"] = self.recovery.checkpoint_id
        return info

    def __repr__(self) -> str:
        state = "quarantined" if self.quarantined else "ok"
        return "Tenant({!r}, {})".format(self.name, state)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------


class TenantRegistry:
    """Name → :class:`Tenant`, with durable discovery and lifecycle.

    Construct via :meth:`durable` (a data directory: the default tenant
    recovers from the root, named tenants from subdirectories, corrupt
    ones quarantined) or :meth:`memory` (no durability; tenants are
    created on demand and die with the process).
    """

    def __init__(
        self,
        default: Tenant,
        *,
        data_dir: Optional[str] = None,
        fsync: bool = False,
        snapshot_interval: int = 500,
        default_quotas: Optional[TenantQuotas] = None,
    ) -> None:
        self.data_dir = data_dir
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        self.default_quotas = default_quotas or TenantQuotas()
        if default.quotas.unlimited and not self.default_quotas.unlimited:
            default.quotas = self.default_quotas
        self.tenants: Dict[str, Tenant] = {DEFAULT_TENANT: default}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def memory(
        cls,
        database: Optional[HierarchicalDatabase] = None,
        *,
        name: str = "server",
        default_quotas: Optional[TenantQuotas] = None,
    ) -> "TenantRegistry":
        default = Tenant(
            DEFAULT_TENANT,
            database if database is not None else HierarchicalDatabase(name),
        )
        return cls(default, default_quotas=default_quotas)

    @classmethod
    def durable(
        cls,
        data_dir: str,
        *,
        fsync: bool = False,
        snapshot_interval: int = 500,
        name: str = "server",
        default_quotas: Optional[TenantQuotas] = None,
    ) -> "TenantRegistry":
        """Recover the default tenant from the data-dir root and every
        named tenant from its subdirectory; a tenant that fails to boot
        is quarantined, never fatal."""
        recovery = RecoveryManager(
            data_dir, fsync=fsync, snapshot_interval=snapshot_interval, name=name
        )
        default = Tenant(DEFAULT_TENANT, recovery.recover(), recovery)
        registry = cls(
            default,
            data_dir=data_dir,
            fsync=fsync,
            snapshot_interval=snapshot_interval,
            default_quotas=default_quotas,
        )
        for tenant_name in sorted(registry._discover(data_dir)):
            registry._bootstrap(tenant_name)
        return registry

    @staticmethod
    def _discover(data_dir: str) -> List[str]:
        found = []
        try:
            entries = os.scandir(data_dir)
        except OSError:
            return found
        with entries:
            for entry in entries:
                if entry.is_dir() and valid_tenant_name(entry.name):
                    found.append(entry.name)
        return found

    def _tenant_dir(self, name: str) -> str:
        return os.path.join(self.data_dir, name)

    def _bootstrap(self, name: str) -> Tenant:
        """Recover one named tenant; quarantine instead of raising so a
        single corrupt tenant never takes the server down."""
        quotas = self._load_quotas(name)
        try:
            recovery = RecoveryManager(
                self._tenant_dir(name),
                fsync=self.fsync,
                snapshot_interval=self.snapshot_interval,
                name=name,
            )
            tenant = Tenant(name, recovery.recover(), recovery, quotas=quotas)
        except Exception as exc:  # corrupt snapshot/journal: quarantine
            tenant = Tenant(
                name, None, None, quotas=quotas,
                quarantined="{}: {}".format(type(exc).__name__, exc),
            )
        self.tenants[name] = tenant
        return tenant

    def _load_quotas(self, name: str) -> TenantQuotas:
        if self.data_dir is None:
            return self.default_quotas
        path = os.path.join(self._tenant_dir(name), TENANT_META_FILE)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return self.default_quotas
        return TenantQuotas.from_dict(payload.get("quotas"))

    def _save_quotas(self, name: str, quotas: TenantQuotas) -> None:
        if self.data_dir is None:
            return
        path = os.path.join(self._tenant_dir(name), TENANT_META_FILE)
        payload = json.dumps({"tenant": name, "quotas": quotas.to_dict()}, indent=1)
        try:
            storage.write_bytes_atomic(path, payload.encode("utf-8"))
        except OSError as exc:
            raise StorageError("cannot write {}: {}".format(path, exc)) from exc

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    @property
    def default(self) -> Tenant:
        return self.tenants[DEFAULT_TENANT]

    def names(self) -> List[str]:
        return sorted(self.tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self.tenants.values())

    def __len__(self) -> int:
        return len(self.tenants)

    def __contains__(self, name: str) -> bool:
        return name in self.tenants

    def get(self, name: str) -> Tenant:
        """Resolve a tenant for serving: unknown and quarantined names
        raise their typed errors."""
        try:
            tenant = self.tenants[name]
        except KeyError:
            raise UnknownTenantError(name, self.tenants) from None
        if tenant.quarantined is not None:
            raise TenantQuarantinedError(name, tenant.quarantined)
        return tenant

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(
        self, name: str, quotas: Optional[TenantQuotas] = None
    ) -> Tenant:
        if not valid_tenant_name(name):
            raise TenantError(
                "invalid tenant name {!r}: use letters, digits, '_', '-' "
                "(max 64 chars, leading letter or '_')".format(name)
            )
        if name in self.tenants:
            raise TenantError("tenant {!r} already exists".format(name))
        quotas = quotas or self.default_quotas
        recovery = None
        if self.data_dir is not None:
            recovery = RecoveryManager(
                self._tenant_dir(name),
                fsync=self.fsync,
                snapshot_interval=self.snapshot_interval,
                name=name,
            )
            database = recovery.recover()
        else:
            database = HierarchicalDatabase(name)
        self._save_quotas(name, quotas)
        tenant = Tenant(name, database, recovery, quotas=quotas)
        self.tenants[name] = tenant
        return tenant

    def drop(self, name: str) -> Tenant:
        """Remove a tenant and delete its on-disk state.  The default
        tenant cannot be dropped (clients that name no tenant depend
        on it)."""
        if name == DEFAULT_TENANT:
            raise TenantError("the default tenant cannot be dropped")
        try:
            tenant = self.tenants.pop(name)
        except KeyError:
            raise UnknownTenantError(name, self.tenants) from None
        if self.data_dir is not None:
            shutil.rmtree(self._tenant_dir(name), ignore_errors=True)
        return tenant

    def set_quotas(self, name: str, quotas: TenantQuotas) -> Tenant:
        tenant = self.get(name)
        self._save_quotas(name, quotas)
        tenant.quotas = quotas
        return tenant

    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Dict[str, object]]:
        return {name: tenant.describe() for name, tenant in sorted(self.tenants.items())}

    def __repr__(self) -> str:
        return "TenantRegistry({} tenant(s): {})".format(
            len(self.tenants), ", ".join(self.names())
        )
