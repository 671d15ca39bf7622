"""The database engine: catalog, transactions, persistence, HQL.

The paper positions its model as "a standard interface providing
'higher level' primitive operators … a back-end for, say, a frame-based
knowledge representation system or a semantic net".  This package is
that back-end: a catalog of hierarchies and relations
(:class:`HierarchicalDatabase`), transactions that refuse to commit an
unresolved conflict (section 3.1's "whenever an update is made we
require that the update does not create an unresolved conflict"),
persistence in one binary format (a saved file and a server's
``snapshot.bin`` are the same bytes), and a small statement language
(HQL) exposing every model operation.
"""

from repro.engine.database import HierarchicalDatabase
from repro.engine.oplog import OperationLog
from repro.engine.repl import HQLRepl
from repro.engine.storage import save_database, load_database
from repro.engine.transactions import Transaction

__all__ = [
    "HierarchicalDatabase",
    "Transaction",
    "save_database",
    "load_database",
    "OperationLog",
    "HQLRepl",
]
