"""A real execution engine over in-process SQLite.

Subclasses :class:`~repro.dbms.engine.ExecutionEngine`, which owns the
whole engine contract (admission, accounting, the completion hook and the
admission gate); this module adds only how an admitted statement runs:
each :class:`~repro.dbms.query.Query` coming out of the existing
``workloads`` specs is mapped to generated TPC-H-like
(aggregate/join scans over ``lineitem``/``orders``) or TPC-C-like
(``new_order``/``payment``/... transactions over ``stock``/``district``)
statements, executed on worker threads against a temporary on-disk SQLite
database in WAL mode.

Mapping from spec demands to real work: a query's synthetic demand
(seconds-at-full-speed on the simulated server) is converted to a
*statement count* via ``statements_per_demand_second``, so relative query
weights survive the translation — an OLAP template with 100x the demand of
an OLTP transaction issues ~100x the statements — while absolute wall time
stays smoke-test short.  Timeron costs remain synthetic (the same
:class:`~repro.dbms.optimizer.CostEstimator` prices them), which is what
the controller's cost limits reason about, exactly as Query Patroller
trusted DB2's estimates.

Threading contract (see :mod:`repro.runtime.realtime`): every method of
this class runs on the control-plane timer thread *except*
``_execute_statements``, which runs on a worker and touches only its own
connection and the thread-safe timer service.  All bookkeeping mutation
(``_executing``, counters, the completion hook, the agent pool) stays on
the timer thread, so no locks guard it.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.dbms.agent import MAX_AGENTS
from repro.dbms.engine import ExecutionEngine
from repro.dbms.query import Query, QueryState
from repro.errors import SimulationError
from repro.runtime.protocols import TimerService
from repro.sim.rng import RandomStreams

#: One SQL statement with bound parameters.
Statement = Tuple[str, Tuple]

#: Fixed seed for synthetic table data — the *database contents* are always
#: identical across runs; only timing varies with the wall clock.
_DATA_SEED = 20070415

_SCHEMA = (
    # TPC-H-like warehouse (scans, aggregates, joins).
    """CREATE TABLE lineitem (
        l_orderkey INTEGER, l_partkey INTEGER, l_quantity REAL,
        l_extendedprice REAL, l_discount REAL, l_shipdate INTEGER)""",
    """CREATE TABLE orders (
        o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER,
        o_totalprice REAL, o_orderdate INTEGER)""",
    "CREATE INDEX idx_lineitem_orderkey ON lineitem (l_orderkey)",
    # TPC-C-like operational tables (point reads/updates, inserts).
    """CREATE TABLE stock (
        s_i_id INTEGER PRIMARY KEY, s_w_id INTEGER,
        s_quantity INTEGER, s_ytd REAL)""",
    "CREATE TABLE district (d_id INTEGER PRIMARY KEY, d_ytd REAL, d_next_o_id INTEGER)",
    """CREATE TABLE order_log (
        ol_id INTEGER PRIMARY KEY AUTOINCREMENT, ol_d_id INTEGER,
        ol_i_id INTEGER, ol_qty INTEGER, ol_ts REAL)""",
    "CREATE TABLE history (h_d_id INTEGER, h_amount REAL, h_ts REAL)",
)

#: TPC-H-like read statements, rotated per (query, statement index) so one
#: OLAP query interleaves several access patterns, like a real DSS plan.
_OLAP_STATEMENTS: Tuple[Statement, ...] = (
    (
        "SELECT l_partkey, SUM(l_extendedprice * (1 - l_discount)), AVG(l_quantity) "
        "FROM lineitem WHERE l_shipdate >= ? GROUP BY l_partkey",
        (30,),
    ),
    (
        "SELECT o.o_custkey, COUNT(*), SUM(l.l_extendedprice) "
        "FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        "WHERE o.o_orderdate >= ? GROUP BY o.o_custkey",
        (10,),
    ),
    (
        "SELECT l_shipdate / 30, COUNT(*), MIN(l_extendedprice), MAX(l_extendedprice) "
        "FROM lineitem GROUP BY l_shipdate / 30",
        (),
    ),
    (
        "SELECT COUNT(*) FROM lineitem l1 JOIN lineitem l2 "
        "ON l1.l_partkey = l2.l_partkey AND l1.l_orderkey < l2.l_orderkey "
        "WHERE l1.l_discount > ?",
        (0.05,),
    ),
)


class SQLiteEngine(ExecutionEngine):
    """Executes the workload's statements for real, against SQLite.

    Parameters
    ----------
    sim:
        The backend's :class:`TimerService` (named ``sim`` for attribute
        parity with :class:`~repro.dbms.engine.DatabaseEngine`, which the
        patroller and controllers rely on).
    config:
        The shared simulation configuration; only the ``optimizer``
        section is consumed here.
    rng:
        Random streams for the cost estimator's noise.
    db_path:
        Existing path for the database file; default is a fresh temp
        directory removed on :meth:`close`.
    workers:
        SQL worker threads.  Defaults to ``min(MAX_AGENTS, 16)`` — the
        agent pool bounds admitted concurrency, the executor bounds actual
        hardware parallelism, mirroring agents-vs-cores on a real server.
    statements_per_demand_second:
        How many SQL statements one demand-second maps to.
    max_statements_per_query:
        Upper bound on statements per query, so the excluded TPC-H
        monsters stay runnable in smoke tests.
    lineitem_rows / stock_rows / districts:
        Synthetic data scale.
    """

    def __init__(
        self,
        sim: TimerService,
        config: SimulationConfig,
        rng: RandomStreams,
        db_path: Optional[str] = None,
        workers: Optional[int] = None,
        statements_per_demand_second: float = 2.0,
        max_statements_per_query: int = 200,
        lineitem_rows: int = 2000,
        stock_rows: int = 500,
        districts: int = 10,
    ) -> None:
        super().__init__(sim, config, rng)
        if statements_per_demand_second <= 0:
            raise SimulationError("statements_per_demand_second must be positive")
        self.statements_per_demand_second = statements_per_demand_second
        self.max_statements_per_query = max_statements_per_query
        self._districts = districts
        self._stock_rows = stock_rows
        self._lineitem_rows = max(1, lineitem_rows)
        self._closed = False
        self._statements_issued = 0
        self.execution_errors = 0
        self.last_error: Optional[str] = None

        if db_path is None:
            self._tmpdir: Optional[str] = tempfile.mkdtemp(prefix="repro-sqlite-")
            self._db_path = os.path.join(self._tmpdir, "repro.db")
        else:
            self._tmpdir = None
            self._db_path = db_path
        self._local = threading.local()
        self._conn_lock = threading.Lock()
        self._all_connections: List[sqlite3.Connection] = []
        self._populate()
        if workers is None:
            workers = min(MAX_AGENTS, 16)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-sql"
        )

    # ------------------------------------------------------------------
    # Database setup
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self._db_path, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute("PRAGMA busy_timeout=5000")
        with self._conn_lock:
            self._all_connections.append(conn)
        return conn

    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
        return conn

    def _populate(self) -> None:
        import random

        gen = random.Random(_DATA_SEED)
        conn = self._connect()
        for ddl in _SCHEMA:
            conn.execute(ddl)
        orders = max(1, self._lineitem_rows // 10)
        conn.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            [
                (okey, gen.randrange(1, 200), gen.uniform(100.0, 40000.0), gen.randrange(0, 365))
                for okey in range(1, orders + 1)
            ],
        )
        conn.executemany(
            "INSERT INTO lineitem VALUES (?, ?, ?, ?, ?, ?)",
            [
                (
                    gen.randrange(1, orders + 1),
                    gen.randrange(1, 200),
                    gen.uniform(1.0, 50.0),
                    gen.uniform(10.0, 2000.0),
                    gen.uniform(0.0, 0.1),
                    gen.randrange(0, 365),
                )
                for _ in range(self._lineitem_rows)
            ],
        )
        conn.executemany(
            "INSERT INTO stock VALUES (?, ?, ?, ?)",
            [
                (item, 1 + item % 4, gen.randrange(10, 100), 0.0)
                for item in range(1, self._stock_rows + 1)
            ],
        )
        conn.executemany(
            "INSERT INTO district VALUES (?, ?, ?)",
            [(d, 0.0, 1) for d in range(1, self._districts + 1)],
        )
        conn.commit()

    @property
    def statements_issued(self) -> int:
        """Real SQL statements generated so far (diagnostics)."""
        return self._statements_issued

    # ------------------------------------------------------------------
    # Execution (timer thread)
    # ------------------------------------------------------------------
    def _start(self, query: Query) -> None:
        query.state = QueryState.EXECUTING
        query.start_time = self.sim.now
        self._executing[query.query_id] = query
        statements = self._statements_for(query)
        self._statements_issued += len(statements)
        if self._closed:
            # Shutting down: complete administratively, keep accounting
            # balanced, run no SQL.
            self._finish(query)
            return
        self._pool.submit(self._execute_statements, query, statements)

    def _execute_statements(self, query: Query, statements: List[Statement]) -> None:
        """Worker thread: run the SQL, then post completion to the loop."""
        try:
            conn = self._connection()
            for sql, params in statements:
                conn.execute(sql, params).fetchall()
            conn.commit()
        except Exception as exc:  # completion must balance even on failure
            self.execution_errors += 1
            self.last_error = "{}: {}".format(type(exc).__name__, exc)
            try:
                self._connection().rollback()
            except Exception:
                pass
        self.sim.schedule(
            0.0,
            lambda: self._finish(query),
            label="sqlite:finish:q{}".format(query.query_id),
        )

    # ------------------------------------------------------------------
    # Statement generation
    # ------------------------------------------------------------------
    def _statement_count(self, query: Query) -> int:
        demand = query.cpu_demand + query.io_demand
        count = int(round(demand * self.statements_per_demand_second))
        return max(1, min(self.max_statements_per_query, count))

    def _statements_for(self, query: Query) -> List[Statement]:
        """Map a workload-spec query to concrete SQL.

        OLAP queries become a rotation of aggregate/join scans whose
        *count* scales with the template's demand; OLTP queries become the
        matching TPC-C-like transaction (point update + insert or short
        select), parameterised deterministically from the query id.
        """
        count = self._statement_count(query)
        if query.kind == "olap":
            return [
                _OLAP_STATEMENTS[(query.query_id + i) % len(_OLAP_STATEMENTS)]
                for i in range(count)
            ]
        return self._oltp_statements(query, count)

    def _oltp_statements(self, query: Query, count: int) -> List[Statement]:
        qid = query.query_id
        d_id = 1 + qid % self._districts
        item = 1 + qid % self._stock_rows
        now = self.sim.now
        builders: Dict[str, Callable[[], List[Statement]]] = {
            "new_order": lambda: [
                (
                    "UPDATE stock SET s_quantity = s_quantity - ?, s_ytd = s_ytd + ? "
                    "WHERE s_i_id = ?",
                    (1, 9.99, item),
                ),
                (
                    "INSERT INTO order_log (ol_d_id, ol_i_id, ol_qty, ol_ts) "
                    "VALUES (?, ?, ?, ?)",
                    (d_id, item, 1 + qid % 9, now),
                ),
            ],
            "payment": lambda: [
                ("UPDATE district SET d_ytd = d_ytd + ? WHERE d_id = ?", (19.99, d_id)),
                ("INSERT INTO history VALUES (?, ?, ?)", (d_id, 19.99, now)),
            ],
            "order_status": lambda: [
                (
                    "SELECT ol_i_id, ol_qty FROM order_log WHERE ol_d_id = ? "
                    "ORDER BY ol_id DESC LIMIT 10",
                    (d_id,),
                ),
            ],
            "delivery": lambda: [
                (
                    "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_id = ?",
                    (d_id,),
                ),
                (
                    "SELECT COUNT(*), MAX(ol_ts) FROM order_log WHERE ol_d_id = ?",
                    (d_id,),
                ),
            ],
            "stock_level": lambda: [
                (
                    "SELECT COUNT(*) FROM stock WHERE s_w_id = ? AND s_quantity < ?",
                    (1 + qid % 4, 30),
                ),
            ],
        }
        build = builders.get(
            query.template,
            lambda: [
                ("SELECT s_quantity, s_ytd FROM stock WHERE s_i_id = ?", (item,)),
            ],
        )
        statements = build()
        # Heavier-than-one-transaction OLTP demand repeats the transaction.
        repeats = max(1, count // max(1, len(statements)))
        return statements * repeats if repeats > 1 else statements

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain workers, close connections, remove the temp database."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._conn_lock:
            connections = list(self._all_connections)
            self._all_connections.clear()
        for conn in connections:
            try:
                conn.close()
            except Exception:
                pass
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SQLiteEngine(executing={}, completed={}, statements={})".format(
            len(self._executing), self._completed, self._statements_issued
        )
