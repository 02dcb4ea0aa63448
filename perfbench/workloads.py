"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed alone, sets the engine up
(that span is ``setup_s``), runs a fixed, deterministic statement cycle for a
given number of seconds, and checks every answer.  Nothing here imports
``repro`` at module load, so the set-up timer also covers the engine's
imports.  Why each workload exists, and which layers it stresses, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


class WrongAnswer(Exception):
    """An answer differed from the reference: the run fails."""


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0

    def record(self, shape: str, seconds: float) -> None:
        self.latencies.setdefault(shape, []).append(seconds)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def all_latencies(self) -> List[float]:
        return [x for values in self.latencies.values() for x in values]


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


class InProcessWorkload:
    """One caller running a statement cycle against an in-process Database."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.db = None
        self.cycle: List[Tuple[str, str]] = []
        self._first: Dict[str, list] = {}

    # -- overridden per workload ------------------------------------------

    def load(self, db) -> None:
        raise NotImplementedError

    # -- common ------------------------------------------------------------

    def setup(self) -> None:
        from repro.minidb import Database

        self.db = Database()
        self.load(self.db)
        for sql in dict(self.cycle).values():
            self._first[sql] = self.db.execute(sql).rows

    def run(self, seconds: float, traced: bool = False) -> Phase:
        phase = Phase()
        cycle = self.cycle
        execute = self.db.execute
        start = perf_counter()
        deadline = start + seconds
        i = 0
        end = start
        while end < deadline:
            shape, sql = cycle[i % len(cycle)]
            i += 1
            phase.attempted += 1
            t0 = perf_counter()
            try:
                rows = execute(sql).rows
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                end = perf_counter()
                phase.failed += 1
                continue
            end = perf_counter()
            phase.record(shape, end - t0)
            if rows != self._first[sql]:
                raise WrongAnswer(f"{self.name}: {shape} answered differently on repeat")
        phase.wall_s = end - start
        return phase

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def check(self) -> None:
        """Compare each statement's answer with a serial, unoptimised reference."""
        from repro.minidb import Database

        reference = Database(sgb_workers=1, optimizer=False)
        self.load(reference)
        for shape, sql in dict(self.cycle).items():
            expected = reference.execute(sql).rows
            if self._first[sql] != expected:
                raise WrongAnswer(f"{self.name}: {shape} differs from the reference")

    def close(self) -> None:
        from repro.engine.workers import shutdown_worker_pools

        shutdown_worker_pools()


class CheckinsSGB(InProcessWorkload):
    """The four grouping paths over one synthetic check-in table."""

    name = "checkins_sgb"
    EPS = 0.05
    JOIN_EPS = 0.3
    POIS = 300

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n = 300 if smoke else 2000
        window = self.n // 2
        any_sql = (
            "SELECT count(*), avg(lat), avg(lon), max(t) FROM checkins "
            f"GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN {self.EPS}"
        )
        all_sql = (
            "SELECT count(*), min(user_id), max(t) FROM checkins "
            f"GROUP BY lat, lon DISTANCE-TO-ALL L2 WITHIN {self.EPS} ON-OVERLAP JOIN-ANY"
        )
        join_sql = (
            "SELECT count(*) AS visits FROM (SELECT p.lat AS plat, p.lon AS plon "
            "FROM checkins c SIMILARITY JOIN pois p "
            f"ON DISTANCE(c.lat, c.lon, p.lat, p.lon) WITHIN {self.JOIN_EPS}) m "
            "GROUP BY plat, plon DISTANCE-TO-ANY L2 WITHIN 1.0"
        )
        window_sql = (
            "SELECT count(*), avg(lat) FROM checkins "
            f"GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN {self.EPS} "
            f"WINDOW {window} SLIDE {window // 2}"
        )
        # Four fast ops (SGB-Any, join->group) to two slow ones (SGB-All,
        # WINDOW): the median falls inside the fast band, p90 inside the slow.
        self.cycle = [
            ("sgb_any", any_sql), ("join_group", join_sql), ("sgb_all", all_sql),
            ("sgb_any", any_sql), ("join_group", join_sql), ("window", window_sql),
        ]

    def load(self, db) -> None:
        from repro.workloads.checkins import CheckinConfig, generate_checkins

        records = generate_checkins(
            CheckinConfig(n_checkins=self.n, n_users=self.n, hotspots=25, seed=self.seed)
        )
        db.execute("CREATE TABLE checkins (user_id INT, lat FLOAT, lon FLOAT, t INT)")
        db.execute("CREATE TABLE pois (poi_id INT, lat FLOAT, lon FLOAT)")
        db.insert_rows(
            "checkins", [(r.user_id, r.latitude, r.longitude, r.checkin_time) for r in records]
        )
        # Every k-th check-in location stands in for a venue register.
        step = max(1, self.n // self.POIS)
        pois = [(r.latitude, r.longitude) for r in records[::step]][: self.POIS]
        db.insert_rows("pois", [(i, lat, lon) for i, (lat, lon) in enumerate(pois)])


class TPCHTable2(InProcessWorkload):
    """Round-robin over the paper's Table 2 queries (GB1-3, SGB1-6)."""

    name = "tpch_table2"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        from_bench = _table2_queries()
        self.scale_factor = 0.0002 if smoke else 0.001
        self.cycle = [(name.lower(), sql) for name, sql in from_bench]

    def load(self, db) -> None:
        from repro.workloads.tpch import load_tpch

        load_tpch(db, scale_factor=self.scale_factor, seed=self.seed)


def _table2_queries() -> List[Tuple[str, str]]:
    from repro.bench.queries import sgb_queries, standard_queries

    return list(standard_queries().items()) + list(sgb_queries().items())


# ---------------------------------------------------------------------------
# HTTP ingest + query
# ---------------------------------------------------------------------------

HOTSPOT_SQL = "SELECT count(*) FROM ck GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.4"
BATCH_ROWS = 2
READS_PER_WRITE = 3


class HttpIngest:
    """``python -m repro.server`` with the result cache on, one client.

    The client owns table ``ck`` and repeats: load a batch, then three
    reads.  The first read after each write must regroup; the next two
    should be cache hits.  Every read's ``sum(count)`` must equal the rows
    loaded so far, and the final table must hold exactly those rows.
    """

    name = "http_ingest"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.proc: Optional[subprocess.Popen] = None
        self.conn = None
        self.trace_server = False  # boot through traced_server.py
        self.span_path = ""
        self.routes_before: dict = {}
        self.routes_after: dict = {}
        self.initial: list = []
        self.batches: list = []
        self.loaded = 0  # batches applied so far

    def _make_rows(self) -> None:
        from repro.workloads.checkins import CheckinConfig, generate_checkins

        n = 300 if self.smoke else 3000
        extra = 200 if self.smoke else 4000
        # Wide hotspots (1 degree) keep the regroup mostly linear in the rows,
        # and many users with few check-ins each keep hotspot sizes close to
        # the generator's weights: the regroup cost then varies little from
        # seed to seed.  A cache hit still scans the table, so it is CPU work
        # too, not only request round trips.
        records = generate_checkins(
            CheckinConfig(n_checkins=n + extra, n_users=20 * n, hotspots=15,
                          hotspot_spread_deg=1.0, seed=self.seed)
        )
        rows = [[r.user_id, r.latitude, r.longitude, r.checkin_time] for r in records]
        self.initial = rows[:n]
        self.batches = [rows[i:i + BATCH_ROWS] for i in range(n, len(rows), BATCH_ROWS)]

    def _expected_rows(self) -> list:
        rows = list(self.initial)
        for batch in self.batches[: self.loaded]:
            rows.extend(batch)
        return rows

    def _boot(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["SGB_CACHE"] = "on"  # in-memory result cache, this workload's one setting
        # The job spool would otherwise be a temporary directory outside the
        # checkout; no op of this workload queues a job.
        spool = os.path.join(OUT_DIR, "spool")
        os.makedirs(spool, exist_ok=True)
        argv = ["--host", "127.0.0.1", "--port", "0", "--spool", spool]
        if self.trace_server:
            self.span_path = os.path.join(OUT_DIR, f"server-spans-seed{self.seed}.jsonl")
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "traced_server.py"),
                   self.span_path, *argv]
        else:
            cmd = [sys.executable, "-m", "repro.server", *argv]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self._await_line("listening on http://")
        self.port = int(line.rsplit(":", 1)[1])

    def _await_line(self, needle: str) -> str:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before printing {needle!r}")
            if needle in line:
                return line.strip()

    def setup(self) -> None:
        from repro.server.client import ServerClient

        self._make_rows()
        self._boot()
        self.conn = ServerClient("127.0.0.1", self.port, timeout=120.0)
        self.conn.query("CREATE TABLE ck (user_id INT, lat FLOAT, lon FLOAT, t INT)")
        for i in range(0, len(self.initial), 1000):
            self.conn.load("ck", self.initial[i:i + 1000])
        # Warm-up: one op of each shape.
        if not (self._load() and self._read()):
            raise RuntimeError("warm-up failed")

    def _load(self) -> bool:
        status, _body = self.conn.request(
            "POST", "/v1/load", {"table": "ck", "rows": self.batches[self.loaded]}
        )
        if status != 200:
            return False
        self.loaded += 1
        return True

    def _read(self) -> bool:
        status, body = self.conn.request("POST", "/v1/query", {"sql": HOTSPOT_SQL})
        if status != 200:
            return False
        total = sum(row[0] for row in body["rows"])
        expected = len(self.initial) + BATCH_ROWS * self.loaded
        if total != expected:
            raise WrongAnswer(f"http_ingest: grouped {total} rows, expected {expected}")
        return True

    def run(self, seconds: float, traced: bool = False) -> Phase:
        if traced:
            self.routes_before = self.conn.stats()["routes"]
            self._toggle_trace(signal.SIGUSR1, "tracing on")
        phase = Phase()
        start = perf_counter()
        deadline = start + seconds
        end = start
        op = 0
        while end < deadline:
            phase.attempted += 1
            t0 = perf_counter()
            ok = self._load() if op == 0 else self._read()
            end = perf_counter()
            if ok:
                phase.record("load" if op == 0 else "query", end - t0)
            else:
                phase.failed += 1
            op = (op + 1) % (1 + READS_PER_WRITE)
        phase.wall_s = end - start
        if traced:
            self._toggle_trace(signal.SIGUSR2, "tracing off")
            self.routes_after = self.conn.stats()["routes"]
        return phase

    def _toggle_trace(self, signum: int, ack: str) -> None:
        self.proc.send_signal(signum)
        self._await_line(ack)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def check(self) -> None:
        """The final table must hold exactly the rows the client loaded."""
        body = self.conn.query("SELECT user_id, lat, lon, t FROM ck")
        if body["rows"] != self._expected_rows():
            raise WrongAnswer("http_ingest: final table state differs")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.proc = None


WORKLOADS = {cls.name: cls for cls in (CheckinsSGB, TPCHTable2, HttpIngest)}
