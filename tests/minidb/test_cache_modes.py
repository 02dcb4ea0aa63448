"""The SQL executors' use of the result cache: every mode, and no stale growth."""

from __future__ import annotations

import random

import pytest

import repro.minidb.exec.sgb as sgb_module
from repro.minidb.database import Database
from repro.storage.cache import ResultCache, reset_default_cache


@pytest.fixture(autouse=True)
def isolated_cache_env(monkeypatch):
    """Neutralise SGB_CACHE (CI runs an off-smoke tier) and SGB_WORKERS."""
    monkeypatch.delenv("SGB_CACHE", raising=False)
    monkeypatch.delenv("SGB_WORKERS", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


def _make_db(cache, n=600, seed=4) -> Database:
    db = Database(cache=cache)
    db.create_table("t", [("x", "FLOAT"), ("y", "FLOAT"), ("v", "INT")])
    rng = random.Random(seed)
    db.insert_rows(
        "t",
        [(rng.uniform(0, 20), rng.uniform(0, 20), rng.randrange(100)) for _ in range(n)],
    )
    return db


def _sgb_sql(workers: str) -> str:
    return (
        "SELECT count(*), sum(v) FROM t "
        f"GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.6{workers}"
    )


class TestLookupBeforeEveryMode:
    @pytest.mark.parametrize("workers", ["", " WORKERS 1", " WORKERS 2"])
    def test_warm_query_hits_under_every_worker_setting(self, workers, monkeypatch):
        pushdowns = []
        real = sgb_module.sgb_any_pushdown

        def spy(*args, **kwargs):
            pushdowns.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(sgb_module, "sgb_any_pushdown", spy)
        cache = ResultCache.memory()
        db = _make_db(cache)
        cold = db.execute(_sgb_sql(workers))
        assert (cache.hits, cache.misses, cache.puts) == (0, 1, 1)
        tried = len(pushdowns)
        warm = db.execute(_sgb_sql(workers))
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)
        assert warm.rows == cold.rows
        # A hit runs no execution mode at all, push-down included.
        assert len(pushdowns) == tried
        if workers == " WORKERS 2":
            assert tried == 1

    def test_planner_chosen_pushdown_is_cached(self, monkeypatch):
        # Force the auto planner's sharded plan, which routes a COUNT(*)
        # list through shard-level push-down on the cold query.
        from repro.engine.cost import PhysicalPlan

        def sharded(stats, eps):
            return PhysicalPlan(
                op="sgb_any", mode="sharded", workers=2, shards=4,
                est_cost=0.0, est_rows=1, reason="forced by the test",
            )

        monkeypatch.setattr(sgb_module, "plan_sgb_any", sharded)
        pushed = []
        real = sgb_module.sgb_any_pushdown

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            pushed.append(result is not None)
            return result

        monkeypatch.setattr(sgb_module, "sgb_any_pushdown", spy)
        sql = "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.6"
        cache = ResultCache.memory()
        db = _make_db(cache)
        reference = _make_db(None).execute(sql + " WORKERS 1").rows
        cold = db.execute(sql)
        warm = db.execute(sql)
        assert pushed == [True]
        assert (cache.hits, cache.misses) == (1, 1)
        assert cold.rows == warm.rows == reference


class TestSupersede:
    def test_store_keeps_one_entry_per_slot_across_writes(self):
        cache = ResultCache.memory()
        db = _make_db(cache, n=200)
        sql = _sgb_sql("")
        for cycle in range(12):
            db.execute(f"INSERT INTO t VALUES ({cycle}.5, 1.5, {cycle})")
            first = db.execute(sql)
            assert db.execute(sql).rows == first.rows
            assert len(cache.store.keys()) == 1
        assert (cache.hits, cache.misses) == (12, 12)

    def test_distinct_slots_keep_their_own_entries(self):
        cache = ResultCache.memory()
        db = _make_db(cache, n=200)
        db.execute(_sgb_sql(""))
        db.execute(_sgb_sql("").replace("WITHIN 0.6", "WITHIN 0.9"))
        db.execute(
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.6"
        )
        assert len(cache.store.keys()) == 3
        db.execute("INSERT INTO t VALUES (1.0, 1.0, 1)")
        db.execute(_sgb_sql(""))
        # The rewritten slot replaced its entry; the other two stay.
        assert len(cache.store.keys()) == 3

    def test_join_entries_are_superseded_too(self):
        cache = ResultCache.memory()
        db = _make_db(cache, n=150)
        db.create_table("p", [("px", "FLOAT"), ("py", "FLOAT")])
        db.insert_rows("p", [(float(i), float(i)) for i in range(20)])
        sql = (
            "SELECT count(*) FROM t SIMILARITY JOIN p "
            "ON DISTANCE(t.x, t.y, p.px, p.py) WITHIN 1.0"
        )
        for cycle in range(5):
            db.execute(f"INSERT INTO p VALUES ({cycle}.25, {cycle}.75)")
            cold = db.execute(sql)
            assert db.execute(sql).rows == cold.rows
            assert len(cache.store.keys()) == 1
        assert (cache.hits, cache.misses) == (5, 5)

    def test_supersede_deletes_only_the_previous_key(self):
        cache = ResultCache.memory()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.supersede("slot", "a")
        cache.supersede("slot", "a")
        assert cache.get("a") == 1
        cache.supersede("slot", "b")
        assert cache.get("a") is None
        assert cache.get("b") == 2
        cache.supersede(None, "c")
        cache.supersede("other", "c")
        assert cache.get("b") == 2 and cache.get("c") == 3
