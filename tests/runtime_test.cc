// Unit tests for the concurrency runtime: ThreadPool, the LruCache behind
// SharedMeasureCache and PlanCache (LRU bounds, generation invalidation,
// stats), QueryScheduler admission
// control, Session basics, engine-wide stats aggregation, and the
// generation counters that drive cross-query cache invalidation.

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "binder/binder.h"
#include "catalog/catalog.h"
#include "catalog/table.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "runtime/fingerprint.h"
#include "runtime/lru_cache.h"
#include "runtime/plan_cache.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"

namespace msql {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.Submit([&count] { ++count; }));
    }
    pool.Shutdown();  // drains the queue before joining
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.Submit([&count] { ++count; }));
    }
  }
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------------
// SharedMeasureCache (the LruCache PlanCache shares)
// ---------------------------------------------------------------------------

// A value held the way the measure memo holds one: boxed as an object.
std::shared_ptr<const void> Boxed(int64_t i) {
  return std::make_shared<const Value>(Value::Int(i));
}
constexpr uint64_t kBoxedBytes = sizeof(Value);
int64_t IntOf(const std::shared_ptr<const void>& object) {
  return static_cast<const Value*>(object.get())->int_val();
}

TEST(SharedCacheTest, LookupAfterInsertHits) {
  SharedMeasureCache cache;
  cache.Insert("k1", Boxed(42), kBoxedBytes, /*generation=*/1);
  std::shared_ptr<const void> v = cache.Lookup("k1");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(IntOf(v), 42);
  EXPECT_EQ(cache.Lookup("nope"), nullptr);
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(SharedCacheTest, ReplacesSameKey) {
  SharedMeasureCache cache;
  cache.Insert("k", Boxed(1), kBoxedBytes, 1);
  cache.Insert("k", Boxed(2), kBoxedBytes, 1);
  std::shared_ptr<const void> v = cache.Lookup("k");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(IntOf(v), 2);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SharedCacheTest, EvictsLeastRecentlyUsed) {
  // Each cache fits 2 entries, one by its byte budget and one by its entry
  // cap; key "a" is kept hot by a lookup, so inserting a third entry must
  // evict "b", the least recently used.
  SharedMeasureCache by_bytes(2 * LruCache::EntryBytes("a", kBoxedBytes) +
                              8);
  PlanCache by_entries(LruCache::kDefaultMaxBytes, /*max_entries=*/2);
  for (LruCache* cache : {&by_bytes, &by_entries}) {
    cache->Insert("a", Boxed(1), kBoxedBytes, 1);
    cache->Insert("b", Boxed(2), kBoxedBytes, 1);
    ASSERT_NE(cache->Lookup("a"), nullptr);  // refresh "a"
    cache->Insert("c", Boxed(3), kBoxedBytes, 1);
    EXPECT_NE(cache->Lookup("a"), nullptr);
    EXPECT_EQ(cache->Lookup("b"), nullptr);
    EXPECT_NE(cache->Lookup("c"), nullptr);
    EXPECT_GE(cache->stats().evictions, 1u);
    EXPECT_LE(cache->stats().bytes, cache->max_bytes());
    EXPECT_LE(cache->stats().entries, cache->max_entries());
  }
}

TEST(SharedCacheTest, OversizedEntryRejected) {
  SharedMeasureCache cache(16);  // smaller than any entry
  cache.Insert("key", Boxed(1), kBoxedBytes, 1);
  EXPECT_EQ(cache.Lookup("key"), nullptr);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SharedCacheTest, InvalidationPurgesOldGenerations) {
  SharedMeasureCache cache;
  cache.Insert("old", Boxed(1), kBoxedBytes, 1);
  cache.Insert("new", Boxed(2), kBoxedBytes, 5);
  cache.InvalidateOlderThan(5);
  EXPECT_EQ(cache.stats().entries, 1u);  // purged at once, not on probe
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.Lookup("old"), nullptr);
  EXPECT_NE(cache.Lookup("new"), nullptr);
}

TEST(SharedCacheTest, StaleInsertRejectedAfterInvalidation) {
  // The race this closes: a query snapshots generation 1, a mutation bumps
  // to 2 and invalidates, then the query tries to publish. The publish must
  // be dropped or the next reader would see pre-mutation data forever.
  SharedMeasureCache cache;
  cache.InvalidateOlderThan(2);
  cache.Insert("k", Boxed(1), kBoxedBytes, 1);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.stats().rejected, 1u);

  // A write raises the floor of both engine caches: each rejects an entry
  // computed at the generation before it.
  EngineOptions options;
  options.enable_plan_cache = true;
  Engine db(options);
  const uint64_t before = db.catalog().generation();
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INTEGER)").ok());
  ASSERT_GT(db.catalog().generation(), before);
  for (LruCache* engine_cache : {&db.shared_cache(), &db.plan_cache()}) {
    engine_cache->Insert("k", Boxed(1), kBoxedBytes, before);
    EXPECT_EQ(engine_cache->Lookup("k"), nullptr);
    EXPECT_EQ(engine_cache->stats().rejected, 1u);
  }
}

TEST(SharedCacheTest, ClearKeepsInvalidationFloor) {
  SharedMeasureCache cache;
  cache.InvalidateOlderThan(3);
  cache.Clear();
  cache.Insert("k", Boxed(1), kBoxedBytes, 2);  // still stale
  EXPECT_EQ(cache.Lookup("k"), nullptr);
}

TEST(SharedCacheTest, ShrinkingBudgetEvicts) {
  SharedMeasureCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.Insert("key" + std::to_string(i), Boxed(i), kBoxedBytes, 1);
  }
  EXPECT_EQ(cache.stats().entries, 10u);
  cache.set_max_bytes(3 * LruCache::EntryBytes("key0", kBoxedBytes) + 8);
  EXPECT_LE(cache.stats().bytes, cache.max_bytes());
  EXPECT_LT(cache.stats().entries, 10u);
}

// ---------------------------------------------------------------------------
// Generation counters (Table / Catalog)
// ---------------------------------------------------------------------------

TEST(GenerationTest, TableMutationsBumpGeneration) {
  Schema s;
  s.AddColumn(Column("x", DataType::Int64()));
  Table t("t", s);
  const uint64_t g0 = t.generation();
  ASSERT_TRUE(t.AppendRow({Value::Int(1)}).ok());
  EXPECT_GT(t.generation(), g0);
  const uint64_t g1 = t.generation();
  ASSERT_TRUE(t.AppendRows({{Value::Int(2)}, {Value::Int(3)}}).ok());
  EXPECT_GT(t.generation(), g1);
}

TEST(GenerationTest, SnapshotUnaffectedByLaterWrites) {
  Schema s;
  s.AddColumn(Column("x", DataType::Int64()));
  Table t("t", s);
  ASSERT_TRUE(t.AppendRow({Value::Int(1)}).ok());
  Table::RowsSnapshot snap = t.snapshot();
  ASSERT_TRUE(t.AppendRow({Value::Int(2)}).ok());
  EXPECT_EQ(snap->size(), 1u);  // the snapshot is frozen
  EXPECT_EQ((*snap)[0][0].int_val(), 1);
  EXPECT_EQ(t.num_rows(), 2u);
}

// One writer appends 50-row batches across several buffer growths while 3
// readers snapshot and scan the rows and, through ColumnsFor, the image;
// both must hold exactly the prefix the snapshot saw (COUNT, SUM, and the
// strings).
TEST(GenerationTest, WritesBesideScansSeeTheirPrefix) {
  Schema s;
  s.AddColumn(Column("x", DataType::Int64()));
  s.AddColumn(Column("s", DataType::String()));
  Table t("t", s);
  auto make_row = [](int64_t i) {
    return Row{i % 7 == 0 ? Value::Null() : Value::Int(i),
               Value::String("v" + std::to_string(i % 97))};
  };
  // The sum of x over the first n rows (multiples of 7 are NULL).
  auto prefix_sum = [](int64_t n) {
    int64_t sum = 0;
    for (int64_t i = 0; i < n; ++i) sum += i % 7 == 0 ? 0 : i;
    return sum;
  };
  std::vector<Row> load;
  for (int64_t i = 0; i < 200; ++i) load.push_back(make_row(i));
  ASSERT_TRUE(t.AppendRows(std::move(load)).ok());

  constexpr int64_t kBatches = 40;  // 200 -> 2200 rows: 4 growths
  std::atomic<bool> done{false};
  std::atomic<int> rounds{0};
  std::vector<std::future<void>> readers;
  for (int r = 0; r < 3; ++r) {
    readers.push_back(std::async(std::launch::async, [&] {
      do {
        rounds.fetch_add(1);
        const Table::RowsSnapshot snap = t.snapshot();
        const auto n = static_cast<int64_t>(snap.size());
        auto cols = t.ColumnsFor(snap);
        ASSERT_NE(cols, nullptr);
        ASSERT_EQ(cols->num_rows, n);
        const ColumnVector& x = *cols->cols[0];
        const ColumnVector& str = *cols->cols[1];
        int64_t count = 0, sum = 0, row_sum = 0;
        for (int64_t i = 0; i < n; ++i) {
          if (x.IsValid(i)) {
            ++count;
            sum += x.ints[i];
          }
          const Row& row = snap[static_cast<size_t>(i)];
          if (!row[0].is_null()) row_sum += row[0].int_val();
          ASSERT_EQ(row[1].str(), "v" + std::to_string(i % 97));
          ASSERT_EQ(str.At(i).str(), row[1].str());
        }
        EXPECT_EQ(count, n - (n + 6) / 7);
        EXPECT_EQ(sum, prefix_sum(n));
        EXPECT_EQ(row_sum, prefix_sum(n));
      } while (!done.load(std::memory_order_acquire));
    }));
  }
  while (rounds.load() < 3) std::this_thread::yield();
  for (int64_t b = 0; b < kBatches; ++b) {
    std::vector<Row> batch;
    const int64_t base = 200 + b * 50;
    for (int64_t i = base; i < base + 50; ++i) batch.push_back(make_row(i));
    EXPECT_TRUE(t.AppendRows(std::move(batch)).ok());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& f : readers) f.get();
  EXPECT_EQ(t.num_rows(), 2200u);
}

TEST(GenerationTest, CatalogDdlBumpsGeneration) {
  Catalog c;
  const uint64_t g0 = c.generation();
  Schema s;
  s.AddColumn(Column("x", DataType::Int64()));
  ASSERT_TRUE(c.CreateTable("t", s, false, "").ok());
  const uint64_t g1 = c.generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(c.Grant("t", "alice").ok());
  const uint64_t g2 = c.generation();
  EXPECT_GT(g2, g1);
  ASSERT_TRUE(c.Drop("t", false, false).ok());
  EXPECT_GT(c.generation(), g2);
}

TEST(GenerationTest, DroppedEntrySnapshotStaysValid) {
  Catalog c;
  Schema s;
  s.AddColumn(Column("x", DataType::Int64()));
  ASSERT_TRUE(c.CreateTable("t", s, false, "").ok());
  Catalog::EntryPtr entry = c.Find("t");
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(c.Drop("t", false, false).ok());
  EXPECT_EQ(c.Find("t"), nullptr);
  // The pinned snapshot (as a running query would hold) is still usable.
  EXPECT_EQ(entry->name, "t");
  ASSERT_NE(entry->table, nullptr);
  EXPECT_EQ(entry->table->num_rows(), 0u);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(FingerprintTest, IndependentBindsOfSameSqlAgree) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (a INTEGER, b VARCHAR)").ok());
  Binder b1(&db.catalog(), "");
  Binder b2(&db.catalog(), "");
  auto parse = [](const std::string& sql) {
    auto stmt = Parser::Parse(sql);
    EXPECT_TRUE(stmt.ok());
    return stmt.take();
  };
  auto s1 = parse("SELECT a, COUNT(*) FROM T WHERE b = 'x' GROUP BY a");
  auto s2 = parse("SELECT a, COUNT(*) FROM T WHERE b = 'x' GROUP BY a");
  auto p1 = b1.Bind(*s1->select);
  auto p2 = b2.Bind(*s2->select);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(FingerprintPlan(*p1.value()), FingerprintPlan(*p2.value()));
}

TEST(FingerprintTest, DifferentPredicatesDiffer) {
  Engine db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (a INTEGER, b VARCHAR)").ok());
  Binder binder(&db.catalog(), "");
  auto bind = [&](const std::string& sql) {
    auto stmt = Parser::Parse(sql);
    EXPECT_TRUE(stmt.ok());
    auto plan = binder.Bind(*stmt.value()->select);
    EXPECT_TRUE(plan.ok());
    return FingerprintPlan(*plan.value());
  };
  EXPECT_NE(bind("SELECT a FROM T WHERE a > 1"),
            bind("SELECT a FROM T WHERE a > 2"));
  EXPECT_NE(bind("SELECT a FROM T"), bind("SELECT b FROM T"));
}

// ---------------------------------------------------------------------------
// Sessions + engine stats
// ---------------------------------------------------------------------------

void SeedOrders(Engine* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Orders (prodName VARCHAR, revenue INTEGER)")
          .ok());
  ASSERT_TRUE(db->Execute("INSERT INTO Orders VALUES ('Happy', 6), "
                          "('Acme', 5), ('Happy', 4), ('Whizz', 3)")
                  .ok());
  ASSERT_TRUE(
      db->Execute("CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r "
                  "FROM Orders")
          .ok());
}

TEST(SessionTest, IndependentOptionSnapshots) {
  Engine db;
  SeedOrders(&db);
  SessionPtr grouped = db.CreateSession();
  SessionPtr naive = db.CreateSession();
  naive->options().measure_strategy = MeasureStrategy::kNaive;
  // Engine-level default mutated after session creation: sessions keep
  // their snapshot.
  db.options().max_result_rows = 1;

  const std::string q =
      "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName";
  auto r1 = grouped->Query(q);
  auto r2 = naive->Query(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1.value().ToCsv(), r2.value().ToCsv());
  EXPECT_EQ(r1.value().num_rows(), 3u);
}

TEST(SessionTest, PerSessionUser) {
  Engine db;
  db.SetUser("owner");
  SeedOrders(&db);
  SessionPtr other = db.CreateSession();
  other->SetUser("mallory");
  EXPECT_FALSE(other->Query("SELECT * FROM Orders").ok());
  ASSERT_TRUE(db.Grant("Orders", "mallory").ok());
  EXPECT_TRUE(other->Query("SELECT * FROM Orders").ok());
}

TEST(SessionTest, CancelStopsOwnQueriesOnly) {
  Engine db;
  SeedOrders(&db);
  SessionPtr s1 = db.CreateSession();
  SessionPtr s2 = db.CreateSession();
  s1->Cancel();  // no queries in flight: no-op
  auto r = s2->Query("SELECT COUNT(*) FROM Orders");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows()[0][0].int_val(), 4);
}

TEST(EngineStatsTest, AggregatesAcrossQueries) {
  Engine db;
  SeedOrders(&db);
  const std::string q =
      "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName";
  ASSERT_TRUE(db.Query(q).ok());
  const EngineStats s1 = db.stats();
  EXPECT_GT(s1.queries, 0u);
  EXPECT_GT(s1.measure_evals, 0u);
  ASSERT_TRUE(db.Query(q).ok());
  const EngineStats s2 = db.stats();
  EXPECT_GT(s2.queries, s1.queries);
  EXPECT_GT(s2.measure_evals, s1.measure_evals);
}

TEST(EngineStatsTest, SharedCacheServesRepeatQueries) {
  Engine db;
  SeedOrders(&db);
  // The ratio query forces dimension-context evaluations (source scans),
  // not just the row-id fast path.
  const std::string q =
      "SELECT prodName, AGGREGATE(r) / (r AT (ALL)) FROM EO "
      "GROUP BY prodName";
  ASSERT_TRUE(db.Query(q).ok());
  const EngineStats cold = db.stats();
  EXPECT_GT(cold.shared_cache_insertions, 0u);
  EXPECT_GT(cold.measure_source_scans, 0u);

  ASSERT_TRUE(db.Query(q).ok());
  const EngineStats warm = db.stats();
  EXPECT_GT(warm.shared_cache_hits, cold.shared_cache_hits);
  // The warm run answered every measure evaluation from the shared cache:
  // no new source scans, no new fills.
  EXPECT_EQ(warm.measure_source_scans, cold.measure_source_scans);
  EXPECT_EQ(warm.shared_cache_insertions, cold.shared_cache_insertions);
}

TEST(EngineStatsTest, NaiveStrategySkipsSharedCache) {
  Engine db;
  db.options().measure_strategy = MeasureStrategy::kNaive;
  SeedOrders(&db);
  const std::string q =
      "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName";
  ASSERT_TRUE(db.Query(q).ok());
  ASSERT_TRUE(db.Query(q).ok());
  const EngineStats s = db.stats();
  EXPECT_EQ(s.shared_cache_insertions, 0u);
  EXPECT_EQ(s.shared_cache_hits, 0u);
  EXPECT_EQ(s.shared_cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Cache invalidation (satellite: DML/DDL must never serve stale measures)
// ---------------------------------------------------------------------------

int64_t TotalRevenue(Engine* db) {
  auto r = db->Query("SELECT AGGREGATE(r) FROM EO");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value().rows()[0][0].int_val();
}

TEST(CacheInvalidationTest, InsertInvalidatesMeasureResults) {
  Engine db;
  SeedOrders(&db);
  EXPECT_EQ(TotalRevenue(&db), 18);
  // Warm the cache, then mutate; the second read must see the new row.
  ASSERT_TRUE(db.Execute("INSERT INTO Orders VALUES ('New', 100)").ok());
  EXPECT_EQ(TotalRevenue(&db), 118);
  ASSERT_TRUE(db.InsertRows("Orders", {{Value::String("Bulk"),
                                        Value::Int(1000)}})
                  .ok());
  EXPECT_EQ(TotalRevenue(&db), 1118);
}

TEST(CacheInvalidationTest, DdlInvalidatesMeasureResults) {
  Engine db;
  SeedOrders(&db);
  EXPECT_EQ(TotalRevenue(&db), 18);
  // Replacing the view changes the measure definition under the same name.
  ASSERT_TRUE(
      db.Execute("CREATE OR REPLACE VIEW EO AS "
                 "SELECT *, SUM(revenue * 2) AS MEASURE r FROM Orders")
          .ok());
  EXPECT_EQ(TotalRevenue(&db), 36);
}

TEST(CacheInvalidationTest, MatchesUncachedEngineAfterEveryMutation) {
  Engine cached;
  Engine naive;
  naive.options().measure_strategy = MeasureStrategy::kNaive;
  SeedOrders(&cached);
  SeedOrders(&naive);
  const std::string q =
      "SELECT prodName, AGGREGATE(r), AGGREGATE(r) / (r AT (ALL)) "
      "FROM EO GROUP BY prodName ORDER BY prodName";
  for (int i = 0; i < 5; ++i) {
    auto rc = cached.Query(q);
    auto rn = naive.Query(q);
    ASSERT_TRUE(rc.ok() && rn.ok());
    EXPECT_EQ(rc.value().ToCsv(), rn.value().ToCsv()) << "round " << i;
    const std::string ins = "INSERT INTO Orders VALUES ('P" +
                            std::to_string(i) + "', " + std::to_string(i + 1) +
                            ")";
    ASSERT_TRUE(cached.Execute(ins).ok());
    ASSERT_TRUE(naive.Execute(ins).ok());
  }
}

// ---------------------------------------------------------------------------
// QueryScheduler
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ExecutesSubmittedQueries) {
  Engine db;
  SeedOrders(&db);
  SchedulerOptions opts;
  opts.num_threads = 2;
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();
  std::vector<QueryScheduler::QueryFuture> futures;
  for (int i = 0; i < 8; ++i) {
    auto f = scheduler.Submit(session,
                              "SELECT prodName, AGGREGATE(r) FROM EO "
                              "GROUP BY prodName");
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(f.take());
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().num_rows(), 3u);
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(session->inflight(), 0);
}

TEST(SchedulerTest, RejectsWhenQueueFull) {
  Engine db;
  SeedOrders(&db);
  SchedulerOptions opts;
  opts.max_pending = 0;  // admit nothing: deterministic rejection
  opts.admission.max_admission_wait_ms = 0;  // instant reject (no wait)
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();
  auto f = scheduler.Submit(session, "SELECT 1");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), ErrorCode::kResourceExhausted);
}

TEST(SchedulerTest, RejectsOverPerSessionLimit) {
  Engine db;
  SeedOrders(&db);
  SchedulerOptions opts;
  opts.max_inflight_per_session = 0;
  opts.admission.max_admission_wait_ms = 0;  // instant reject (no wait)
  QueryScheduler scheduler(opts);
  SessionPtr session = db.CreateSession();
  auto f = scheduler.Submit(session, "SELECT 1");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(scheduler.pending(), 0u);  // reservation rolled back
  EXPECT_EQ(session->inflight(), 0);
}

TEST(SchedulerTest, QueryErrorsTravelThroughFuture) {
  Engine db;
  QueryScheduler scheduler;
  SessionPtr session = db.CreateSession();
  auto f = scheduler.Submit(session, "SELECT * FROM NoSuchTable");
  ASSERT_TRUE(f.ok());
  auto r = f.take().get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCatalog);
}

}  // namespace
}  // namespace msql
