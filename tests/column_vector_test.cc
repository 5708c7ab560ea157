// Unit tests for the columnar batch layer: typed column vectors, validity
// bitmaps, the arena allocator and its guard-charged accounting, and the
// table image an append extends (ColumnarAppender).

#include "exec/column_vector.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/query_guard.h"
#include "catalog/table.h"
#include "common/value.h"
#include "gtest/gtest.h"

namespace msql {
namespace {

std::shared_ptr<Arena> NewArena() { return std::make_shared<Arena>(); }

void ExpectSameValue(const Value& a, const Value& b, const std::string& where) {
  EXPECT_TRUE(Value::NotDistinct(a, b))
      << where << ": " << a.ToString() << " vs " << b.ToString();
  if (!a.is_null()) {
    EXPECT_EQ(static_cast<int>(a.kind()), static_cast<int>(b.kind()))
        << where << ": kind drifted through the columnar round-trip";
  }
}

TEST(ColumnVectorTest, RoundTripAllKindsWithNulls) {
  // One column per TypeKind, NULLs sprinkled into each, duplicate strings to
  // exercise dictionary encoding, plus an all-NULL column.
  std::vector<Row> rows;
  const char* names[] = {"Acme", "Happy", "Acme", "Whizz", "Happy"};
  for (int i = 0; i < 500; ++i) {
    Row r;
    r.push_back(i % 7 == 0 ? Value::Null() : Value::Int(i - 250));
    r.push_back(i % 5 == 0 ? Value::Null() : Value::Double(i * 0.25));
    r.push_back(i % 3 == 0 ? Value::Null() : Value::Bool(i % 2 == 0));
    r.push_back(i % 11 == 0 ? Value::Null() : Value::Date(i));
    r.push_back(i % 13 == 0 ? Value::Null() : Value::String(names[i % 5]));
    r.push_back(Value::Null());
    rows.push_back(std::move(r));
  }

  auto built = ColumnarizeRows(6, rows, NewArena());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<const ColumnarRelation> rel = built.take();
  ASSERT_NE(rel, nullptr);
  ASSERT_TRUE(rel->Complete());
  EXPECT_EQ(rel->num_rows, 500);
  EXPECT_EQ(rel->cols.size(), 6u);
  EXPECT_EQ(rel->batches.size(), static_cast<size_t>(NumBatches(500)));

  // Per-column kinds and dictionary dedup.
  EXPECT_EQ(rel->cols[0]->kind, TypeKind::kInt64);
  EXPECT_EQ(rel->cols[1]->kind, TypeKind::kDouble);
  EXPECT_EQ(rel->cols[2]->kind, TypeKind::kBool);
  EXPECT_EQ(rel->cols[3]->kind, TypeKind::kDate);
  EXPECT_EQ(rel->cols[4]->kind, TypeKind::kString);
  EXPECT_EQ(rel->cols[5]->kind, TypeKind::kNull);
  ASSERT_NE(rel->cols[4]->dict, nullptr);
  EXPECT_TRUE(rel->cols[4]->dict_unique);
  EXPECT_EQ(rel->cols[4]->dict->size(), 3u);  // Acme, Happy, Whizz

  // At(i) reconstructs every original value; the all-NULL column reports
  // every row invalid.
  for (int64_t i = 0; i < 500; ++i) {
    for (size_t c = 0; c < 6; ++c) {
      ExpectSameValue(rows[i][c], rel->cols[c]->At(i),
                      "row " + std::to_string(i) + " col " + std::to_string(c));
      EXPECT_EQ(rel->cols[c]->IsValid(i), !rows[i][c].is_null());
    }
  }

  // MaterializeRowsDense is the exact inverse.
  std::vector<Row> back = MaterializeRowsDense(*rel);
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(back[i].size(), rows[i].size());
    for (size_t c = 0; c < rows[i].size(); ++c) {
      ExpectSameValue(rows[i][c], back[i][c],
                      "materialized row " + std::to_string(i));
    }
  }
}

TEST(ColumnVectorTest, BitmapEdgesAtWordAndBatchBoundaries) {
  // Sizes straddling the 64-bit bitmap words and the 1024-row batch size:
  // tail bits past `length` must never read as valid rows.
  for (int64_t n : {int64_t{1}, int64_t{63}, int64_t{64}, int64_t{65},
                    int64_t{1023}, int64_t{1024}, int64_t{1025}}) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) {
      Row r;
      r.push_back(i % 3 == 0 ? Value::Null() : Value::Int(i));
      rows.push_back(std::move(r));
    }
    auto built = ColumnarizeRows(1, rows, NewArena());
    ASSERT_TRUE(built.ok()) << "n=" << n;
    auto rel = built.take();
    ASSERT_TRUE(rel->Complete()) << "n=" << n;
    const ColumnVector& c = *rel->cols[0];
    ASSERT_EQ(c.length, n);
    ASSERT_NE(c.valid, nullptr) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(c.IsValid(i), i % 3 != 0) << "n=" << n << " i=" << i;
      ExpectSameValue(rows[i][0], c.At(i), "n=" + std::to_string(n));
    }
    // NULL payload slots stay zero-filled (full-width kernels rely on it).
    // n=1 holds only NULLs, so the column is kNull and carries no payload.
    if (c.kind != TypeKind::kNull) {
      ASSERT_NE(c.ints, nullptr) << "n=" << n;
      for (int64_t i = 0; i < n; i += 3) {
        EXPECT_EQ(c.ints[i], 0) << "n=" << n << " i=" << i;
      }
    }
    EXPECT_EQ(rel->batches.size(), static_cast<size_t>(NumBatches(n)));
    int64_t covered = 0;
    for (const RowBatch& b : rel->batches) {
      EXPECT_EQ(b.offset, covered);
      EXPECT_GT(b.length, 0);
      EXPECT_LE(b.length, kRowsPerBatch);
      covered += b.length;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ColumnVectorTest, AllValidColumnDropsTheBitmap) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back(Row{Value::Int(i)});
  auto built = ColumnarizeRows(1, rows, NewArena());
  ASSERT_TRUE(built.ok());
  auto rel = built.take();
  EXPECT_EQ(rel->cols[0]->valid, nullptr);
  for (int64_t i = 0; i < 100; ++i) EXPECT_TRUE(rel->cols[0]->IsValid(i));
}

TEST(ColumnVectorTest, MixedKindColumnStaysRowMajor) {
  std::vector<Row> rows;
  rows.push_back(Row{Value::Int(1), Value::Int(10)});
  rows.push_back(Row{Value::String("x"), Value::Int(20)});
  auto built = ColumnarizeRows(2, rows, NewArena());
  ASSERT_TRUE(built.ok());
  auto rel = built.take();
  EXPECT_EQ(rel->cols[0], nullptr);  // INT then STRING: no single kind
  ASSERT_NE(rel->cols[1], nullptr);
  EXPECT_FALSE(rel->Complete());
}

TEST(ColumnVectorTest, DictionaryDegradesToInlinePastTheCodeLimit) {
  // More distinct strings than kMaxDictCodes: the builder stops deduping and
  // appends inline. Values still round-trip; codes are no longer comparable.
  const int64_t n = ColumnBuilder::kMaxDictCodes + 100;
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value::String("s" + std::to_string(i))});
  }
  auto built = ColumnarizeRows(1, rows, NewArena());
  ASSERT_TRUE(built.ok());
  auto rel = built.take();
  const ColumnVector& c = *rel->cols[0];
  EXPECT_FALSE(c.dict_unique);
  for (int64_t i = 0; i < n; i += 997) {
    ExpectSameValue(rows[i][0], c.At(i), "degraded dict row");
  }
  ExpectSameValue(rows[n - 1][0], c.At(n - 1), "degraded dict last row");
}

TEST(ColumnVectorTest, GatherSharesTheDictionaryAndKeepsNulls) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back(
        Row{i % 4 == 0 ? Value::Null()
                       : Value::String(i % 2 == 0 ? "even" : "odd")});
  }
  auto built = ColumnarizeRows(1, rows, NewArena());
  ASSERT_TRUE(built.ok());
  auto rel = built.take();
  std::vector<int64_t> sel = {0, 3, 7, 100, 199, 3};  // dups allowed
  auto gathered = GatherColumn(*rel->cols[0], sel, NewArena());
  ASSERT_TRUE(gathered.ok());
  ColumnPtr g = gathered.take();
  ASSERT_EQ(g->length, static_cast<int64_t>(sel.size()));
  EXPECT_EQ(g->dict, rel->cols[0]->dict);  // shared, not copied
  for (size_t i = 0; i < sel.size(); ++i) {
    ExpectSameValue(rows[sel[i]][0], g->At(i), "gathered row");
  }
}

TEST(ArenaTest, ResetKeepsTheLargestBlockForReuse) {
  Arena arena;
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  void* p = arena.Allocate(1000);
  ASSERT_NE(p, nullptr);
  const uint64_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, Arena::kMinBlockBytes);

  // Fill past the first block so a second one is reserved.
  while (arena.bytes_reserved() == reserved) {
    ASSERT_NE(arena.Allocate(4096), nullptr);
  }
  EXPECT_GT(arena.bytes_reserved(), reserved);

  // Reset keeps only the largest block; refilling it reserves nothing new.
  arena.Reset();
  const uint64_t after_reset = arena.bytes_reserved();
  EXPECT_LE(after_reset, arena.bytes_reserved());
  void* q = arena.Allocate(1000);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(arena.bytes_reserved(), after_reset);
  EXPECT_TRUE(arena.status().ok());
}

TEST(ArenaTest, AlignmentAndZeroSizedRequests) {
  Arena arena;
  for (size_t align : {size_t{1}, size_t{8}, size_t{16}, size_t{64}}) {
    void* p = arena.Allocate(3, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
  }
  EXPECT_NE(arena.Allocate(0), nullptr);
}

TEST(ArenaTest, GuardChargeFailurePoisonsTheArenaMidBuild) {
  // Budget below a single arena block: the first block charge is rejected,
  // the arena is poisoned (sticky), and allocation keeps returning nullptr.
  QueryGuard guard;
  guard.Arm(/*timeout_ms=*/0, /*max_memory_bytes=*/1024,
            /*max_result_rows=*/0, nullptr, nullptr);
  Arena arena(&guard);
  EXPECT_EQ(arena.Allocate(100), nullptr);
  EXPECT_EQ(arena.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(arena.Allocate(100), nullptr);  // sticky
  EXPECT_EQ(arena.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ArenaTest, GuardChargeFailureSurfacesThroughColumnBuild) {
  // Budget admits the first block(s) but not the whole build: ColumnarizeRows
  // must abort with the guard's kResourceExhausted, not return a truncated
  // relation.
  QueryGuard guard;
  guard.Arm(/*timeout_ms=*/0, /*max_memory_bytes=*/2 * Arena::kMinBlockBytes,
            /*max_result_rows=*/0, nullptr, nullptr);
  auto arena = std::make_shared<Arena>(&guard);
  ASSERT_NE(arena->Allocate(16), nullptr);  // first block fits the budget

  std::vector<Row> rows;
  for (int64_t i = 0; i < 200000; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Double(i * 0.5)});
  }
  auto built = ColumnarizeRows(2, rows, arena);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(arena->status().code(), ErrorCode::kResourceExhausted);
}

TEST(ColumnVectorTest, BuilderReportsGuardExhaustionMidAppend) {
  QueryGuard guard;
  guard.Arm(/*timeout_ms=*/0, /*max_memory_bytes=*/Arena::kMinBlockBytes,
            /*max_result_rows=*/0, nullptr, nullptr);
  auto arena = std::make_shared<Arena>(&guard);
  // Capacity large enough that the payload array alone busts the budget.
  ColumnBuilder builder(arena, /*capacity=*/1 << 20);
  bool ok = true;
  for (int64_t i = 0; i < 10 && ok; ++i) ok = builder.Append(Value::Int(i));
  EXPECT_FALSE(ok);
  EXPECT_EQ(builder.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(builder.Finish(), nullptr);
}

// `got` must equal `want` (a ColumnarizeRows image) column by column:
// kind, length, validity bits, payload, dictionary contents, dict_unique,
// and which columns stay row-major.
void ExpectSameImage(const ColumnarRelation& got, const ColumnarRelation& want,
                     const std::string& where) {
  ASSERT_EQ(got.num_rows, want.num_rows) << where;
  ASSERT_EQ(got.cols.size(), want.cols.size()) << where;
  ASSERT_EQ(got.batches.size(), want.batches.size()) << where;
  for (size_t b = 0; b < want.batches.size(); ++b) {
    EXPECT_EQ(got.batches[b].offset, want.batches[b].offset) << where;
    EXPECT_EQ(got.batches[b].length, want.batches[b].length) << where;
  }
  for (size_t c = 0; c < want.cols.size(); ++c) {
    const std::string at = where + " column " + std::to_string(c);
    if (want.cols[c] == nullptr) {
      EXPECT_EQ(got.cols[c], nullptr) << at << ": should stay row-major";
      continue;
    }
    ASSERT_NE(got.cols[c], nullptr) << at << ": went row-major";
    const ColumnVector& g = *got.cols[c];
    const ColumnVector& w = *want.cols[c];
    ASSERT_EQ(g.kind, w.kind) << at;
    ASSERT_EQ(g.length, w.length) << at;
    EXPECT_EQ(g.valid == nullptr, w.valid == nullptr) << at;
    EXPECT_EQ(g.dict_unique, w.dict_unique) << at;
    EXPECT_EQ(g.dict == nullptr, w.dict == nullptr) << at;
    if (g.dict != nullptr && w.dict != nullptr) {
      EXPECT_EQ(*g.dict, *w.dict) << at << ": dictionary contents";
    }
    for (int64_t i = 0; i < w.length; ++i) {
      ASSERT_EQ(g.IsValid(i), w.IsValid(i)) << at << " row " << i;
      if (w.kind == TypeKind::kDouble) {
        ASSERT_EQ(std::memcmp(&g.doubles[i], &w.doubles[i], sizeof(double)),
                  0)
            << at << " row " << i;
      } else if (w.kind != TypeKind::kNull) {
        ASSERT_EQ(g.ints[i], w.ints[i]) << at << " row " << i;
      }
    }
  }
}

void ExpectImageOf(ColumnarAppender* appender, const std::vector<Row>& rows,
                   size_t n, size_t width, const std::string& where) {
  const std::span<const Row> prefix(rows.data(), n);
  auto got = appender->ImageOf(prefix);
  ASSERT_TRUE(got.ok()) << where;
  auto want = ColumnarizeRows(width, prefix, NewArena());
  ASSERT_TRUE(want.ok()) << where;
  ExpectSameImage(*got.value(), *want.value(), where);
}

// Seeded random append sequences; after each append the extended image
// must equal ColumnarizeRows over the same rows. Columns: 0 int64 whose
// first NULL arrives in an extension, 1 double with NULLs, 2 low-cardinality
// string with NULLs and new strings over time, 3 bool, 4 date, 5 all-NULL
// until an extension brings its first value, 6 int64 until an extension
// brings a string (row-major from then on).
TEST(ColumnarAppenderTest, ExtendedImageEqualsAFreshBuild) {
  constexpr size_t kWidth = 7;
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };
    ColumnarAppender appender(kWidth);
    std::vector<Row> rows;
    for (int step = 0; step < 40; ++step) {
      // Steps 0 and 7 are empty appends.
      const int batch = (step == 0 || step == 7) ? 0 : pick(150) + 1;
      for (int k = 0; k < batch; ++k) {
        const int64_t i = static_cast<int64_t>(rows.size());
        Row r(kWidth);
        r[0] = step >= 10 && pick(9) == 0 ? Value::Null() : Value::Int(i);
        r[1] = pick(5) == 0 ? Value::Null() : Value::Double(i * 0.5);
        r[2] = pick(7) == 0 ? Value::Null()
                            : Value::String("s" + std::to_string(pick(8 + step)));
        r[3] = Value::Bool(pick(2) == 0);
        r[4] = Value::Date(pick(1000));
        r[5] = step >= 15 && pick(3) == 0 ? Value::Int(pick(10)) : Value::Null();
        r[6] = step >= 25 && pick(50) == 0 ? Value::String("x")
                                           : Value::Int(pick(10));
        rows.push_back(std::move(r));
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ExpectImageOf(&appender, rows, rows.size(), kWidth, where);
      if (step % 9 == 8) {
        // An older snapshot gets a correct image of its own length and
        // leaves the cached one as it was.
        ExpectImageOf(&appender, rows, rows.size() / 2, kWidth,
                      where + " (older)");
        EXPECT_EQ(appender.num_rows(), static_cast<int64_t>(rows.size()));
      }
    }
  }
}

TEST(ColumnarAppenderTest, DictionaryCrossesTheCodeLimitInsideOneExtension) {
  const int64_t limit = static_cast<int64_t>(ColumnBuilder::kMaxDictCodes);
  std::vector<Row> rows;
  auto add = [&](int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      rows.push_back(Row{Value::String("s" + std::to_string(i)),
                         Value::String("s" + std::to_string(i % 3))});
    }
  };
  ColumnarAppender appender(2);
  add(0, limit - 10);
  ExpectImageOf(&appender, rows, rows.size(), 2, "below the limit");
  // 50 new strings: the dictionary fills and degrades mid-extension.
  add(limit - 10, limit + 40);
  ExpectImageOf(&appender, rows, rows.size(), 2, "crossing");
  add(limit + 40, limit + 60);
  ExpectImageOf(&appender, rows, rows.size(), 2, "past the limit");
  EXPECT_FALSE(appender.ImageOf(rows).value()->cols[0]->dict_unique);
}

TEST(ColumnarAppenderTest, EarlierImagesKeepTheirContents) {
  // An extension copies the validity word and the dictionary an earlier
  // image shares instead of writing them.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back(Row{i % 3 == 0 ? Value::Null() : Value::Int(i),
                       Value::String("a" + std::to_string(i % 4))});
  }
  ColumnarAppender appender(2);
  ASSERT_TRUE(appender.ImageOf(rows).ok());  // the base image
  rows.push_back(Row{Value::Int(100), Value::String("new")});
  auto first = appender.ImageOf(rows).take();  // grows the arrays
  const std::vector<Row> first_rows = rows;
  for (int64_t i = 101; i < 110; ++i) {
    rows.push_back(Row{Value::Int(i), Value::String("newer" + std::to_string(i))});
  }
  auto second = appender.ImageOf(rows).take();  // writes in place
  EXPECT_NE(first->cols[0]->valid, second->cols[0]->valid);
  EXPECT_NE(first->cols[1]->dict, second->cols[1]->dict);
  EXPECT_EQ(first->cols[0]->ints, second->cols[0]->ints);  // shared payload
  ExpectSameImage(*first, *ColumnarizeRows(2, first_rows, NewArena()).value(),
                  "first image after the second extension");
}

TEST(ColumnarAppenderTest, TableServesOlderAndNewerSnapshots) {
  Schema schema;
  schema.AddColumn(Column("x", DataType::Int64()));
  schema.AddColumn(Column("s", DataType::String()));
  Table t("t", schema);
  std::vector<Row> load;
  for (int64_t i = 0; i < 300; ++i) {
    load.push_back(Row{Value::Int(i), Value::String("v" + std::to_string(i % 5))});
  }
  ASSERT_TRUE(t.AppendRows(load).ok());
  const Table::RowsSnapshot older = t.snapshot();
  EXPECT_EQ(t.ColumnsFor(older), t.ColumnsFor(older));  // cached
  for (int64_t i = 300; i < 360; ++i) {
    ASSERT_TRUE(
        t.AppendRow(Row{i % 7 == 0 ? Value::Null() : Value::Int(i),
                        Value::String("w" + std::to_string(i % 9))})
            .ok());
  }
  const Table::RowsSnapshot newer = t.snapshot();
  ASSERT_EQ(newer.size(), 360u);
  auto want_newer = ColumnarizeRows(2, newer.rows(), NewArena()).take();
  auto want_older = ColumnarizeRows(2, older.rows(), NewArena()).take();
  ExpectSameImage(*t.ColumnsFor(newer), *want_newer, "newer snapshot");
  ExpectSameImage(*t.ColumnsFor(older), *want_older, "older snapshot");
  ExpectSameImage(*t.ColumnsFor(newer), *want_newer, "newer again");
  EXPECT_EQ(t.ColumnsFor(newer), t.ColumnsFor(newer));
}

}  // namespace
}  // namespace msql
