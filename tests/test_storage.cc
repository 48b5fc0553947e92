// Tests for the out-of-core storage subsystem: zone maps (kept by the
// appends, equal to a batch build), segment-file round trips,
// spilled-column bit-identity, block-cache eviction, storage budgets, the
// end-to-end out-of-core engine acceptance scenario (spilled lineitem
// under a cache smaller than the data solves bit-identically to the
// resident baseline, with zone-map skips observed), and the WHERE scan
// over spilled tables: a corrupt block is an error (in package validation
// too), the scan is charged to the query budget, and every route scans
// once.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/evaluator.h"
#include "core/explain.h"
#include "core/package.h"
#include "core/sketch_refine.h"
#include "core/translator.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "db/column.h"
#include "db/ops.h"
#include "db/table.h"
#include "engine/engine.h"
#include "paql/analyzer.h"
#include "storage/block.h"
#include "storage/block_cache.h"
#include "storage/segment_file.h"
#include "storage/storage_budget.h"

namespace pb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ----- Zone maps -------------------------------------------------------------

TEST(ZoneMapTest, AllNullBlock) {
  std::vector<double> vals(16, 0.0);
  storage::ZoneMap z = storage::ComputeZoneMap(
      vals.size(), [&](size_t i) { return vals[i]; },
      [](size_t) { return true; });
  EXPECT_TRUE(z.all_null());
  EXPECT_FALSE(z.has_minmax());
  EXPECT_EQ(z.null_count, 16);
  EXPECT_EQ(z.non_null_count, 0);
}

TEST(ZoneMapTest, SingleValueBlock) {
  storage::ZoneMap z = storage::ComputeZoneMap(
      8, [](size_t) { return 42.5; }, [](size_t) { return false; });
  EXPECT_TRUE(z.has_minmax());
  EXPECT_TRUE(z.constant());
  EXPECT_DOUBLE_EQ(z.min, 42.5);
  EXPECT_DOUBLE_EQ(z.max, 42.5);
  EXPECT_EQ(z.non_null_count, 8);
}

TEST(ZoneMapTest, MixedBlockAccumulatesInIndexOrder) {
  std::vector<double> vals = {3.0, -1.0, 0.0, 7.5};
  std::vector<bool> null = {false, false, true, false};
  storage::ZoneMap z = storage::ComputeZoneMap(
      vals.size(), [&](size_t i) { return vals[i]; },
      [&](size_t i) { return null[i]; });
  EXPECT_DOUBLE_EQ(z.min, -1.0);
  EXPECT_DOUBLE_EQ(z.max, 7.5);
  EXPECT_DOUBLE_EQ(z.sum, 3.0 + -1.0 + 7.5);
  EXPECT_EQ(z.null_count, 1);
  EXPECT_EQ(z.non_null_count, 3);
}

// ----- Segment file ----------------------------------------------------------

storage::NumericBlock MakeIntBlock(const std::vector<int64_t>& vals,
                                   const std::vector<bool>& nulls) {
  storage::NumericBlock b;
  b.type = storage::BlockType::kInt64;
  b.count = vals.size();
  b.ints = vals;
  b.null_words.assign(storage::NullWordCount(vals.size()), 0);
  for (size_t i = 0; i < nulls.size(); ++i) {
    if (nulls[i]) b.null_words[i >> 6] |= uint64_t{1} << (i & 63);
  }
  b.zone = storage::ComputeZoneMap(
      b.count, [&](size_t i) { return static_cast<double>(vals[i]); },
      [&](size_t i) { return nulls[i]; });
  return b;
}

TEST(SegmentFileTest, WriteReadRoundTrip) {
  auto file_or = storage::SegmentFile::Create(TempPath("seg_roundtrip.seg"));
  ASSERT_TRUE(file_or.ok()) << file_or.status().ToString();
  std::shared_ptr<storage::SegmentFile> file = *file_or;

  std::vector<int64_t> vals = {5, -3, 0, 99, 7};
  std::vector<bool> nulls = {false, false, true, false, false};
  auto loc_or = file->WriteBlock(MakeIntBlock(vals, nulls));
  ASSERT_TRUE(loc_or.ok()) << loc_or.status().ToString();

  auto block_or = file->ReadBlock(*loc_or);
  ASSERT_TRUE(block_or.ok()) << block_or.status().ToString();
  const storage::NumericBlock& b = *block_or;
  EXPECT_EQ(b.type, storage::BlockType::kInt64);
  ASSERT_EQ(b.count, vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(b.ints[i], vals[i]) << "slot " << i;
    EXPECT_EQ(b.IsNull(i), nulls[i]) << "slot " << i;
  }
  EXPECT_EQ(b.zone.null_count, 1);
  EXPECT_DOUBLE_EQ(b.zone.min, -3.0);
  EXPECT_DOUBLE_EQ(b.zone.max, 99.0);
}

TEST(SegmentFileTest, CorruptPayloadFailsChecksum) {
  const std::string path = TempPath("seg_corrupt.seg");
  auto file_or = storage::SegmentFile::Create(path);
  ASSERT_TRUE(file_or.ok());
  std::shared_ptr<storage::SegmentFile> file = *file_or;
  auto loc_or = file->WriteBlock(
      MakeIntBlock({1, 2, 3, 4}, {false, false, false, false}));
  ASSERT_TRUE(loc_or.ok());

  // Flip the first payload byte through the still-linked path (the 72-byte
  // block header precedes the payload; the checksum covers the payload).
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(loc_or->offset) + 72, SEEK_SET),
              0);
    const char x = 0x5A;
    ASSERT_EQ(std::fwrite(&x, 1, 1, f), 1u);
    std::fclose(f);
  }
  auto block_or = file->ReadBlock(*loc_or);
  EXPECT_FALSE(block_or.ok());
}

TEST(SegmentFileTest, OpenForReadValidatesHeaderAndReadsBack) {
  const std::string path = TempPath("seg_reopen.seg");
  storage::BlockLocator loc;
  {
    // Writer scope: keep the file on disk after close so a second
    // SegmentFile can reopen it (the default Create unlinks in ~).
    auto file_or = storage::SegmentFile::Create(path,
                                               /*unlink_on_close=*/false);
    ASSERT_TRUE(file_or.ok()) << file_or.status().ToString();
    auto loc_or = (*file_or)->WriteBlock(
        MakeIntBlock({11, 22, 33}, {false, true, false}));
    ASSERT_TRUE(loc_or.ok()) << loc_or.status().ToString();
    loc = *loc_or;
  }
  auto reader_or = storage::SegmentFile::OpenForRead(path);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  auto block_or = (*reader_or)->ReadBlock(loc);
  ASSERT_TRUE(block_or.ok()) << block_or.status().ToString();
  EXPECT_EQ(block_or->count, 3u);
  EXPECT_EQ(block_or->ints[0], 11);
  EXPECT_TRUE(block_or->IsNull(1));
  std::remove(path.c_str());
}

TEST(SegmentFileTest, OpenForReadRejectsForeignAndTruncatedFiles) {
  const std::string not_segment = TempPath("seg_foreign.bin");
  {
    std::FILE* f = std::fopen(not_segment.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a segment file", f);
    std::fclose(f);
  }
  EXPECT_FALSE(storage::SegmentFile::OpenForRead(not_segment).ok());
  std::remove(not_segment.c_str());

  const std::string truncated = TempPath("seg_truncated.seg");
  {
    std::FILE* f = std::fopen(truncated.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("PBSEG0", f);  // magic cut short of the 16-byte header
    std::fclose(f);
  }
  EXPECT_FALSE(storage::SegmentFile::OpenForRead(truncated).ok());
  std::remove(truncated.c_str());
}

TEST(SegmentFileTest, CorruptCountFieldFailsCleanly) {
  // A tampered `count` near 2^61 once wrapped `count * 8` past 64 bits and
  // drove resize() into std::length_error; the reader must answer with a
  // Status instead (found hardening the reader for the corrupt-input
  // fuzzer, fuzz/fuzz_segment.cc).
  const std::string path = TempPath("seg_badcount.seg");
  auto file_or = storage::SegmentFile::Create(path);
  ASSERT_TRUE(file_or.ok());
  std::shared_ptr<storage::SegmentFile> file = *file_or;
  auto loc_or = file->WriteBlock(
      MakeIntBlock({1, 2, 3, 4}, {false, false, false, false}));
  ASSERT_TRUE(loc_or.ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // `count` lives 8 bytes into the block header.
    ASSERT_EQ(std::fseek(f, static_cast<long>(loc_or->offset) + 8, SEEK_SET),
              0);
    // (1 << 61) + 4: the * 8 wraps back to the true 32 payload bytes, so a
    // naive `count * 8 + nulls * 8 == payload_bytes` check still passes.
    const uint64_t huge = (1ull << 61) + 4;
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    std::fclose(f);
  }
  auto block_or = file->ReadBlock(*loc_or);
  EXPECT_FALSE(block_or.ok());
}

// ----- Spilled columns -------------------------------------------------------

/// An INT column with NULLs placed on and around every block boundary for
/// block size 8: slots 7, 8, 9 of each 16-slot stretch.
db::Column BoundaryNullIntColumn(size_t n) {
  db::Column col(db::ValueType::kInt);
  for (size_t i = 0; i < n; ++i) {
    if (i % 16 == 7 || i % 16 == 8 || i % 16 == 9) {
      col.AppendNull();
    } else {
      col.AppendInt(static_cast<int64_t>(i) * 3 - 50);
    }
  }
  return col;
}

TEST(ColumnSpillTest, BlockBoundaryNullBitmapsSurviveSpill) {
  const size_t n = 100;  // 13 blocks of 8, last one partial
  db::Column resident = BoundaryNullIntColumn(n);
  db::Column spilled = resident;

  auto file_or = storage::SegmentFile::Create(TempPath("seg_nulls.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(/*budget_bytes=*/0);  // unbounded
  ASSERT_TRUE(spilled.Spill(*file_or, &cache, /*block_size=*/8).ok());
  ASSERT_TRUE(spilled.spilled());
  ASSERT_EQ(spilled.num_blocks(), (n + 7) / 8);

  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(spilled.IsNull(i), resident.IsNull(i)) << "slot " << i;
    EXPECT_TRUE(spilled.GetValue(i) == resident.GetValue(i)) << "slot " << i;
  }

  // The block API agrees with the per-cell one across boundaries.
  db::NumericColumnView view = spilled.NumericView();
  for (size_t b = 0; b < view.num_blocks(); ++b) {
    db::NumericColumnView::BlockSpan span = view.block(b);
    ASSERT_TRUE(span.valid()) << view.status().ToString();
    for (size_t k = 0; k < span.count; ++k) {
      const size_t i = span.offset + k;
      if (view.IsNull(i)) continue;
      EXPECT_EQ(span.Value(k),
                static_cast<double>(resident.GetValue(i).AsInt()))
          << "slot " << i;
    }
  }
  EXPECT_TRUE(view.status().ok());
}

TEST(ColumnSpillTest, DoubleRoundTripIsBitIdentical) {
  db::Column resident(db::ValueType::kDouble);
  std::vector<double> vals = {0.0,  -0.0, 1e-300, -1e300, 3.14159265358979,
                              42.0, 1.0 / 3.0, 2e17};
  for (size_t i = 0; i < 50; ++i) {
    resident.AppendDouble(vals[i % vals.size()] * (1.0 + i * 1e-9));
  }
  db::Column spilled = resident;
  auto file_or = storage::SegmentFile::Create(TempPath("seg_dbl.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(0);
  ASSERT_TRUE(spilled.Spill(*file_or, &cache, 8).ok());

  db::NumericColumnView rv = resident.NumericView();
  db::NumericColumnView sv = spilled.NumericView();
  for (size_t i = 0; i < resident.size(); ++i) {
    // Exact equality: spill is a raw binary round trip.
    EXPECT_EQ(sv[i], rv[i]) << "slot " << i;
  }
  EXPECT_TRUE(sv.status().ok());
}

TEST(ColumnSpillTest, ZoneMapsMatchResidentBaseline) {
  const size_t n = 77;
  db::Column resident = BoundaryNullIntColumn(n);
  resident.SetBlockSize(8);
  db::Column spilled = BoundaryNullIntColumn(n);
  auto file_or = storage::SegmentFile::Create(TempPath("seg_zones.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(0);
  ASSERT_TRUE(spilled.Spill(*file_or, &cache, 8).ok());

  const storage::ZoneMap* rz = resident.ZoneMaps();
  const storage::ZoneMap* sz = spilled.ZoneMaps();
  ASSERT_NE(rz, nullptr);
  ASSERT_NE(sz, nullptr);
  ASSERT_EQ(resident.num_blocks(), spilled.num_blocks());
  for (size_t b = 0; b < resident.num_blocks(); ++b) {
    EXPECT_EQ(rz[b].null_count, sz[b].null_count) << "block " << b;
    EXPECT_EQ(rz[b].non_null_count, sz[b].non_null_count) << "block " << b;
    EXPECT_EQ(rz[b].has_minmax(), sz[b].has_minmax()) << "block " << b;
    if (rz[b].has_minmax()) {
      EXPECT_EQ(rz[b].min, sz[b].min) << "block " << b;
      EXPECT_EQ(rz[b].max, sz[b].max) << "block " << b;
      EXPECT_EQ(rz[b].sum, sz[b].sum) << "block " << b;
    }
  }
}

/// Requires `col`'s zone maps to equal ComputeZoneMap over each of its
/// blocks' resident values, bit for bit.
void ExpectZonesMatchBlocks(const db::Column& col) {
  ASSERT_FALSE(col.spilled());
  const storage::ZoneMap* zones = col.ZoneMaps();
  const db::NumericColumnView view = col.NumericView();
  const size_t bs = col.block_size();
  for (size_t b = 0; b < col.num_blocks(); ++b) {
    const size_t begin = b * bs;
    const storage::ZoneMap want = storage::ComputeZoneMap(
        std::min(bs, col.size() - begin),
        [&](size_t k) { return view[begin + k]; },
        [&](size_t k) { return view.IsNull(begin + k); });
    const storage::ZoneMap& got = zones[b];
    EXPECT_EQ(got.null_count, want.null_count) << "block " << b;
    EXPECT_EQ(got.non_null_count, want.non_null_count) << "block " << b;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.min),
              std::bit_cast<uint64_t>(want.min)) << "block " << b;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.max),
              std::bit_cast<uint64_t>(want.max)) << "block " << b;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.sum),
              std::bit_cast<uint64_t>(want.sum)) << "block " << b;
  }
}

TEST(ColumnZoneMapTest, AppendsKeepZonesEqualToABatchBuild) {
  for (db::ValueType type : {db::ValueType::kInt, db::ValueType::kDouble}) {
    SCOPED_TRACE(db::ValueTypeToString(type));
    db::Column col(type);
    col.SetBlockSize(8);
    // NULLs on both sides of every block boundary; every append is checked.
    for (int64_t i = 0; i < 40; ++i) {
      if (i % 8 == 7 || i % 8 == 0) {
        col.AppendNull();
      } else if (type == db::ValueType::kInt || i % 3 == 0) {
        col.AppendValue(db::Value::Int(i * 7 % 23 - 11));  // widens in DOUBLE
      } else {
        col.AppendDouble(static_cast<double>(i) * 0.1 - 1.7);
      }
      ExpectZonesMatchBlocks(col);
    }
    // Another granularity recomputes them.
    col.SetBlockSize(5);
    ExpectZonesMatchBlocks(col);
    // A spill at a third size keeps its blocks' zones through Unspill, and
    // appends extend them across the next boundary (40 % 6 == 4).
    auto file_or = storage::SegmentFile::Create(TempPath(
        std::string("seg_zone_appends_") + db::ValueTypeToString(type) +
        ".seg"));
    ASSERT_TRUE(file_or.ok());
    storage::BlockCache cache(0);
    ASSERT_TRUE(col.Spill(*file_or, &cache, /*block_size=*/6).ok());
    ASSERT_TRUE(col.Unspill().ok());
    EXPECT_EQ(col.block_size(), 6u);
    ExpectZonesMatchBlocks(col);
    col.AppendInt(3);
    col.AppendNull();
    col.AppendInt(-4);
    EXPECT_EQ(col.num_blocks(), 8u);
    ExpectZonesMatchBlocks(col);
  }
}

TEST(ColumnSpillTest, HugeBlockSizeSpillsOneBlock) {
  // A block size near SIZE_MAX used to wrap the block count to 0: the
  // columns freed their values and the next read pinned a block that did
  // not exist. Each spills as one block and reads back every value.
  const db::Table resident = datagen::GenerateLineitems(100, 3);
  db::Table table = datagen::GenerateLineitems(100, 3);
  storage::BlockCache cache(0);
  ASSERT_TRUE(table
                  .SpillToDisk(TempPath("seg_huge_block.seg"),
                               std::numeric_limits<size_t>::max(), &cache)
                  .ok());
  ASSERT_TRUE(table.spilled());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const db::Column& col = table.column_data(c);
    if (col.spilled()) EXPECT_EQ(col.num_blocks(), 1u) << "column " << c;
    for (size_t i = 0; i < table.num_rows(); ++i) {
      EXPECT_TRUE(col.GetValue(i) == resident.column_data(c).GetValue(i))
          << "column " << c << " row " << i;
    }
  }
}

TEST(ColumnSpillTest, NonNumericColumnsStayResident) {
  db::Column col(db::ValueType::kString);
  col.AppendString("a");
  col.AppendString("b");
  auto file_or = storage::SegmentFile::Create(TempPath("seg_str.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(0);
  EXPECT_TRUE(col.Spill(*file_or, &cache).ok());
  EXPECT_FALSE(col.spilled());
  EXPECT_EQ(col.GetValue(1).AsString(), "b");
}

// ----- Block cache -----------------------------------------------------------

TEST(BlockCacheTest, OneBlockCacheEvictsDeterministically) {
  const size_t n = 32;  // 4 blocks of 8
  db::Column col(db::ValueType::kInt);
  for (size_t i = 0; i < n; ++i) col.AppendInt(static_cast<int64_t>(i));
  auto file_or = storage::SegmentFile::Create(TempPath("seg_evict.seg"));
  ASSERT_TRUE(file_or.ok());
  // Budget of one byte: every unpinned block is evicted immediately, so the
  // cache holds exactly the pinned block — the 1-block configuration.
  storage::BlockCache cache(1);
  ASSERT_TRUE(col.Spill(*file_or, &cache, 8).ok());

  std::vector<double> first_pass, second_pass;
  for (int pass = 0; pass < 2; ++pass) {
    db::NumericColumnView view = col.NumericView();
    std::vector<double>& out = pass == 0 ? first_pass : second_pass;
    for (size_t b = 0; b < view.num_blocks(); ++b) {
      db::NumericColumnView::BlockSpan span = view.block(b);
      ASSERT_TRUE(span.valid()) << view.status().ToString();
      for (size_t k = 0; k < span.count; ++k) out.push_back(span.Value(k));
    }
    ASSERT_TRUE(view.status().ok());
  }
  EXPECT_EQ(first_pass, second_pass);
  ASSERT_EQ(first_pass.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(first_pass[i], double(i));

  // Determinism of the counters themselves: every pin was a miss (the
  // previous block was evicted the moment it was unpinned), and every
  // unpin triggered exactly one eviction.
  const storage::BlockCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.evictions, 8u);
  EXPECT_EQ(s.bytes_pinned, 0);
  EXPECT_EQ(s.bytes_cached, 0);
}

TEST(BlockCacheTest, UnboundedCacheHitsOnSecondPass) {
  const size_t n = 32;
  db::Column col(db::ValueType::kInt);
  for (size_t i = 0; i < n; ++i) col.AppendInt(static_cast<int64_t>(i));
  auto file_or = storage::SegmentFile::Create(TempPath("seg_hits.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(0);
  ASSERT_TRUE(col.Spill(*file_or, &cache, 8).ok());

  for (int pass = 0; pass < 2; ++pass) {
    db::NumericColumnView view = col.NumericView();
    for (size_t b = 0; b < view.num_blocks(); ++b) {
      ASSERT_TRUE(view.block(b).valid());
    }
  }
  const storage::BlockCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.evictions, 0u);
}

// ----- Storage budget --------------------------------------------------------

TEST(StorageBudgetTest, BulkPinsRefusedPerCellReadsSurvive) {
  const size_t n = 16;
  db::Column col(db::ValueType::kInt);
  for (size_t i = 0; i < n; ++i) col.AppendInt(static_cast<int64_t>(i) + 100);
  auto file_or = storage::SegmentFile::Create(TempPath("seg_budget.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(0);
  ASSERT_TRUE(col.Spill(*file_or, &cache, 8).ok());

  storage::StorageBudget budget = storage::StorageBudget::Limited(1);
  storage::StorageBudgetScope scope(budget);

  db::NumericColumnView view = col.NumericView();
  db::NumericColumnView::BlockSpan span = view.block(0);
  EXPECT_FALSE(span.valid());
  EXPECT_EQ(view.status().code(), StatusCode::kResourceExhausted);

  // Per-cell compatibility access never charges the budget: correctness
  // does not depend on the storage policy.
  EXPECT_EQ(col.GetValue(3).AsInt(), 103);
}

TEST(StorageBudgetTest, CountOnlyBudgetTracksPeak) {
  const size_t n = 16;
  db::Column col(db::ValueType::kInt);
  for (size_t i = 0; i < n; ++i) col.AppendInt(static_cast<int64_t>(i));
  auto file_or = storage::SegmentFile::Create(TempPath("seg_peak.seg"));
  ASSERT_TRUE(file_or.ok());
  storage::BlockCache cache(0);
  ASSERT_TRUE(col.Spill(*file_or, &cache, 8).ok());

  storage::StorageBudget budget = storage::StorageBudget::Limited(0);
  {
    storage::StorageBudgetScope scope(budget);
    db::NumericColumnView view = col.NumericView();
    for (size_t b = 0; b < view.num_blocks(); ++b) {
      ASSERT_TRUE(view.block(b).valid());
    }
    ASSERT_TRUE(view.status().ok());
  }
  EXPECT_GT(budget.peak_pinned_bytes(), 0);
  EXPECT_EQ(budget.pinned_bytes(), 0);
}

// ----- Out-of-core engine acceptance -----------------------------------------

TEST(OutOfCoreEngineTest, SpilledLineitemSolvesBitIdenticallyWithZoneSkips) {
  const size_t n = 600;
  const uint64_t seed = 7;
  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 8 AND "
      "SUM(quantity) <= 200 MAXIMIZE SUM(revenue)";

  // Baseline: fully resident table, unlimited RAM.
  engine::Engine resident_engine;
  ASSERT_TRUE(resident_engine.RegisterTable(datagen::GenerateLineitems(n, seed))
                  .ok());
  engine::QueryResponse base = resident_engine.ExecuteQuery(0, paql);
  ASSERT_TRUE(base.ok()) << base.status.ToString();
  ASSERT_TRUE(base.proven_optimal);

  // Out-of-core: same data spilled at block size 64 (10 blocks per numeric
  // column) behind a cache that holds ~2 blocks — the data does not fit.
  db::Table table = datagen::GenerateLineitems(n, seed);
  storage::BlockCache small_cache(/*budget_bytes=*/2 * 64 * 8 + 64);
  ASSERT_TRUE(table
                  .SpillToDisk(TempPath("lineitem_ooc.seg"), /*block_size=*/64,
                               &small_cache)
                  .ok());
  ASSERT_TRUE(table.spilled());
  engine::Engine ooc_engine;
  ASSERT_TRUE(ooc_engine.RegisterTable(std::move(table)).ok());
  engine::QueryResponse ooc = ooc_engine.ExecuteQuery(0, paql);
  ASSERT_TRUE(ooc.ok()) << ooc.status.ToString();

  // Bit-identity: same package, same multiplicities, same objective.
  EXPECT_EQ(ooc.package.rows, base.package.rows);
  EXPECT_EQ(ooc.package.multiplicity, base.package.multiplicity);
  EXPECT_EQ(ooc.objective, base.objective);
  EXPECT_EQ(ooc.proven_optimal, base.proven_optimal);

  // The pruner bounded SUM(quantity) from zone maps: with no WHERE clause
  // the candidate list is dense/ascending, so every full block is skipped.
  EXPECT_GT(ooc.zone_map_skipped_blocks, 0);
  // The cache really was too small for the data: blocks were evicted.
  EXPECT_GT(small_cache.stats().evictions, 0u);

  // Identical zone granularity on a resident table reproduces the same
  // skip count — the counter is layout-independent.
  engine::Engine sized_engine;
  db::Table sized = datagen::GenerateLineitems(n, seed);
  sized.SetBlockSize(64);
  ASSERT_TRUE(sized_engine.RegisterTable(std::move(sized)).ok());
  engine::QueryResponse sized_resp = sized_engine.ExecuteQuery(0, paql);
  ASSERT_TRUE(sized_resp.ok());
  EXPECT_EQ(sized_resp.zone_map_skipped_blocks, ooc.zone_map_skipped_blocks);
  EXPECT_EQ(sized_resp.package.rows, base.package.rows);
}

TEST(OutOfCoreEngineTest, EngineSpillTableKeepsQueriesWorking) {
  engine::Engine engine;
  ASSERT_TRUE(engine.GenerateDataset("lineitem", 300, 11).ok());
  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 5 AND "
      "SUM(quantity) <= 120 MAXIMIZE SUM(revenue)";
  engine::QueryResponse before = engine.ExecuteQuery(0, paql);
  ASSERT_TRUE(before.ok()) << before.status.ToString();

  ASSERT_TRUE(engine.SpillTable("lineitem", "", 64).ok());
  // Spilling twice is an error (the table is already read-only on disk).
  EXPECT_FALSE(engine.SpillTable("lineitem", "", 64).ok());

  engine::QueryResponse after = engine.ExecuteQuery(0, paql);
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_EQ(after.package.rows, before.package.rows);
  EXPECT_EQ(after.objective, before.objective);

  // The engine's stats surface the process block cache.
  const engine::EngineStats s = engine.stats();
  EXPECT_GE(s.block_cache_hits + s.block_cache_misses, 0);
}

TEST(OutOfCoreEngineTest, QueryBudgetLimitsPinnedBytes) {
  engine::Engine engine;
  db::Table table = datagen::GenerateLineitems(200, 3);
  storage::BlockCache cache(0);
  ASSERT_TRUE(
      table.SpillToDisk(TempPath("lineitem_budget.seg"), 32, &cache).ok());
  ASSERT_TRUE(engine.RegisterTable(std::move(table)).ok());

  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 4 AND "
      "SUM(quantity) <= 100 MAXIMIZE SUM(revenue)";
  engine::QueryBudget tight;
  tight.max_pinned_bytes = 1;  // refuse every bulk pin
  engine::QueryResponse refused = engine.ExecuteQuery(0, paql, tight);
  // The translator's gathers need bulk pins, so a 1-byte budget must
  // surface as a structured error, never a wrong package.
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted);

  engine::QueryBudget roomy;
  roomy.max_pinned_bytes = 64 << 20;
  engine::QueryResponse solved = engine.ExecuteQuery(0, paql, roomy);
  ASSERT_TRUE(solved.ok()) << solved.status.ToString();
  EXPECT_GT(solved.storage_peak_pinned_bytes, 0);
}

// ----- The WHERE scan over spilled tables ------------------------------------

/// items(a, b): 64 rows spilled to `path` at block size 64, one block per
/// column, column a's first, with one payload byte of a's block flipped.
db::Table CorruptSpilledItems(const std::string& path,
                              storage::BlockCache* cache) {
  db::Table table("items", db::Schema({{"a", db::ValueType::kInt},
                                       {"b", db::ValueType::kInt}}));
  for (int r = 0; r < 64; ++r) {
    table.AppendUnchecked({db::Value::Int(r % 8), db::Value::Int(r)});
  }
  EXPECT_TRUE(table.SpillToDisk(path, /*block_size=*/64, cache).ok());
  // A 16-byte file header, then the block's 72-byte header.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    EXPECT_EQ(std::fseek(f, 16 + 72, SEEK_SET), 0);
    const char x = 0x5A;
    EXPECT_EQ(std::fwrite(&x, 1, 1, f), 1u);
    std::fclose(f);
  }
  return table;
}

TEST(OutOfCoreEngineTest, CorruptWhereBlockIsAnErrorNotInfeasible) {
  storage::BlockCache cache(0);
  engine::Engine engine;
  ASSERT_TRUE(engine
                  .RegisterTable(CorruptSpilledItems(
                      TempPath("where_corrupt.seg"), &cache))
                  .ok());
  // The compiled block scan, then two shapes the row-at-a-time path
  // evaluates one cell at a time.
  for (const char* where : {"I.a <= 4", "I.a + 0 <= 4", "I.a IN (1, 2, 3)"}) {
    SCOPED_TRACE(where);
    engine::QueryResponse r = engine.ExecuteQuery(
        0, std::string("SELECT PACKAGE(I) FROM items I WHERE ") + where +
               " SUCH THAT COUNT(*) = 3");
    // The unreadable block must not read as "no row matches".
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status.ToString();
  }
}

TEST(OutOfCoreEngineTest, CorruptMemberBlockIsAnErrorInValidation) {
  // Validating a package reads its members' WHERE cells; each member sits
  // in the corrupt block, so the read error is the answer, not a verdict.
  storage::BlockCache cache(0);
  db::Catalog catalog;
  catalog.RegisterOrReplace(
      CorruptSpilledItems(TempPath("member_corrupt.seg"), &cache));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(I) FROM items I WHERE I.a <= 4 SUCH THAT COUNT(*) = 3",
      catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  core::Package pkg;
  pkg.rows = {0, 1, 2};
  pkg.multiplicity = {1, 1, 1};
  Result<bool> valid = core::IsValidPackage(*aq, pkg);
  EXPECT_FALSE(valid.ok());
  EXPECT_EQ(valid.status().code(), StatusCode::kInternal)
      << valid.status().ToString();
}

TEST(OutOfCoreEngineTest, CorruptBlockIsAnErrorInCsvExportAndPreview) {
  // Both copy cells out of the table; an unreadable block must not come
  // out as empty cells.
  storage::BlockCache cache(0);
  engine::Engine engine;
  ASSERT_TRUE(engine
                  .RegisterTable(CorruptSpilledItems(
                      TempPath("export_corrupt.seg"), &cache))
                  .ok());
  core::Package pkg;
  pkg.rows = {0, 1, 2};
  pkg.multiplicity = {1, 1, 1};
  const std::string csv = TempPath("export_corrupt.csv");
  Status written = engine.WritePackageCsv("items", pkg, csv);
  EXPECT_EQ(written.code(), StatusCode::kInternal) << written.ToString();
  std::remove(csv.c_str());
  Result<std::string> preview = engine.RenderTable("items", 5);
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kInternal)
      << preview.status().ToString();
}

TEST(OutOfCoreEngineTest, WhereScanIsChargedToTheQueryBudget) {
  engine::Engine engine;
  db::Table table = datagen::GenerateLineitems(200, 3);
  storage::BlockCache cache(0);
  ASSERT_TRUE(
      table.SpillToDisk(TempPath("lineitem_where_budget.seg"), 32, &cache)
          .ok());
  ASSERT_TRUE(engine.RegisterTable(std::move(table)).ok());
  // Only the WHERE clause reads a column: COUNT(*) needs no weights.
  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L WHERE L.discount <= 0.05 "
      "SUCH THAT COUNT(*) = 3";

  engine::QueryBudget tight;
  tight.max_pinned_bytes = 1;  // below one block
  engine::QueryResponse refused = engine.ExecuteQuery(0, paql, tight);
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted)
      << refused.status.ToString();
  EXPECT_TRUE(refused.package.rows.empty());

  engine::QueryBudget roomy;
  roomy.max_pinned_bytes = 64 << 20;
  engine::QueryResponse solved = engine.ExecuteQuery(0, paql, roomy);
  ASSERT_TRUE(solved.ok()) << solved.status.ToString();
  EXPECT_GT(solved.storage_peak_pinned_bytes, 0);
}

/// Block pins `fn` takes through `cache` (hits + misses).
template <typename Fn>
uint64_t PinsOf(const storage::BlockCache& cache, Fn&& fn) {
  const storage::BlockCacheStats before = cache.stats();
  fn();
  const storage::BlockCacheStats after = cache.stats();
  return (after.hits + after.misses) - (before.hits + before.misses);
}

TEST(OutOfCoreEngineTest, EveryRouteScansTheWhereClauseOnce) {
  // Nothing but the WHERE clause reads a column (COUNT(*) weighs 1), so a
  // route that filters once pins exactly what one FilterIndices pins.
  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L WHERE L.discount <= 0.05 AND "
      "L.quantity >= 10 SUCH THAT COUNT(*) <= 3 MAXIMIZE COUNT(*)";
  storage::BlockCache cache(0);
  db::Catalog catalog;
  {
    db::Table table = datagen::GenerateLineitems(300, 5);
    ASSERT_TRUE(
        table.SpillToDisk(TempPath("lineitem_once.seg"), 32, &cache).ok());
    catalog.RegisterOrReplace(std::move(table));
  }
  auto aq = paql::ParseAndAnalyze(paql, catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  const uint64_t scan = PinsOf(cache, [&] {
    ASSERT_TRUE(db::FilterIndices(*aq->table, aq->query.where).ok());
  });
  ASSERT_GT(scan, 0u);

  EXPECT_EQ(PinsOf(cache,
                   [&] {
                     core::QueryEvaluator evaluator(&catalog);
                     auto r = evaluator.Evaluate(*aq);
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     EXPECT_EQ(r->strategy_used, core::Strategy::kIlpSolver);
                   }),
            scan);
  // The search routes run on the candidates the evaluator filtered.
  for (core::Strategy forced :
       {core::Strategy::kBruteForce, core::Strategy::kLocalSearch}) {
    SCOPED_TRACE(core::StrategyToString(forced));
    core::EvaluationOptions opts;
    opts.strategy = forced;
    EXPECT_EQ(PinsOf(cache,
                     [&] {
                       core::QueryEvaluator evaluator(&catalog);
                       auto r = evaluator.Evaluate(*aq, opts);
                       ASSERT_TRUE(r.ok()) << r.status().ToString();
                       EXPECT_EQ(r->strategy_used, forced);
                     }),
              scan);
  }
  EXPECT_EQ(PinsOf(cache, [&] { ASSERT_TRUE(core::ExplainQuery(*aq).ok()); }),
            scan);
  EXPECT_EQ(PinsOf(cache,
                   [&] {
                     core::EnumerateOptions opts;
                     opts.max_packages = 2;
                     ASSERT_TRUE(core::EnumerateViaSolver(*aq, opts).ok());
                   }),
            scan);

  // The engine's ILP route (spilled tables never take the maintained one).
  engine::Engine engine;
  {
    db::Table table = datagen::GenerateLineitems(300, 5);
    ASSERT_TRUE(
        table.SpillToDisk(TempPath("lineitem_once_engine.seg"), 32, &cache)
            .ok());
    ASSERT_TRUE(engine.RegisterTable(std::move(table)).ok());
  }
  EXPECT_EQ(PinsOf(cache,
                   [&] {
                     engine::QueryResponse r = engine.ExecuteQuery(0, paql);
                     ASSERT_TRUE(r.ok()) << r.status.ToString();
                     EXPECT_EQ(r.strategy, core::Strategy::kIlpSolver);
                   }),
            scan);
}

TEST(OutOfCoreEngineTest, PreparedInputsSkipTheScanAndWeighOnce) {
  // TranslateToIlp over prepared inputs saves exactly the scan, builds the
  // same model, and weighs the candidates once: a second translation over
  // the same inputs reads nothing.
  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L WHERE L.discount <= 0.05 "
      "SUCH THAT COUNT(*) = 4 AND SUM(quantity) <= 100 MAXIMIZE SUM(revenue)";
  storage::BlockCache cache(0);
  db::Catalog catalog;
  {
    db::Table table = datagen::GenerateLineitems(300, 9);
    ASSERT_TRUE(
        table.SpillToDisk(TempPath("lineitem_borrow.seg"), 32, &cache).ok());
    catalog.RegisterOrReplace(std::move(table));
  }
  auto aq = paql::ParseAndAnalyze(paql, catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  const uint64_t scan = PinsOf(cache, [&] {
    ASSERT_TRUE(db::FilterIndices(*aq->table, aq->query.where).ok());
  });
  core::QueryInputs inputs;
  auto bounds = core::PrepareQuery(*aq, &inputs);
  ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
  ASSERT_FALSE(inputs.weighed) << "zone maps did not bound the constraints";

  Result<core::IlpTranslation> own = Status::Internal("not run");
  Result<core::IlpTranslation> given = Status::Internal("not run");
  core::TranslateOptions topts;
  topts.bounds = &*bounds;
  const uint64_t own_pins =
      PinsOf(cache, [&] { own = core::TranslateToIlp(*aq, topts); });
  const uint64_t given_pins = PinsOf(
      cache, [&] { given = core::TranslateToIlp(*aq, &inputs, *bounds); });
  ASSERT_TRUE(own.ok() && given.ok());
  EXPECT_EQ(given_pins + scan, own_pins);
  EXPECT_EQ(given->candidates, own->candidates);
  EXPECT_EQ(given->model.StructuralSignature(),
            own->model.StructuralSignature());
  EXPECT_EQ(PinsOf(cache,
                   [&] {
                     ASSERT_TRUE(
                         core::TranslateToIlp(*aq, &inputs, *bounds).ok());
                   }),
            0u);
}

TEST(OutOfCoreEngineTest, SecondStatefulCallPinsOnlyTheAppendedRowsBlocks) {
  // A stateful SketchRefine filters and weighs only the rows appended
  // since its last call. A spilled table is append-frozen, so the grown
  // table is spilled afresh: its first 300 rows are the old table's, and
  // the 40 appended ones sit in blocks 9 and 10 (32 rows a block). Apart
  // from validating its answer, the second call pins exactly what
  // filtering and weighing those rows pins, and answers as a full
  // recompute over the same partition does.
  const std::string paql =
      "SELECT PACKAGE(L) FROM lineitem L WHERE L.discount <= 0.05 "
      "SUCH THAT COUNT(*) = 4 AND SUM(quantity) <= 100 MAXIMIZE SUM(revenue)";
  storage::BlockCache cache(0);
  db::Catalog catalog;
  db::Table grown = datagen::GenerateLineitems(300, 9);
  {
    db::Table table = datagen::GenerateLineitems(300, 9);
    ASSERT_TRUE(
        table.SpillToDisk(TempPath("lineitem_state.seg"), 32, &cache).ok());
    catalog.RegisterOrReplace(std::move(table));
    const db::Table extra = datagen::GenerateLineitems(40, 11);
    std::vector<db::Tuple> rows;
    for (size_t i = 0; i < extra.num_rows(); ++i) rows.push_back(extra.row(i));
    ASSERT_TRUE(grown.AppendRows(std::move(rows)).ok());
  }
  auto aq = paql::ParseAndAnalyze(paql, catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  core::SketchRefineState state;
  core::SketchRefineOptions sro;
  sro.partition_size = 16;
  sro.state = &state;
  Result<core::SketchRefineResult> first = Status::Internal("not run");
  const uint64_t first_pins =
      PinsOf(cache, [&] { first = core::SketchRefine(*aq, sro); });
  ASSERT_TRUE(first.ok() && first->found) << first.status().ToString();
  ASSERT_EQ(state.inputs.rows_scanned, 300u);

  ASSERT_TRUE(
      grown.SpillToDisk(TempPath("lineitem_state_grown.seg"), 32, &cache).ok());
  catalog.RegisterOrReplace(std::move(grown));
  aq = paql::ParseAndAnalyze(paql, catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  // rows_scanned == 0 makes the copy filter and weigh the whole table
  // again over the same partition: the full recompute.
  core::SketchRefineState recompute = state;
  recompute.inputs.rows_scanned = 0;

  Result<core::SketchRefineResult> second = Status::Internal("not run");
  const uint64_t second_pins =
      PinsOf(cache, [&] { second = core::SketchRefine(*aq, sro); });
  ASSERT_TRUE(second.ok() && second->found) << second.status().ToString();
  ASSERT_EQ(second->repair_passes, 0) << "one validation is subtracted below";
  EXPECT_TRUE(second->state_reused);
  EXPECT_EQ(state.inputs.rows_scanned, 340u);

  // What the appended rows alone cost to filter and weigh, and what
  // validating the answer costs.
  std::vector<size_t> appended;
  const uint64_t delta_pins = PinsOf(cache, [&] {
    auto rows = db::FilterIndices(*aq->table, aq->query.where, 300);
    ASSERT_TRUE(rows.ok());
    appended = *rows;
    for (const paql::AggCall& agg : aq->aggs) {
      ASSERT_TRUE(core::ComputeAggWeights(agg, *aq->table, appended).ok());
    }
  });
  ASSERT_FALSE(appended.empty());
  const uint64_t validation_pins = PinsOf(cache, [&] {
    ASSERT_TRUE(core::IsValidPackage(*aq, second->package).ok());
    ASSERT_TRUE(core::PackageObjective(*aq, second->package).ok());
  });
  EXPECT_EQ(second_pins, delta_pins + validation_pins);
  EXPECT_LT(second_pins, first_pins);

  core::SketchRefineOptions full = sro;
  full.state = &recompute;
  auto recomputed = core::SketchRefine(*aq, full);
  ASSERT_TRUE(recomputed.ok() && recomputed->found)
      << recomputed.status().ToString();
  EXPECT_EQ(second->package, recomputed->package);
  EXPECT_EQ(second->objective, recomputed->objective);
  EXPECT_EQ(second->lp_iterations, recomputed->lp_iterations);
  EXPECT_EQ(state.inputs.candidates, recompute.inputs.candidates);
  EXPECT_EQ(state.inputs.weights, recompute.inputs.weights);
}

}  // namespace
}  // namespace pb
