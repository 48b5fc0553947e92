// Numeric column blocks: the unit of out-of-core columnar storage.
//
// A column's values are sealed into fixed-capacity blocks (kDefaultBlockSize
// values each, the last block ragged). Every block carries a ZoneMap —
// min/max/sum over its non-null values plus null counts — so consumers that
// only need bounds (cardinality pruning's l/u, the partitioner's spread
// scans) can consult the metadata and skip the block's data entirely,
// whether the data is resident in RAM or spilled to a SegmentFile.
//
// Blocks store numeric data only (INT64 or FLOAT64 payloads, bit-exact):
// the engine's hot paths are numeric, and bit-exactness is what makes the
// spilled and in-RAM execution paths produce identical packages. NULL slots
// hold zero placeholders in the payload (like db::Column's vectors) and are
// marked in the block's word-packed null bitmap.

#ifndef PB_STORAGE_BLOCK_H_
#define PB_STORAGE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb::storage {

/// Values per block. 64K doubles = 512 KiB of payload per block, large
/// enough to amortize a read, small enough that a handful of pinned blocks
/// fit any sane cache budget. Tests override it (any multiple of 1 works;
/// zone-map consumers only assume all blocks but the last are full).
inline constexpr size_t kDefaultBlockSize = 65536;

/// Per-block metadata: the zone map. min/max/sum cover non-null values
/// only and are bit-exact accumulations in append order, so bounds derived
/// from a zone map equal bounds derived from scanning the block.
struct ZoneMap {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  int64_t null_count = 0;
  int64_t non_null_count = 0;

  /// True when min/max are meaningful (at least one non-null value).
  bool has_minmax() const { return non_null_count > 0; }
  /// True when every row of the block is NULL.
  bool all_null() const { return non_null_count == 0; }
  /// True when every non-null value equals min (single-value block).
  bool constant() const { return non_null_count > 0 && min == max; }

  /// Folds in the block's next row: a value, or a NULL.
  void Add(double v) {
    if (non_null_count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    ++non_null_count;
  }
  void AddNull() { ++null_count; }
};

/// Payload type of a block. Matches db::Column's two numeric layouts.
enum class BlockType : uint8_t {
  kInt64 = 1,
  kFloat64 = 2,
};

/// One sealed run of a numeric column: typed values, a word-packed null
/// bitmap (bit set == NULL, bit i of null_words[i/64]), and the zone map.
struct NumericBlock {
  BlockType type = BlockType::kFloat64;
  size_t count = 0;
  std::vector<int64_t> ints;      // populated when type == kInt64
  std::vector<double> doubles;    // populated when type == kFloat64
  std::vector<uint64_t> null_words;
  ZoneMap zone;

  bool IsNull(size_t i) const {
    return (null_words[i >> 6] >> (i & 63)) & 1;
  }

  /// Value at i coerced to double; meaningful only where !IsNull(i).
  double ValueAt(size_t i) const {
    return type == BlockType::kFloat64 ? doubles[i]
                                       : static_cast<double>(ints[i]);
  }

  /// In-memory footprint of the payload (what the block cache charges).
  size_t bytes() const {
    return count * sizeof(int64_t) + null_words.size() * sizeof(uint64_t);
  }
};

/// Computes the zone map of `count` values read from `value_at(i)`, with
/// nulls read from `is_null(i)`. Accumulation is in index order, one
/// ZoneMap::Add per row, so the zone equals the one db::Column keeps
/// current on append over the same slice, bit for bit.
template <typename ValueFn, typename NullFn>
ZoneMap ComputeZoneMap(size_t count, ValueFn value_at, NullFn is_null) {
  ZoneMap z;
  for (size_t i = 0; i < count; ++i) {
    if (is_null(i)) {
      z.AddNull();
    } else {
      z.Add(value_at(i));
    }
  }
  return z;
}

/// Number of 64-bit words a bitmap over `count` rows needs.
inline size_t NullWordCount(size_t count) { return (count + 63) / 64; }

}  // namespace pb::storage

#endif  // PB_STORAGE_BLOCK_H_
