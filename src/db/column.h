// Column: contiguous typed storage for one attribute of a relation.
//
// The engine's hot paths (ILP coefficient extraction, MIN/MAX pruning
// bounds, SketchRefine partitioning, column statistics) are memory-bound
// when every cell sits behind a std::variant in a row-store. A Column keeps
// the values of one attribute in a single typed vector (double / int64_t /
// bool / string) plus a word-packed null bitmap, so numeric consumers can
// run one tight pass over a contiguous span instead of dispatching per
// cell. Columns whose declared type is kNull ("untyped / any") fall back to
// per-cell Value storage.
//
// Out-of-core storage: a numeric column can be Spill()ed — its values are
// sealed into fixed-size zone-mapped blocks (storage/block.h), appended to
// a SegmentFile, and the RAM vectors freed. A spilled column is read-only;
// reads fault blocks through the BlockCache. The whole-column null bitmap
// and ColumnStats always stay resident, so IsNull / COUNT never touch
// disk. Resident numeric columns expose the same logical block structure:
// the typed appends keep one zone map per block current, as they keep the
// stats, so zone-map-consuming algorithms — and their skip counters — are
// independent of where the bytes live. A read writes nothing.

#ifndef PB_DB_COLUMN_H_
#define PB_DB_COLUMN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "db/value.h"
#include "storage/block.h"
#include "storage/block_cache.h"
#include "storage/segment_file.h"

namespace pb::db {

/// Aggregate statistics for one column, maintained incrementally on append.
struct ColumnStats {
  int64_t non_null_count = 0;
  int64_t null_count = 0;
  // Numeric-only accumulators; unset if the column has no numeric values.
  std::optional<double> min;
  std::optional<double> max;
  double sum = 0.0;

  double mean() const {
    return non_null_count > 0 ? sum / static_cast<double>(non_null_count) : 0.0;
  }
};

/// Word-packed bitmap marking NULL slots (bit set == NULL).
class NullBitmap {
 public:
  size_t size() const { return size_; }
  int64_t null_count() const { return null_count_; }
  bool any() const { return null_count_ > 0; }

  bool Test(size_t i) const {
    PB_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Append(bool is_null) {
    if ((size_ & 63) == 0) words_.push_back(0);
    if (is_null) {
      words_.back() |= uint64_t{1} << (size_ & 63);
      ++null_count_;
    }
    ++size_;
  }

  void Reserve(size_t n) { words_.reserve((n + 63) / 64); }

  /// Raw words for vectorized consumers; bit i of words()[i/64] == NULL.
  const uint64_t* words() const { return words_.data(); }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  int64_t null_count_ = 0;
};

class Column;

/// Read-only view over a numeric column, resident or spilled.
///
/// Two access styles coexist:
///  - Flat spans: doubles()/ints() return the whole column when it is
///    resident, nullptr when it is spilled. Existing single-pass consumers
///    keep their tight loops and add a block-iterating branch for the
///    spilled case.
///  - Blocks: num_blocks()/block_size() describe the logical block
///    structure of BOTH layouts without any IO (Column::ZoneMaps() has
///    each block's zone map); block(b) returns the values
///    of one block, pinning it through the BlockCache when spilled. The
///    span returned by block(b) stays valid until the next block() call on
///    this view (one pin is cached), so iterate blocks in order and finish
///    with one before asking for the next.
///
/// Error handling: IO failures and storage-budget refusals set a sticky
/// status(); after that, block(b) returns an empty span and operator[]
/// returns 0.0. Consumers check status() once after their pass. A view is
/// a per-call-site value object and is not thread-safe; create one view
/// per thread.
class NumericColumnView {
 public:
  NumericColumnView() = default;

  // Copies share the column but not the cached pin or the sticky status.
  NumericColumnView(const NumericColumnView& other) { *this = other; }
  NumericColumnView& operator=(const NumericColumnView& other) {
    if (this != &other) {
      col_ = other.col_;
      dbl_ = other.dbl_;
      int_ = other.int_;
      nulls_ = other.nulls_;
      size_ = other.size_;
      cur_block_ = kNoBlock;
      cur_handle_ = storage::BlockHandle();
      status_ = Status::OK();
    }
    return *this;
  }
  NumericColumnView(NumericColumnView&&) = default;
  NumericColumnView& operator=(NumericColumnView&&) = default;

  size_t size() const { return size_; }
  bool valid() const { return col_ != nullptr; }
  bool has_nulls() const { return nulls_ && nulls_->any(); }
  int64_t null_count() const { return nulls_ ? nulls_->null_count() : 0; }

  /// Null test by global row index; always RAM-resident, never faults.
  bool IsNull(size_t i) const { return nulls_ && nulls_->Test(i); }

  /// True when the column's values live in a segment file.
  bool spilled() const;

  /// Value at i as double; meaningful only where !IsNull(i). O(1) for
  /// resident columns; for spilled columns, faults i's block through the
  /// cached pin (sequential access stays one pin per block).
  double operator[](size_t i) const {
    PB_DCHECK(i < size_);
    if (dbl_ != nullptr) return dbl_[i];
    if (int_ != nullptr) return static_cast<double>(int_[i]);
    return SpilledAt(i);
  }

  /// Whole-column contiguous spans; nullptr when the column is spilled or
  /// is the other storage type.
  const double* doubles() const { return dbl_; }
  const int64_t* ints() const { return int_; }

  // ----- Block structure (no IO) -------------------------------------------

  size_t block_size() const;
  size_t num_blocks() const {
    return size_ == 0 ? 0 : (size_ - 1) / block_size() + 1;
  }

  // ----- Block data ---------------------------------------------------------

  /// One block's values. `offset` is the global row index of slot 0; test
  /// nulls with IsNull(offset + k) on the view (the bitmap is global).
  struct BlockSpan {
    const double* dbl = nullptr;
    const int64_t* ints = nullptr;
    size_t offset = 0;
    size_t count = 0;

    bool valid() const { return dbl != nullptr || ints != nullptr; }
    /// Slot k (block-local) as double; meaningful only for non-null slots.
    double Value(size_t k) const {
      return dbl != nullptr ? dbl[k] : static_cast<double>(ints[k]);
    }
  };

  /// The values of block b, pinning it when spilled. Valid until the next
  /// block() call on this view. Empty (valid()==false) after an error —
  /// check status().
  BlockSpan block(size_t b) const;

  /// Sticky error channel: OK until a pin fails (IO error, checksum
  /// mismatch, storage budget exhausted). Once set, stays set.
  const Status& status() const { return status_; }

 private:
  friend class Column;
  static constexpr size_t kNoBlock = static_cast<size_t>(-1);

  explicit NumericColumnView(const Column* col);

  double SpilledAt(size_t i) const;

  const Column* col_ = nullptr;
  const double* dbl_ = nullptr;   // resident double storage only
  const int64_t* int_ = nullptr;  // resident int storage only
  const NullBitmap* nulls_ = nullptr;
  size_t size_ = 0;

  mutable size_t cur_block_ = kNoBlock;  // cached spilled pin
  mutable storage::BlockHandle cur_handle_;
  mutable Status status_;
};

/// Contiguous typed storage for one column, with incremental statistics.
class Column {
 public:
  Column() : Column(ValueType::kNull) {}
  explicit Column(ValueType storage) : storage_(storage) {}

  /// The storage layout: kInt/kDouble/kBool/kString are typed vectors;
  /// kNull is the per-cell Value fallback for untyped columns.
  ValueType storage_type() const { return storage_; }
  bool numeric_storage() const {
    return storage_ == ValueType::kInt || storage_ == ValueType::kDouble;
  }

  size_t size() const { return nulls_.size(); }
  bool IsNull(size_t i) const { return nulls_.Test(i); }
  const NullBitmap& nulls() const { return nulls_; }
  const ColumnStats& stats() const { return stats_; }

  /// Materializes the cell as a Value (copies strings). For spilled
  /// columns this faults the cell's block through the cache (uncounted by
  /// any StorageBudget: per-cell compat access is correctness, the budget
  /// polices the bulk gather paths); a failed pin (an IO error, a corrupt
  /// block) is the returned error.
  Result<Value> ReadValue(size_t i) const;
  /// ReadValue for callers that cannot return an error (Table::row, at):
  /// a failed read DCHECKs, and release builds read NULL.
  Value GetValue(size_t i) const;

  // ----- Typed appends (the column-wise hot path) --------------------------
  // Each appends one slot and updates the stats and, for a numeric column,
  // the zone map of the slot's block. AppendInt widens into DOUBLE storage;
  // the other typed appends require matching storage. Appending to a
  // spilled column is a programming error (DCHECK).

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);

  /// Appends any Value. NULL fits anywhere; INT widens into DOUBLE storage.
  /// A value that does not fit the storage type is a programming error:
  /// asserted in debug builds, appended as NULL in release.
  void AppendValue(const Value& v);

  void Reserve(size_t n);

  // ----- Contiguous data access --------------------------------------------

  /// Typed spans; valid only for the matching storage type. NULL slots
  /// hold zero/empty placeholders. Empty after Spill() — check spilled()
  /// or go through NumericView().
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<Value>& values() const { return values_; }

  /// Span + null-mask + block view; requires numeric_storage().
  NumericColumnView NumericView() const {
    PB_DCHECK(numeric_storage());
    return NumericColumnView(this);
  }

  // ----- Out-of-core --------------------------------------------------------

  /// Seals this numeric column's values into zone-mapped blocks of
  /// `block_size` values, appends them to `file`, and frees the RAM
  /// vectors. The column becomes read-only (reads fault through `cache`).
  /// Non-numeric columns are left resident (Status OK, no-op): strings and
  /// untyped columns are out of scope for v1 (see the storage ADR).
  Status Spill(std::shared_ptr<storage::SegmentFile> file,
               storage::BlockCache* cache,
               size_t block_size = storage::kDefaultBlockSize);

  bool spilled() const { return file_ != nullptr; }

  /// Reads every block back into the RAM vector and clears the spill
  /// state, making the column appendable again — the inverse of Spill().
  /// Values round-trip bit-exactly (blocks store the raw vector slices,
  /// NULL placeholders included). The zone maps are kept: same values,
  /// same block granularity. No-op when resident.
  Status Unspill();

  /// Logical block granularity: the spill block size, or the zone-map
  /// granularity of a resident column (kDefaultBlockSize unless overridden).
  size_t block_size() const { return block_size_; }
  size_t num_blocks() const {
    return size() == 0 ? 0 : (size() - 1) / block_size_ + 1;
  }

  /// Overrides the zone-map granularity of a RESIDENT column (test/bench
  /// hook so small datasets exercise multi-block paths and so a resident
  /// baseline reproduces a spilled run's zone counters). Recomputes the
  /// zone maps at the new granularity.
  void SetBlockSize(size_t block_size);

  /// Zone maps for all blocks (num_blocks() entries): kept by the appends
  /// for resident numeric columns, taken from the blocks at spill. Returns
  /// nullptr for non-numeric columns. The pointer stays valid until the
  /// column is appended to or destroyed.
  const storage::ZoneMap* ZoneMaps() const {
    return numeric_storage() ? zones_.data() : nullptr;
  }

  /// The spill cache (nullptr when resident); stats live here.
  storage::BlockCache* cache() const { return cache_; }

 private:
  friend class NumericColumnView;

  /// Pins block b of a spilled column. `charge_budget` selects whether the
  /// calling thread's StorageBudget is charged (bulk view access) or not
  /// (per-cell compat access).
  Result<storage::BlockHandle> PinBlock(size_t b, bool charge_budget) const;

  /// The zone map of the block the next appended slot falls in, opening a
  /// block when the last one is full.
  storage::ZoneMap& NextZone() {
    if (size() % block_size_ == 0) zones_.emplace_back();
    return zones_.back();
  }

  ValueType storage_;
  NullBitmap nulls_;
  ColumnStats stats_;
  // Exactly one of these is populated, per storage_ (all empty once
  // spilled).
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<Value> values_;  // untyped fallback

  // Spill state; set once by Spill() and immutable afterwards.
  std::shared_ptr<storage::SegmentFile> file_;
  storage::BlockCache* cache_ = nullptr;
  std::vector<storage::BlockLocator> locators_;
  size_t block_size_ = storage::kDefaultBlockSize;

  // One zone map per block of block_size_ slots; numeric columns only.
  std::vector<storage::ZoneMap> zones_;
};

inline NumericColumnView::NumericColumnView(const Column* col)
    : col_(col), nulls_(&col->nulls()), size_(col->size()) {
  if (!col->spilled()) {
    if (col->storage_type() == ValueType::kDouble) {
      dbl_ = col->doubles().data();
    } else {
      int_ = col->ints().data();
    }
  }
}

inline bool NumericColumnView::spilled() const {
  return col_ != nullptr && col_->spilled();
}

inline size_t NumericColumnView::block_size() const {
  return col_ != nullptr ? col_->block_size() : storage::kDefaultBlockSize;
}

}  // namespace pb::db

#endif  // PB_DB_COLUMN_H_
