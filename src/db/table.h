// Table: an in-memory columnar relation with per-column statistics.
//
// Storage is column-major: one typed Column (contiguous vector + null
// bitmap, see db/column.h) per schema attribute. Numeric consumers read
// whole columns through NumericView() in one contiguous pass; row-oriented
// call sites keep working through the compatibility adapters row() and
// at(), which materialize Values on demand.
//
// The statistics (count / min / max / sum over non-null numeric cells) are
// exactly what the cardinality-based pruning of §4.1 needs: the bounds
// l = ceil(L / MAX(attr)) and u = floor(U / MIN(attr)) are computed from
// column MIN/MAX without touching the rows.

#ifndef PB_DB_TABLE_H_
#define PB_DB_TABLE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "db/column.h"
#include "db/schema.h"
#include "db/tuple.h"

namespace pb::db {

class Table;

/// Column-wise single-row appender: generators push typed values straight
/// into the column vectors, skipping Tuple/Value materialization entirely.
///
///   table.StartRow().Int(id).Double(price).String("air").Finish();
///
/// Exactly num_columns() cells must be appended before Finish(). Int()
/// widens into DOUBLE columns like Table::Append does.
class RowAppender {
 public:
  RowAppender& Null();
  RowAppender& Int(int64_t v);
  RowAppender& Double(double v);
  RowAppender& Bool(bool v);
  RowAppender& String(std::string v);
  RowAppender& Value(const class Value& v);

  /// Commits the row; arity is asserted.
  void Finish();

 private:
  friend class Table;
  explicit RowAppender(Table* table) : table_(table) {}

  Table* table_;
  size_t col_ = 0;
};

/// A named relation: schema + typed columns + stats.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  // ----- Row-view compatibility adapters -----------------------------------

  /// Materializes row `i` as a Tuple (copies every cell).
  Tuple row(size_t i) const;

  /// Value at (row, column), materialized from the column — returned by
  /// value, so chaining a reference out of it (e.g. binding AsString() to a
  /// long-lived const std::string&) is a lifetime bug. Bounds-checked in
  /// debug builds.
  Value at(size_t row, size_t column) const {
    PB_DCHECK(row < num_rows_)
        << "row " << row << " out of range (" << num_rows_ << " rows)";
    PB_DCHECK(column < columns_.size())
        << "column " << column << " out of range (" << columns_.size()
        << " columns)";
    return columns_[column].GetValue(row);
  }

  // ----- Appends -----------------------------------------------------------

  /// Appends a row after checking arity and (loose) type compatibility:
  /// NULL fits anywhere; INT fits a DOUBLE column (and is widened).
  Status Append(Tuple row);

  /// Appends a batch all-or-nothing: every row is validated (arity + type,
  /// same rules as Append) before any is committed, so a failed batch never
  /// leaves the table half-grown. Fails with InvalidArgument on a spilled
  /// (append-frozen) table — callers that must grow a spilled table go
  /// through Unspill() first. Each column's stats and zone maps are kept
  /// current by its appends (see Column::ZoneMaps).
  Status AppendRows(std::vector<Tuple> rows);

  /// Appends without checks (compatibility hot path). Arity must match;
  /// cells must fit their column's storage (NULL anywhere, INT→DOUBLE ok).
  void AppendUnchecked(Tuple row);

  /// Column-wise typed appender — the fastest way to build a table.
  RowAppender StartRow() { return RowAppender(this); }

  /// Copies row `src_row` of `src` (same schema layout) column-wise.
  void AppendRowFrom(const Table& src, size_t src_row);

  /// Reserves capacity in every column.
  void Reserve(size_t n);

  // ----- Columnar access ---------------------------------------------------

  /// Typed storage of one column; index must be valid.
  const Column& column_data(size_t column) const {
    PB_DCHECK(column < columns_.size());
    return columns_[column];
  }

  /// Contiguous span + null mask over a numeric (INT/DOUBLE) column.
  Result<NumericColumnView> NumericView(size_t column) const;
  Result<NumericColumnView> NumericView(const std::string& column) const;

  /// Column statistics; index must be valid.
  const ColumnStats& stats(size_t column) const {
    PB_DCHECK(column < columns_.size());
    return columns_[column].stats();
  }

  // ----- Out-of-core --------------------------------------------------------

  /// Spills every numeric column to a single segment file at `path`,
  /// sealing values into zone-mapped blocks of `block_size` and freeing
  /// the RAM vectors (see Column::Spill). Non-numeric columns stay
  /// resident. The table becomes append-frozen; reads fault blocks through
  /// `cache` (BlockCache::Default() when null). The segment file is
  /// deleted when the last spilled column copy goes away.
  Status SpillToDisk(const std::string& path,
                     size_t block_size = storage::kDefaultBlockSize,
                     storage::BlockCache* cache = nullptr);

  /// True when any column of this table is spilled.
  bool spilled() const;

  /// Reads every spilled column back into RAM vectors and clears the spill
  /// state, making the table appendable again. The inverse of SpillToDisk:
  /// values round-trip bit-exactly (blocks store the raw vectors). No-op
  /// on a resident table. On an IO error some columns may already be
  /// resident; the table stays readable either way.
  Status Unspill();

  /// Sets the zone-map granularity of every resident numeric column
  /// (test/bench hook; see Column::SetBlockSize).
  void SetBlockSize(size_t block_size);

  /// Renders the first `max_rows` rows as an aligned text table.
  std::string ToString(size_t max_rows = 20) const;

 private:
  friend class RowAppender;

  /// Arity + type validation shared by Append and AppendRows.
  Status CheckRow(const Tuple& row) const;

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace pb::db

#endif  // PB_DB_TABLE_H_
