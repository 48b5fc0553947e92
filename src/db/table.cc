#include "db/table.h"

#include <algorithm>

#include "common/logging.h"

namespace pb::db {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    columns_.emplace_back(schema_.column(i).type);
  }
}

Tuple Table::row(size_t i) const {
  PB_DCHECK(i < num_rows_);
  Tuple out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.GetValue(i));
  return out;
}

Status Table::CheckRow(const Tuple& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema (" +
        std::to_string(schema_.num_columns()) + " columns) of table '" + name_ +
        "'");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    ValueType declared = schema_.column(i).type;
    if (declared == ValueType::kNull || row[i].is_null()) continue;
    if (row[i].type() == declared) continue;
    // INT widens into DOUBLE columns (the storage handles the conversion).
    if (declared == ValueType::kDouble && row[i].is_int()) continue;
    return Status::TypeError(
        "column '" + schema_.column(i).name + "' of table '" + name_ +
        "' expects " + ValueTypeToString(declared) + ", got " +
        ValueTypeToString(row[i].type()));
  }
  return Status::OK();
}

Status Table::Append(Tuple row) {
  PB_RETURN_IF_ERROR(CheckRow(row));
  AppendUnchecked(std::move(row));
  return Status::OK();
}

Status Table::AppendRows(std::vector<Tuple> rows) {
  if (spilled()) {
    return Status::InvalidArgument(
        "table '" + name_ +
        "' is spilled (append-frozen); unspill it before appending");
  }
  // Validate the whole batch before committing any row, so a bad row never
  // leaves the table half-grown.
  for (const Tuple& row : rows) {
    PB_RETURN_IF_ERROR(CheckRow(row));
  }
  // No Reserve(num_rows_ + rows.size()) here: reserving exactly the new
  // size defeats the columns' geometric growth, so every small append
  // would reallocate and move every column.
  for (Tuple& row : rows) AppendUnchecked(std::move(row));
  return Status::OK();
}

void Table::AppendUnchecked(Tuple row) {
  PB_DCHECK(row.size() == schema_.num_columns());
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
  ++num_rows_;
}

void Table::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

Result<NumericColumnView> Table::NumericView(size_t column) const {
  if (column >= columns_.size()) {
    return Status::OutOfRange("column index " + std::to_string(column) +
                              " out of range for table '" + name_ + "'");
  }
  if (!columns_[column].numeric_storage()) {
    return Status::TypeError(
        "column '" + schema_.column(column).name + "' of table '" + name_ +
        "' has " + ValueTypeToString(columns_[column].storage_type()) +
        " storage, not numeric");
  }
  return columns_[column].NumericView();
}

Result<NumericColumnView> Table::NumericView(const std::string& column) const {
  PB_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(column));
  return NumericView(idx);
}

// ----- Out-of-core ---------------------------------------------------------

Status Table::SpillToDisk(const std::string& path, size_t block_size,
                          storage::BlockCache* cache) {
  if (spilled()) {
    return Status::InvalidArgument("table '" + name_ + "' is already spilled");
  }
  if (cache == nullptr) cache = storage::BlockCache::Default();
  PB_ASSIGN_OR_RETURN(std::shared_ptr<storage::SegmentFile> file,
                      storage::SegmentFile::Create(path));
  for (Column& c : columns_) {
    PB_RETURN_IF_ERROR(c.Spill(file, cache, block_size));
  }
  return Status::OK();
}

bool Table::spilled() const {
  for (const Column& c : columns_) {
    if (c.spilled()) return true;
  }
  return false;
}

Status Table::Unspill() {
  for (Column& c : columns_) {
    if (c.spilled()) PB_RETURN_IF_ERROR(c.Unspill());
  }
  return Status::OK();
}

void Table::SetBlockSize(size_t block_size) {
  for (Column& c : columns_) {
    if (c.numeric_storage() && !c.spilled()) c.SetBlockSize(block_size);
  }
}

// ----- RowAppender ---------------------------------------------------------

RowAppender& RowAppender::Null() {
  PB_DCHECK(col_ < table_->columns_.size());
  table_->columns_[col_++].AppendNull();
  return *this;
}

RowAppender& RowAppender::Int(int64_t v) {
  PB_DCHECK(col_ < table_->columns_.size());
  table_->columns_[col_++].AppendInt(v);
  return *this;
}

RowAppender& RowAppender::Double(double v) {
  PB_DCHECK(col_ < table_->columns_.size());
  table_->columns_[col_++].AppendDouble(v);
  return *this;
}

RowAppender& RowAppender::Bool(bool v) {
  PB_DCHECK(col_ < table_->columns_.size());
  table_->columns_[col_++].AppendBool(v);
  return *this;
}

RowAppender& RowAppender::String(std::string v) {
  PB_DCHECK(col_ < table_->columns_.size());
  table_->columns_[col_++].AppendString(std::move(v));
  return *this;
}

RowAppender& RowAppender::Value(const class Value& v) {
  PB_DCHECK(col_ < table_->columns_.size());
  table_->columns_[col_++].AppendValue(v);
  return *this;
}

void RowAppender::Finish() {
  PB_DCHECK(col_ == table_->columns_.size())
      << "row committed with " << col_ << " of " << table_->columns_.size()
      << " cells";
  ++table_->num_rows_;
}

// ----- Rendering -----------------------------------------------------------

Result<std::string> Table::ToString(size_t max_rows) const {
  // Compute column widths over the header and shown rows.
  size_t shown = std::min(max_rows, num_rows_);
  std::vector<size_t> width(schema_.num_columns());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    width[c] = schema_.column(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      PB_ASSIGN_OR_RETURN(const Value v, columns_[c].ReadValue(r));
      cells[r][c] = v.ToString();
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out = name_ + " (" + std::to_string(num_rows_) + " rows)\n";
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    out += (c ? " | " : "") + pad(schema_.column(c).name, width[c]);
  }
  out += "\n";
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    out += (c ? "-+-" : "") + std::string(width[c], '-');
  }
  out += "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      out += (c ? " | " : "") + pad(cells[r][c], width[c]);
    }
    out += "\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace pb::db
