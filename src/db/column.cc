#include "db/column.h"

#include <algorithm>
#include <utility>

namespace pb::db {

namespace {

/// Numeric stats update shared by the typed appends.
inline void AddNumeric(ColumnStats* s, double d) {
  ++s->non_null_count;
  s->sum += d;
  if (!s->min || d < *s->min) s->min = d;
  if (!s->max || d > *s->max) s->max = d;
}

}  // namespace

// ----- Cell access -----------------------------------------------------------

Result<Value> Column::ReadValue(size_t i) const {
  PB_DCHECK(i < size());
  if (storage_ != ValueType::kNull && nulls_.Test(i)) return Value::Null();
  if (spilled()) {
    // Per-cell compat path: pin the cell's block without budget charging
    // (see header).
    PB_ASSIGN_OR_RETURN(storage::BlockHandle handle,
                        PinBlock(i / block_size_, /*charge_budget=*/false));
    const size_t k = i % block_size_;
    return storage_ == ValueType::kInt ? Value::Int(handle->ints[k])
                                       : Value::Double(handle->doubles[k]);
  }
  switch (storage_) {
    case ValueType::kInt:
      return Value::Int(ints_[i]);
    case ValueType::kDouble:
      return Value::Double(doubles_[i]);
    case ValueType::kBool:
      return Value::Bool(bools_[i] != 0);
    case ValueType::kString:
      return Value::String(strings_[i]);
    case ValueType::kNull:
      return values_[i];
  }
  return Value::Null();
}

Value Column::GetValue(size_t i) const {
  Result<Value> v = ReadValue(i);
  if (!v.ok()) {
    PB_DCHECK(false) << "spilled block read failed: " << v.status().ToString();
    return Value::Null();
  }
  return std::move(v).value();
}

// ----- Appends ---------------------------------------------------------------

void Column::AppendNull() {
  PB_DCHECK(!spilled()) << "append to a spilled (read-only) column";
  if (numeric_storage()) NextZone().AddNull();
  // The only place a null is recorded: stats_.null_count (the public stats
  // mirror) and the bitmap stay in sync by construction.
  nulls_.Append(true);
  ++stats_.null_count;
  switch (storage_) {
    case ValueType::kInt:    ints_.push_back(0); break;
    case ValueType::kDouble: doubles_.push_back(0.0); break;
    case ValueType::kBool:   bools_.push_back(0); break;
    case ValueType::kString: strings_.emplace_back(); break;
    case ValueType::kNull:   values_.emplace_back(); break;
  }
}

void Column::AppendInt(int64_t v) {
  if (storage_ == ValueType::kDouble) {  // INT widens into DOUBLE storage
    AppendDouble(static_cast<double>(v));
    return;
  }
  PB_DCHECK(storage_ == ValueType::kInt);
  PB_DCHECK(!spilled()) << "append to a spilled (read-only) column";
  NextZone().Add(static_cast<double>(v));
  nulls_.Append(false);
  ints_.push_back(v);
  AddNumeric(&stats_, static_cast<double>(v));
}

void Column::AppendDouble(double v) {
  PB_DCHECK(storage_ == ValueType::kDouble);
  PB_DCHECK(!spilled()) << "append to a spilled (read-only) column";
  NextZone().Add(v);
  nulls_.Append(false);
  doubles_.push_back(v);
  AddNumeric(&stats_, v);
}

void Column::AppendBool(bool v) {
  PB_DCHECK(storage_ == ValueType::kBool);
  nulls_.Append(false);
  bools_.push_back(v ? 1 : 0);
  ++stats_.non_null_count;
}

void Column::AppendString(std::string v) {
  PB_DCHECK(storage_ == ValueType::kString);
  nulls_.Append(false);
  strings_.push_back(std::move(v));
  ++stats_.non_null_count;
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (storage_ == ValueType::kNull) {
    // Untyped fallback: store the Value, dispatch stats on its runtime type.
    nulls_.Append(false);
    values_.push_back(v);
    if (v.is_numeric()) {
      AddNumeric(&stats_, v.is_int() ? static_cast<double>(v.AsInt())
                                     : v.AsDoubleExact());
    } else {
      ++stats_.non_null_count;
    }
    return;
  }
  switch (v.type()) {
    case ValueType::kInt:
      if (storage_ == ValueType::kInt || storage_ == ValueType::kDouble) {
        AppendInt(v.AsInt());
        return;
      }
      break;
    case ValueType::kDouble:
      if (storage_ == ValueType::kDouble) {
        AppendDouble(v.AsDoubleExact());
        return;
      }
      break;
    case ValueType::kBool:
      if (storage_ == ValueType::kBool) {
        AppendBool(v.AsBool());
        return;
      }
      break;
    case ValueType::kString:
      if (storage_ == ValueType::kString) {
        AppendString(v.AsString());
        return;
      }
      break;
    default:
      break;
  }
  PB_DCHECK(false) << "value of type " << ValueTypeToString(v.type())
                   << " does not fit " << ValueTypeToString(storage_)
                   << " column storage";
  AppendNull();
}

void Column::AppendFrom(const Column& src, size_t i) {
  PB_DCHECK(i < src.size());
  if (src.storage_ == storage_ && !src.spilled()) {
    if (src.nulls_.Test(i) && storage_ != ValueType::kNull) {
      AppendNull();
      return;
    }
    switch (storage_) {
      case ValueType::kInt:    AppendInt(src.ints_[i]); return;
      case ValueType::kDouble: AppendDouble(src.doubles_[i]); return;
      case ValueType::kBool:   AppendBool(src.bools_[i] != 0); return;
      case ValueType::kString: AppendString(src.strings_[i]); return;
      case ValueType::kNull:   AppendValue(src.values_[i]); return;
    }
  }
  // Cross-type or spilled source: the Value hop is bit-exact for both
  // numeric storages (Value::Int / AsDoubleExact round-trip raw payloads).
  AppendValue(src.GetValue(i));
}

void Column::Reserve(size_t n) {
  nulls_.Reserve(n);
  switch (storage_) {
    case ValueType::kInt:    ints_.reserve(n); break;
    case ValueType::kDouble: doubles_.reserve(n); break;
    case ValueType::kBool:   bools_.reserve(n); break;
    case ValueType::kString: strings_.reserve(n); break;
    case ValueType::kNull:   values_.reserve(n); break;
  }
}

// ----- Out-of-core -----------------------------------------------------------

Status Column::Spill(std::shared_ptr<storage::SegmentFile> file,
                     storage::BlockCache* cache, size_t block_size) {
  if (!numeric_storage()) return Status::OK();  // strings/untyped stay resident
  if (spilled()) {
    return Status::InvalidArgument("column is already spilled");
  }
  if (block_size == 0) {
    return Status::InvalidArgument("spill block size must be positive");
  }
  PB_DCHECK(cache != nullptr);

  const size_t n = size();
  // (n - 1) / block_size + 1, not (n + block_size - 1) / block_size, which
  // wraps to 0 for a block size near SIZE_MAX.
  const size_t blocks = n == 0 ? 0 : (n - 1) / block_size + 1;
  std::vector<storage::BlockLocator> locators;
  std::vector<storage::ZoneMap> zones;
  locators.reserve(blocks);
  zones.reserve(blocks);

  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * block_size;
    const size_t count = std::min(block_size, n - begin);
    storage::NumericBlock block;
    block.count = count;
    if (storage_ == ValueType::kInt) {
      block.type = storage::BlockType::kInt64;
      block.ints.assign(ints_.begin() + begin, ints_.begin() + begin + count);
    } else {
      block.type = storage::BlockType::kFloat64;
      block.doubles.assign(doubles_.begin() + begin,
                           doubles_.begin() + begin + count);
    }
    // Repack the block's slice of the global bitmap. Bit-by-bit: block
    // boundaries need not align to 64-bit words.
    block.null_words.assign(storage::NullWordCount(count), 0);
    if (nulls_.any()) {
      for (size_t k = 0; k < count; ++k) {
        if (nulls_.Test(begin + k)) {
          block.null_words[k >> 6] |= uint64_t{1} << (k & 63);
        }
      }
    }
    block.zone = storage::ComputeZoneMap(
        count, [&](size_t k) { return block.ValueAt(k); },
        [&](size_t k) { return block.IsNull(k); });
    PB_ASSIGN_OR_RETURN(storage::BlockLocator loc, file->WriteBlock(block));
    locators.push_back(loc);
    zones.push_back(block.zone);
  }

  // Commit: free the vectors and flip to the spilled representation.
  std::vector<int64_t>().swap(ints_);
  std::vector<double>().swap(doubles_);
  file_ = std::move(file);
  cache_ = cache;
  locators_ = std::move(locators);
  block_size_ = block_size;
  zones_ = std::move(zones);
  return Status::OK();
}

Status Column::Unspill() {
  if (!spilled()) return Status::OK();
  const size_t n = size();
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  if (storage_ == ValueType::kInt) {
    ints.reserve(n);
  } else {
    doubles.reserve(n);
  }
  for (size_t b = 0; b < locators_.size(); ++b) {
    // Uncounted by any StorageBudget: unspill is a state transition, not a
    // query-path gather, and must not fail on policy.
    PB_ASSIGN_OR_RETURN(storage::BlockHandle handle,
                        PinBlock(b, /*charge_budget=*/false));
    const storage::NumericBlock& blk = *handle;
    if (storage_ == ValueType::kInt) {
      if (blk.type != storage::BlockType::kInt64) {
        return Status::Internal("unspill: block " + std::to_string(b) +
                                " is not int64 storage");
      }
      ints.insert(ints.end(), blk.ints.begin(), blk.ints.end());
    } else {
      if (blk.type != storage::BlockType::kFloat64) {
        return Status::Internal("unspill: block " + std::to_string(b) +
                                " is not float64 storage");
      }
      doubles.insert(doubles.end(), blk.doubles.begin(), blk.doubles.end());
    }
  }
  const size_t restored =
      storage_ == ValueType::kInt ? ints.size() : doubles.size();
  if (restored != n) {
    return Status::Internal("unspill restored " + std::to_string(restored) +
                            " of " + std::to_string(n) + " values");
  }
  // Commit: flip back to the resident representation. The zone maps are
  // untouched: the values and block granularity are unchanged, so the
  // spill's zones stay current, and appends extend them.
  ints_ = std::move(ints);
  doubles_ = std::move(doubles);
  file_.reset();
  cache_ = nullptr;
  locators_.clear();
  return Status::OK();
}

void Column::SetBlockSize(size_t block_size) {
  PB_DCHECK(!spilled()) << "block size of a spilled column is fixed at spill";
  PB_DCHECK(block_size > 0);
  block_size_ = block_size;
  zones_.clear();
  if (!numeric_storage()) return;
  // The appends' steps, replayed in row order at the new granularity.
  const NumericColumnView view = NumericView();
  for (size_t i = 0; i < size(); ++i) {
    if (i % block_size_ == 0) zones_.emplace_back();
    if (view.IsNull(i)) {
      zones_.back().AddNull();
    } else {
      zones_.back().Add(view[i]);
    }
  }
}

Result<storage::BlockHandle> Column::PinBlock(size_t b,
                                              bool charge_budget) const {
  PB_DCHECK(spilled());
  PB_DCHECK(b < locators_.size());
  if (charge_budget) return cache_->Pin(file_, locators_[b]);
  // Compat access: pin under a detached budget so correctness paths never
  // fail on policy.
  storage::StorageBudgetScope detached{storage::StorageBudget()};
  return cache_->Pin(file_, locators_[b]);
}

// ----- NumericColumnView (spilled paths) -------------------------------------

NumericColumnView::BlockSpan NumericColumnView::block(size_t b) const {
  PB_DCHECK(col_ != nullptr && b < num_blocks());
  const size_t bs = block_size();
  const size_t offset = b * bs;
  const size_t count = std::min(bs, size_ - offset);
  if (dbl_ != nullptr || int_ != nullptr) {
    return BlockSpan{dbl_ != nullptr ? dbl_ + offset : nullptr,
                     int_ != nullptr ? int_ + offset : nullptr, offset, count};
  }
  if (!status_.ok()) return BlockSpan{};
  if (cur_block_ != b) {
    auto handle = col_->PinBlock(b, /*charge_budget=*/true);
    if (!handle.ok()) {
      status_ = handle.status();
      cur_block_ = kNoBlock;
      cur_handle_ = storage::BlockHandle();
      return BlockSpan{};
    }
    cur_handle_ = std::move(handle).value();
    cur_block_ = b;
  }
  const storage::NumericBlock& blk = *cur_handle_;
  return BlockSpan{
      blk.type == storage::BlockType::kFloat64 ? blk.doubles.data() : nullptr,
      blk.type == storage::BlockType::kInt64 ? blk.ints.data() : nullptr,
      offset, count};
}

double NumericColumnView::SpilledAt(size_t i) const {
  const BlockSpan span = block(i / block_size());
  if (!span.valid()) return 0.0;  // status() carries the error
  return span.Value(i - span.offset);
}

}  // namespace pb::db
