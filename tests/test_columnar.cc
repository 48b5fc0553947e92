// Tests for the columnar storage path: Column / NullBitmap /
// NumericColumnView, the Table row-view compatibility adapters, stats
// equality between checked and unchecked appends, INT→DOUBLE widening,
// and CSV round-trips over NULL-heavy columns.

#include <gtest/gtest.h>

#include <sstream>

#include "datagen/lineitem.h"
#include "db/csv.h"
#include "db/expr.h"
#include "db/ops.h"
#include "db/table.h"

namespace pb::db {
namespace {

Schema MixedSchema() {
  return Schema({{"id", ValueType::kInt},
                 {"price", ValueType::kDouble},
                 {"name", ValueType::kString}});
}

Table MakeMixedTable() {
  Table t("mixed", MixedSchema());
  t.StartRow().Int(1).Double(10.5).String("a").Finish();
  t.StartRow().Null().Double(20.0).Null().Finish();
  t.StartRow().Int(3).Null().String("c").Finish();
  t.StartRow().Int(4).Double(-2.25).String("d").Finish();
  return t;
}

// ----- NullBitmap ------------------------------------------------------------

TEST(NullBitmapTest, TracksBitsAcrossWordBoundaries) {
  NullBitmap bm;
  for (int i = 0; i < 130; ++i) bm.Append(i % 3 == 0);
  ASSERT_EQ(bm.size(), 130u);
  int64_t nulls = 0;
  for (int i = 0; i < 130; ++i) {
    EXPECT_EQ(bm.Test(i), i % 3 == 0) << "bit " << i;
    if (i % 3 == 0) ++nulls;
  }
  EXPECT_EQ(bm.null_count(), nulls);
  EXPECT_TRUE(bm.any());
}

TEST(NullBitmapTest, EmptyAndAllValid) {
  NullBitmap bm;
  EXPECT_EQ(bm.size(), 0u);
  EXPECT_FALSE(bm.any());
  for (int i = 0; i < 70; ++i) bm.Append(false);
  EXPECT_FALSE(bm.any());
  EXPECT_EQ(bm.null_count(), 0);
}

// ----- Column storage --------------------------------------------------------

TEST(ColumnTest, TypedStorageAndGetValue) {
  Column c(ValueType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  c.AppendInt(2);  // widens into the double span
  ASSERT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.GetValue(0).is_double());
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_TRUE(c.GetValue(2).is_double());
  EXPECT_DOUBLE_EQ(c.GetValue(2).AsDoubleExact(), 2.0);
  // The contiguous span holds a placeholder at the null slot.
  ASSERT_EQ(c.doubles().size(), 3u);
  EXPECT_DOUBLE_EQ(c.doubles()[0], 1.5);
  EXPECT_DOUBLE_EQ(c.doubles()[2], 2.0);
}

TEST(ColumnTest, UntypedStorageKeepsHeterogeneousValues) {
  Column c(ValueType::kNull);
  c.AppendValue(Value::Int(7));
  c.AppendValue(Value::String("x"));
  c.AppendValue(Value::Null());
  EXPECT_TRUE(c.GetValue(0).is_int());
  EXPECT_TRUE(c.GetValue(1).is_string());
  EXPECT_TRUE(c.GetValue(2).is_null());
  EXPECT_EQ(c.stats().non_null_count, 2);
  EXPECT_EQ(c.stats().null_count, 1);
  // Numeric accumulators only see the numeric cell.
  EXPECT_DOUBLE_EQ(c.stats().sum, 7.0);
  EXPECT_DOUBLE_EQ(*c.stats().min, 7.0);
}

// ----- NumericColumnView -----------------------------------------------------

TEST(NumericColumnViewTest, DoubleSpanWithNullMask) {
  Table t = MakeMixedTable();
  auto view = t.NumericView("price");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 4u);
  ASSERT_NE(view->doubles(), nullptr);
  EXPECT_EQ(view->ints(), nullptr);
  EXPECT_TRUE(view->has_nulls());
  EXPECT_EQ(view->null_count(), 1);
  EXPECT_FALSE(view->IsNull(0));
  EXPECT_TRUE(view->IsNull(2));
  EXPECT_DOUBLE_EQ((*view)[0], 10.5);
  EXPECT_DOUBLE_EQ((*view)[3], -2.25);
}

TEST(NumericColumnViewTest, IntSpanCoercesThroughSubscript) {
  Table t = MakeMixedTable();
  auto view = t.NumericView("id");
  ASSERT_TRUE(view.ok());
  ASSERT_NE(view->ints(), nullptr);
  EXPECT_EQ(view->doubles(), nullptr);
  EXPECT_DOUBLE_EQ((*view)[0], 1.0);
  EXPECT_DOUBLE_EQ((*view)[3], 4.0);
  EXPECT_TRUE(view->IsNull(1));
}

TEST(NumericColumnViewTest, RejectsNonNumericColumns) {
  Table t = MakeMixedTable();
  EXPECT_FALSE(t.NumericView("name").ok());
  EXPECT_FALSE(t.NumericView(17).ok());
  EXPECT_FALSE(t.NumericView("no_such_column").ok());
}

TEST(NumericColumnViewTest, ViewMatchesAtForEveryCell) {
  Table t = MakeMixedTable();
  auto view = t.NumericView("price");
  ASSERT_TRUE(view.ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Value v = t.at(r, 1);
    EXPECT_EQ(view->IsNull(r), v.is_null());
    if (!v.is_null()) {
      EXPECT_DOUBLE_EQ((*view)[r], *v.ToDouble());
    }
  }
}

// ----- Row-view compatibility adapters ---------------------------------------

TEST(RowViewTest, MaterializedRowMatchesAt) {
  Table t = MakeMixedTable();
  Tuple r = t.row(1);
  EXPECT_TRUE(r[0].is_null());
  EXPECT_DOUBLE_EQ(r[1].AsDoubleExact(), 20.0);
  EXPECT_EQ(t.at(1, 1).Compare(r[1]), 0);
}

TEST(RowViewTest, ExprEvalOverTableMatchesTupleEval) {
  Table t = MakeMixedTable();
  ExprPtr e = Binary(BinaryOp::kGt, Col("price"), LitDouble(0.0));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto via_table = e->Eval(t, r);
    auto via_tuple = e->Eval(t.row(r));
    ASSERT_TRUE(via_table.ok());
    ASSERT_TRUE(via_tuple.ok());
    EXPECT_EQ(via_table->Compare(*via_tuple), 0);
  }
}

#ifndef NDEBUG
TEST(RowViewTest, AtIsBoundsCheckedInDebugBuilds) {
  Table t = MakeMixedTable();
  EXPECT_DEATH((void)t.at(t.num_rows(), 0), "out of range");
  EXPECT_DEATH((void)t.at(0, 99), "out of range");
}
#endif

// ----- Append semantics ------------------------------------------------------

TEST(AppendTest, IntWidensIntoDoubleColumnOnCheckedAppend) {
  Table t("w", Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(t.Append({Value::Int(3)}).ok());
  EXPECT_TRUE(t.at(0, 0).is_double());
  EXPECT_DOUBLE_EQ(t.at(0, 0).AsDoubleExact(), 3.0);
}

TEST(AppendTest, IntWidensIntoDoubleColumnOnUncheckedAppend) {
  Table t("w", Schema({{"x", ValueType::kDouble}}));
  t.AppendUnchecked({Value::Int(3)});
  EXPECT_TRUE(t.at(0, 0).is_double());
  EXPECT_DOUBLE_EQ(t.at(0, 0).AsDoubleExact(), 3.0);
  auto view = t.NumericView(size_t{0});
  ASSERT_TRUE(view.ok());
  EXPECT_DOUBLE_EQ((*view)[0], 3.0);
}

TEST(AppendTest, TypeMismatchIsRejectedByCheckedAppend) {
  Table t("w", Schema({{"x", ValueType::kInt}}));
  EXPECT_FALSE(t.Append({Value::String("nope")}).ok());
  EXPECT_FALSE(t.Append({Value::Double(1.5)}).ok());  // no narrowing
  ASSERT_TRUE(t.Append({Value::Null()}).ok());        // NULL fits anywhere
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(AppendTest, StatsEqualBetweenCheckedAndUncheckedAppends) {
  const Schema schema = MixedSchema();
  std::vector<Tuple> rows = {
      {Value::Int(1), Value::Double(10.5), Value::String("a")},
      {Value::Null(), Value::Double(20.0), Value::Null()},
      {Value::Int(3), Value::Null(), Value::String("c")},
      {Value::Int(4), Value::Int(7), Value::String("d")},  // widening cell
  };
  Table checked("checked", schema);
  Table unchecked("unchecked", schema);
  for (const Tuple& r : rows) {
    ASSERT_TRUE(checked.Append(r).ok());
    unchecked.AppendUnchecked(r);
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnStats& a = checked.stats(c);
    const ColumnStats& b = unchecked.stats(c);
    EXPECT_EQ(a.non_null_count, b.non_null_count) << "column " << c;
    EXPECT_EQ(a.null_count, b.null_count) << "column " << c;
    EXPECT_EQ(a.min.has_value(), b.min.has_value()) << "column " << c;
    if (a.min) EXPECT_DOUBLE_EQ(*a.min, *b.min) << "column " << c;
    if (a.max) EXPECT_DOUBLE_EQ(*a.max, *b.max) << "column " << c;
    EXPECT_DOUBLE_EQ(a.sum, b.sum) << "column " << c;
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(checked.at(r, c).Compare(unchecked.at(r, c)), 0);
    }
  }
}

TEST(AppendTest, RowAppenderMatchesAppendUnchecked) {
  Table a("a", MixedSchema());
  a.StartRow().Int(1).Double(2.5).String("s").Finish();
  a.StartRow().Null().Null().Null().Finish();
  Table b("b", MixedSchema());
  b.AppendUnchecked({Value::Int(1), Value::Double(2.5), Value::String("s")});
  b.AppendUnchecked({Value::Null(), Value::Null(), Value::Null()});
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row(r), b.row(r));
  }
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(a.stats(c).non_null_count, b.stats(c).non_null_count);
    EXPECT_DOUBLE_EQ(a.stats(c).sum, b.stats(c).sum);
  }
}

TEST(AppendTest, AppendRowFromCopiesColumnWise) {
  Table src = MakeMixedTable();
  Table dst("dst", src.schema());
  dst.AppendRowFrom(src, 2);
  dst.AppendRowFrom(src, 0);
  ASSERT_EQ(dst.num_rows(), 2u);
  EXPECT_EQ(dst.row(0), src.row(2));
  EXPECT_EQ(dst.row(1), src.row(0));
  EXPECT_EQ(dst.stats(1).null_count, 1);
}

TEST(AppendTest, SingleRowAppendsGrowColumnsGeometrically) {
  // The served append path adds one row per AppendRows call, under the
  // catalog writer lock. Reserving exactly the new size on each call
  // would move every column buffer on every append (64 times here).
  Table t = datagen::GenerateLineitems(2000, 5);
  auto col = t.schema().IndexOf("extendedprice");
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(t.column_data(*col).storage_type(), ValueType::kDouble);
  const double* data = t.column_data(*col).doubles().data();
  int moves = 0;
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.AppendRows({t.row(i)}).ok());
    const double* now = t.column_data(*col).doubles().data();
    if (now != data) ++moves;
    data = now;
  }
  EXPECT_LE(moves, 8);
  ASSERT_EQ(t.num_rows(), 2064u);
  EXPECT_EQ(t.row(2063), t.row(63));
}

// ----- Columnar fast paths match the generic path ----------------------------

TEST(FastPathTest, GatherNumericMatchesPerRowEval) {
  Table t = MakeMixedTable();
  std::vector<size_t> rows = {3, 0, 2, 1};
  // Bare column reference: the vectorized span gather.
  auto fast = GatherNumeric(t, Col("price"), rows);
  ASSERT_TRUE(fast.ok());
  // Arithmetic expression: the generic per-row path.
  auto generic = GatherNumeric(
      t, Binary(BinaryOp::kAdd, Col("price"), LitDouble(0.0)), rows);
  ASSERT_TRUE(generic.ok());
  ASSERT_EQ(fast->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*fast)[i].has_value(), (*generic)[i].has_value()) << i;
    if ((*fast)[i]) {
      EXPECT_DOUBLE_EQ(*(*fast)[i], *(*generic)[i]);
    }
  }
}

TEST(FastPathTest, GatherNumericRejectsOutOfRangeRows) {
  Table t = MakeMixedTable();
  // Both the span fast path and the generic expression fallback must
  // enforce the bounds contract.
  EXPECT_FALSE(GatherNumeric(t, Col("price"), {0, 99}).ok());
  EXPECT_FALSE(
      GatherNumeric(t, Binary(BinaryOp::kMul, Col("price"), LitDouble(2.0)),
                    {0, 99})
          .ok());
}

TEST(FastPathTest, AggregateRowsColumnFastPathMatchesExprPath) {
  Table t = MakeMixedTable();
  std::vector<size_t> rows = {0, 1, 2, 3};
  std::vector<int64_t> mult = {2, 1, 3, 1};
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax}) {
    auto fast = AggregateRows(t, f, Col("price"), rows, mult);
    auto generic = AggregateRows(
        t, f, Binary(BinaryOp::kMul, Col("price"), LitDouble(1.0)), rows,
        mult);
    ASSERT_TRUE(fast.ok()) << AggFuncToString(f);
    ASSERT_TRUE(generic.ok()) << AggFuncToString(f);
    EXPECT_EQ(fast->Compare(*generic), 0) << AggFuncToString(f);
  }
}

// ----- CSV round-trips over the columnar path --------------------------------

TEST(CsvColumnarTest, RoundTripPreservesNullHeavyColumns) {
  Schema schema({{"k", ValueType::kInt},
                 {"sparse", ValueType::kDouble},
                 {"label", ValueType::kString}});
  Table t("sparse", schema);
  for (int i = 0; i < 50; ++i) {
    auto r = t.StartRow();
    r.Int(i);
    if (i % 5 == 0) {
      r.Double(i * 1.5);
    } else {
      r.Null();
    }
    if (i % 7 == 0) {
      r.String("x" + std::to_string(i));
    } else {
      r.Null();
    }
    r.Finish();
  }
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, "sparse");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      EXPECT_EQ(back->at(r, c).Compare(t.at(r, c)), 0)
          << "cell (" << r << ", " << c << ")";
    }
  }
  // Stats of the reloaded table match the original's.
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    EXPECT_EQ(back->stats(c).null_count, t.stats(c).null_count);
    EXPECT_EQ(back->stats(c).non_null_count, t.stats(c).non_null_count);
    EXPECT_DOUBLE_EQ(back->stats(c).sum, t.stats(c).sum);
  }
}

TEST(CsvColumnarTest, RoundTripWidensIntsReadIntoDoubleColumns) {
  // A column whose cells are "1", "2.5": inference says DOUBLE; the int
  // cell is widened on append and lands in the contiguous double span.
  std::istringstream in("x\n1\n2.5\n");
  auto t = ReadCsv(in, "widen");
  ASSERT_TRUE(t.ok());
  auto view = t->NumericView("x");
  ASSERT_TRUE(view.ok());
  ASSERT_NE(view->doubles(), nullptr);
  EXPECT_DOUBLE_EQ((*view)[0], 1.0);
  EXPECT_DOUBLE_EQ((*view)[1], 2.5);
}

}  // namespace
}  // namespace pb::db
