// Property tests for the relational operators over randomized tables:
// operator laws (filtering, aggregation, joins) that the package engine
// silently relies on.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "db/ops.h"
#include "db/table.h"

namespace pb::db {
namespace {

Table RandomTable(Rng& rng, size_t rows) {
  Table t("rand", Schema({{"k", ValueType::kString},
                          {"v", ValueType::kDouble},
                          {"w", ValueType::kDouble}}));
  static const char* kKeys[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    Value v = rng.Bernoulli(0.1) ? Value::Null()
                                 : Value::Double(std::floor(
                                       rng.UniformReal(-50, 50)));
    t.AppendUnchecked({Value::String(kKeys[rng.Index(4)]), v,
                       Value::Double(std::floor(rng.UniformReal(0, 10)))});
  }
  return t;
}

class OpsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OpsPropertyTest, SelectPartitionsWithNegation) {
  // Rows matching P plus rows matching NOT P plus NULL-P rows = all rows.
  Rng rng(static_cast<uint64_t>(GetParam()) * 11 + 2);
  Table t = RandomTable(rng, 80);
  ExprPtr pred = Binary(BinaryOp::kLe, Col("v"), LitDouble(5));
  ExprPtr negated = Unary(UnaryOp::kNot, pred->Clone());
  ExprPtr isnull = IsNull(Col("v"));
  auto yes = FilterIndices(t, pred);
  auto no = FilterIndices(t, negated);
  auto nul = FilterIndices(t, isnull);
  ASSERT_TRUE(yes.ok());
  ASSERT_TRUE(no.ok());
  ASSERT_TRUE(nul.ok());
  EXPECT_EQ(yes->size() + no->size() + nul->size(), t.num_rows());
}

TEST_P(OpsPropertyTest, AggregateRowsAddsUpOverAPartition) {
  // SUM and COUNT over each key's rows add up to the aggregate over all.
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 4);
  Table t = RandomTable(rng, 70);
  std::map<std::string, std::vector<size_t>> by_key;
  std::vector<size_t> all;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    by_key[t.at(i, 0).AsString()].push_back(i);
    all.push_back(i);
  }
  auto aggregate = [&](AggFunc f, const ExprPtr& arg,
                       const std::vector<size_t>& rows) {
    auto v = AggregateRows(t, f, arg, rows,
                           std::vector<int64_t>(rows.size(), 1));
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() && !v->is_null() ? *v->ToDouble() : 0.0;
  };
  double group_total = 0, group_count = 0;
  for (const auto& [key, rows] : by_key) {
    group_total += aggregate(AggFunc::kSum, Col("v"), rows);
    group_count += aggregate(AggFunc::kCount, nullptr, rows);
  }
  EXPECT_NEAR(group_total, aggregate(AggFunc::kSum, Col("v"), all), 1e-9);
  EXPECT_EQ(group_count, static_cast<double>(t.num_rows()));
}

TEST_P(OpsPropertyTest, AggregateRowsIsLinearInMultiplicity) {
  // SUM over multiplicity-2 rows equals 2x SUM over multiplicity-1 rows.
  Rng rng(static_cast<uint64_t>(GetParam()) * 19 + 5);
  Table t = RandomTable(rng, 40);
  std::vector<size_t> rows;
  for (size_t i = 0; i < t.num_rows(); i += 3) rows.push_back(i);
  std::vector<int64_t> ones(rows.size(), 1), twos(rows.size(), 2);
  auto s1 = AggregateRows(t, AggFunc::kSum, Col("v"), rows, ones);
  auto s2 = AggregateRows(t, AggFunc::kSum, Col("v"), rows, twos);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  double a = s1->is_null() ? 0 : *s1->ToDouble();
  double b = s2->is_null() ? 0 : *s2->ToDouble();
  EXPECT_NEAR(b, 2 * a, 1e-9);
}

TEST_P(OpsPropertyTest, CrossJoinSizeIsProduct) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 23 + 6);
  Table a = RandomTable(rng, 1 + rng.Index(12));
  Table b = RandomTable(rng, 1 + rng.Index(12));
  auto j = CrossJoin(a, b, nullptr);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), a.num_rows() * b.num_rows());
  EXPECT_EQ(j->schema().num_columns(),
            a.schema().num_columns() + b.schema().num_columns());
}

TEST_P(OpsPropertyTest, ThetaJoinIsFilteredCrossJoin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 29 + 7);
  Table a = RandomTable(rng, 10);
  Table b = RandomTable(rng, 10);
  auto plain = CrossJoin(a, b, nullptr);
  ASSERT_TRUE(plain.ok());
  // Use actual output column names (self-join-safe suffixes).
  std::string lv = plain->schema().column(1).name;   // left v
  std::string rv = plain->schema().column(4).name;   // right v
  ExprPtr pred = Binary(BinaryOp::kLt, Col(lv), Col(rv));
  auto theta = CrossJoin(a, b, pred);
  auto filtered = FilterIndices(*plain, pred);
  ASSERT_TRUE(theta.ok());
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(theta->num_rows(), filtered->size());
  for (size_t i = 0; i < filtered->size(); ++i) {
    EXPECT_EQ(theta->row(i), plain->row((*filtered)[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace pb::db
