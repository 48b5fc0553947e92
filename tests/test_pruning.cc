// Unit tests for cardinality-based pruning (§4.1), including the paper's
// exact example formulas l = ceil(L / MAX(attr)), u = floor(U / MIN(attr))
// and the generalizations to negative weights and infeasibility proofs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pruning.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

/// A calories table with known MIN = 200, MAX = 500.
db::Table MakeTable() {
  db::Table t("meals", db::Schema({{"id", db::ValueType::kInt},
                                   {"calories", db::ValueType::kDouble},
                                   {"delta", db::ValueType::kDouble}}));
  double cal[] = {200, 250, 300, 400, 500};
  double delta[] = {-5, -2, 0, 3, 8};  // mixed-sign weights
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(t.Append({db::Value::Int(i), db::Value::Double(cal[i]),
                          db::Value::Double(delta[i])})
                    .ok());
  }
  return t;
}

class PruningTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_.RegisterOrReplace(MakeTable()); }

  CardinalityBounds Derive(const std::string& such_that) {
    auto aq = paql::ParseAndAnalyze(
        "SELECT PACKAGE(M) FROM meals M SUCH THAT " + such_that, catalog_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    std::vector<size_t> all = {0, 1, 2, 3, 4};
    auto b = DeriveCardinalityBounds(*aq, all);
    EXPECT_TRUE(b.ok()) << b.status().ToString();
    return *b;
  }

  db::Catalog catalog_;
};

TEST_F(PruningTest, CountConstraintGivesTrivialBounds) {
  // The paper: for a <= COUNT(*) <= b the bounds are l = a, u = b.
  CardinalityBounds b = Derive("COUNT(*) BETWEEN 2 AND 4");
  EXPECT_EQ(b.lo, 2);
  EXPECT_EQ(b.hi, 4);
  EXPECT_FALSE(b.infeasible);
}

TEST_F(PruningTest, PaperSumFormula) {
  // 2000 <= SUM(calories) <= 2500 with MIN = 200, MAX = 500:
  //   l = ceil(2000/500) = 4, u = floor(2500/200) = 12 (clamped to n = 5).
  CardinalityBounds b = Derive("SUM(calories) BETWEEN 2000 AND 2500");
  EXPECT_EQ(b.lo, 4);
  EXPECT_EQ(b.hi, 5);  // 12 clamped to the 5 candidates
  EXPECT_FALSE(b.infeasible);
}

TEST_F(PruningTest, SumFormulaUnclamped) {
  // 600 <= SUM <= 800: l = ceil(600/500) = 2, u = floor(800/200) = 4.
  CardinalityBounds b = Derive("SUM(calories) BETWEEN 600 AND 800");
  EXPECT_EQ(b.lo, 2);
  EXPECT_EQ(b.hi, 4);
}

TEST_F(PruningTest, InfeasibilityProvedWhenBoundsCross) {
  // SUM >= 10000 needs ceil(10000/500) = 20 tuples, but COUNT <= 3.
  CardinalityBounds b =
      Derive("SUM(calories) >= 10000 AND COUNT(*) <= 3");
  EXPECT_TRUE(b.infeasible);
}

TEST_F(PruningTest, PositiveLowerBoundUnreachableWithNonPositiveWeights) {
  // All-zero weights cannot reach a positive sum: SUM(0 * calories)...
  // use the `delta` column trick: SUM(delta) >= 100 with max weight 8 needs
  // ceil(100/8) = 13 tuples > 5 available... that is a crossing, but with
  // only negative weights it is outright infeasible:
  db::Table neg("neg", db::Schema({{"w", db::ValueType::kDouble}}));
  ASSERT_TRUE(neg.Append({db::Value::Double(-2)}).ok());
  ASSERT_TRUE(neg.Append({db::Value::Double(-1)}).ok());
  db::Catalog c;
  c.RegisterOrReplace(std::move(neg));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(N) FROM neg N SUCH THAT SUM(w) >= 5", c);
  ASSERT_TRUE(aq.ok());
  auto b = DeriveCardinalityBounds(*aq, {0, 1});
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->infeasible);
}

TEST_F(PruningTest, NegativeWeightsGiveUpperBoundFromLo) {
  // SUM(w) >= -3 with w in {-2,-1}: at most floor(-3 / -2) = 1... careful:
  // c*wmax >= lo -> c*(-1) >= -3 -> c <= 3. So hi = min(2, 3) = 2, lo = 0.
  db::Table neg("neg", db::Schema({{"w", db::ValueType::kDouble}}));
  ASSERT_TRUE(neg.Append({db::Value::Double(-2)}).ok());
  ASSERT_TRUE(neg.Append({db::Value::Double(-1)}).ok());
  db::Catalog c;
  c.RegisterOrReplace(std::move(neg));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(N) FROM neg N SUCH THAT SUM(w) >= -3", c);
  ASSERT_TRUE(aq.ok());
  auto b = DeriveCardinalityBounds(*aq, {0, 1});
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->infeasible);
  EXPECT_EQ(b->lo, 0);
  EXPECT_EQ(b->hi, 2);  // n clamp; the -3/-1 bound would allow 3
}

// Quotients such as 1e308 / w overflow int64_t; they must saturate at the
// occurrence count instead of wrapping to a negative bound that "proves"
// a satisfiable query infeasible.
TEST_F(PruningTest, HugeFiniteUpperBoundIsNoBound) {
  CardinalityBounds b = Derive("SUM(calories) <= 1e308");
  EXPECT_FALSE(b.infeasible);
  EXPECT_EQ(b.lo, 0);
  EXPECT_EQ(b.hi, 5);
}

TEST_F(PruningTest, UpperBoundPastInt64IsNoBound) {
  // 1e19 / 0.5 = 2e19 > INT64_MAX.
  db::Table small("small", db::Schema({{"w", db::ValueType::kDouble}}));
  ASSERT_TRUE(small.Append({db::Value::Double(0.5)}).ok());
  ASSERT_TRUE(small.Append({db::Value::Double(2)}).ok());
  db::Catalog c;
  c.RegisterOrReplace(std::move(small));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(S) FROM small S SUCH THAT SUM(w) <= 1e19", c);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  auto b = DeriveCardinalityBounds(*aq, {0, 1});
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->infeasible);
  EXPECT_EQ(b->lo, 0);
  EXPECT_EQ(b->hi, 2);
}

TEST_F(PruningTest, HugeNegativeBoundsWithNegativeWeights) {
  db::Table neg("neg", db::Schema({{"w", db::ValueType::kDouble}}));
  ASSERT_TRUE(neg.Append({db::Value::Double(-2)}).ok());
  ASSERT_TRUE(neg.Append({db::Value::Double(-1)}).ok());
  db::Catalog c;
  c.RegisterOrReplace(std::move(neg));
  // c * (-1) >= -1e308 allows 1e308 occurrences: no bound.
  auto loose = paql::ParseAndAnalyze(
      "SELECT PACKAGE(N) FROM neg N SUCH THAT SUM(w) >= -1e308", c);
  ASSERT_TRUE(loose.ok()) << loose.status().ToString();
  auto b = DeriveCardinalityBounds(*loose, {0, 1});
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->infeasible);
  EXPECT_EQ(b->lo, 0);
  EXPECT_EQ(b->hi, 2);
  // c * (-2) <= -1e308 needs 5e307 occurrences: still infeasible.
  auto unreachable = paql::ParseAndAnalyze(
      "SELECT PACKAGE(N) FROM neg N SUCH THAT SUM(w) <= -1e308", c);
  ASSERT_TRUE(unreachable.ok()) << unreachable.status().ToString();
  auto u = DeriveCardinalityBounds(*unreachable, {0, 1});
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->infeasible);
}

TEST_F(PruningTest, HugeFiniteLowerBoundStaysInfeasible) {
  // ceil(1e308 / 500) occurrences exceed the 5 available.
  EXPECT_TRUE(Derive("SUM(calories) >= 1e308").infeasible);
}

TEST_F(PruningTest, MixedSignWeightsGiveNoBounds) {
  // delta spans [-5, 8]: a bounded SUM(delta) window prunes nothing.
  CardinalityBounds b = Derive("SUM(delta) BETWEEN -100 AND 100");
  EXPECT_EQ(b.lo, 0);
  EXPECT_EQ(b.hi, 5);
  EXPECT_FALSE(b.infeasible);
}

TEST_F(PruningTest, MultipleConstraintsIntersect) {
  CardinalityBounds b = Derive(
      "SUM(calories) >= 900 AND COUNT(*) <= 4 AND COUNT(*) >= 1");
  // SUM >= 900 -> l = ceil(900/500) = 2; intersect with COUNT in [1,4].
  EXPECT_EQ(b.lo, 2);
  EXPECT_EQ(b.hi, 4);
}

TEST_F(PruningTest, SearchSpaceAccounting) {
  CardinalityBounds b = Derive("COUNT(*) = 2");
  // Unpruned: 2^5 = 32 -> log2 = 5. Pruned: C(5,2) = 10.
  EXPECT_NEAR(b.log2_unpruned, 5.0, 1e-9);
  EXPECT_NEAR(b.log2_pruned, std::log2(10.0), 1e-9);
}

TEST_F(PruningTest, RepeatScalesOccurrenceBounds) {
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(M) FROM meals M REPEAT 3 "
      "SUCH THAT SUM(calories) <= 1000",
      catalog_);
  ASSERT_TRUE(aq.ok());
  auto b = DeriveCardinalityBounds(*aq, {0, 1, 2, 3, 4});
  ASSERT_TRUE(b.ok());
  // u = floor(1000/200) = 5 occurrences (out of up to 15).
  EXPECT_EQ(b->hi, 5);
  EXPECT_EQ(b->lo, 0);
}

TEST_F(PruningTest, NoLinearConstraintsNoPruning) {
  auto aq = paql::ParseAndAnalyze("SELECT PACKAGE(M) FROM meals M", catalog_);
  ASSERT_TRUE(aq.ok());
  auto b = DeriveCardinalityBounds(*aq, {0, 1, 2, 3, 4});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->lo, 0);
  EXPECT_EQ(b->hi, 5);
}

TEST_F(PruningTest, EmptyCandidateSet) {
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(M) FROM meals M SUCH THAT SUM(calories) >= 100",
      catalog_);
  ASSERT_TRUE(aq.ok());
  auto b = DeriveCardinalityBounds(*aq, {});
  ASSERT_TRUE(b.ok());
  // No candidates and a positive lower bound: infeasible.
  EXPECT_TRUE(b->infeasible);
}

TEST(AggWeightsTest, CountStarAndSumAndCountExpr) {
  db::Table t = MakeTable();
  paql::AggCall count_star{db::AggFunc::kCount, nullptr};
  auto w = ComputeAggWeights(count_star, t, {0, 2, 4});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, (std::vector<double>{1, 1, 1}));

  paql::AggCall sum{db::AggFunc::kSum, db::Col("calories")};
  ASSERT_TRUE(sum.arg->Bind(t.schema()).ok());
  w = ComputeAggWeights(sum, t, {0, 4});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, (std::vector<double>{200, 500}));

  paql::AggCall mn{db::AggFunc::kMin, db::Col("calories")};
  ASSERT_TRUE(mn.arg->Bind(t.schema()).ok());
  EXPECT_FALSE(ComputeAggWeights(mn, t, {0}).ok());
}

TEST(AggWeightsTest, NullsContributeZeroToSumAndCount) {
  db::Table t("t", db::Schema({{"x", db::ValueType::kDouble}}));
  ASSERT_TRUE(t.Append({db::Value::Double(5)}).ok());
  ASSERT_TRUE(t.Append({db::Value::Null()}).ok());
  paql::AggCall sum{db::AggFunc::kSum, db::Col("x")};
  ASSERT_TRUE(sum.arg->Bind(t.schema()).ok());
  auto w = ComputeAggWeights(sum, t, {0, 1});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, (std::vector<double>{5, 0}));
  paql::AggCall cnt{db::AggFunc::kCount, db::Col("x")};
  ASSERT_TRUE(cnt.arg->Bind(t.schema()).ok());
  w = ComputeAggWeights(cnt, t, {0, 1});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, (std::vector<double>{1, 0}));
}

TEST(AggWeightsTest, CountOnAllNullColumnZeroFills) {
  // A kNull-typed ("untyped / any") attribute that never saw a value:
  // COUNT(col) counts nothing, so the weight vector is identically zero.
  // This used to drop to the per-row Eval path; now it short-circuits.
  db::Table t("notes", db::Schema({{"id", db::ValueType::kInt},
                                   {"memo", db::ValueType::kNull}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.Append({db::Value::Int(i), db::Value::Null()}).ok());
  }
  ASSERT_EQ(t.column_data(1).storage_type(), db::ValueType::kNull);
  paql::AggCall cnt{db::AggFunc::kCount, db::Col("memo")};
  auto w = ComputeAggWeights(cnt, t, {0, 1, 2, 3});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(*w, (std::vector<double>{0, 0, 0, 0}));

  // The short-circuit must still validate candidate indices.
  EXPECT_EQ(ComputeAggWeights(cnt, t, {0, 9}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(AggWeightsTest, CountOnUntypedColumnWithValuesUsesNullMask) {
  // kNull storage is the per-cell Value fallback and may hold real values
  // (GroupBy aggregate outputs do); the null bitmap is maintained for it
  // like any other layout, so COUNT(col) weights come from the mask.
  db::Table t("mixed", db::Schema({{"id", db::ValueType::kInt},
                                   {"any", db::ValueType::kNull}}));
  ASSERT_TRUE(t.Append({db::Value::Int(0), db::Value::Int(7)}).ok());
  ASSERT_TRUE(t.Append({db::Value::Int(1), db::Value::Null()}).ok());
  ASSERT_TRUE(t.Append({db::Value::Int(2), db::Value::String("x")}).ok());
  paql::AggCall cnt{db::AggFunc::kCount, db::Col("any")};
  auto w = ComputeAggWeights(cnt, t, {0, 1, 2});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(*w, (std::vector<double>{1, 0, 1}));
}

}  // namespace
}  // namespace pb::core
