// Unit tests for the Package value type and its aggregate/validity
// semantics (the engine's ground truth for what a "valid package" is).

#include <gtest/gtest.h>

#include "core/package.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

db::Table MakeMeals() {
  db::Table t("meals", db::Schema({{"id", db::ValueType::kInt},
                                   {"calories", db::ValueType::kDouble},
                                   {"protein", db::ValueType::kDouble},
                                   {"gluten", db::ValueType::kString}}));
  auto add = [&](int64_t id, double cal, double prot, const char* g) {
    ASSERT_TRUE(t.Append({db::Value::Int(id), db::Value::Double(cal),
                          db::Value::Double(prot), db::Value::String(g)})
                    .ok());
  };
  add(0, 700, 30, "full");
  add(1, 250, 12, "free");
  add(2, 900, 55, "free");
  add(3, 300, 20, "free");
  add(4, 550, 25, "full");
  return t;
}

paql::AnalyzedQuery Analyzed(const db::Catalog& catalog,
                             const std::string& text) {
  auto aq = paql::ParseAndAnalyze(text, catalog);
  EXPECT_TRUE(aq.ok()) << aq.status().ToString();
  return std::move(aq).value();
}

class PackageTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_.RegisterOrReplace(MakeMeals()); }
  db::Catalog catalog_;
};

// ----- Multiset mechanics ----------------------------------------------------

TEST(PackageMechanicsTest, AddRemoveNormalize) {
  Package p;
  p.Add(5);
  p.Add(2);
  p.Add(5, 2);
  EXPECT_EQ(p.TotalCount(), 4);
  EXPECT_EQ(p.MultiplicityOf(5), 3);
  EXPECT_EQ(p.MultiplicityOf(2), 1);
  EXPECT_EQ(p.MultiplicityOf(99), 0);
  // rows stay sorted
  ASSERT_EQ(p.rows.size(), 2u);
  EXPECT_EQ(p.rows[0], 2u);
  EXPECT_EQ(p.rows[1], 5u);

  EXPECT_EQ(p.Remove(5, 2), 2);
  EXPECT_EQ(p.MultiplicityOf(5), 1);
  EXPECT_EQ(p.Remove(5, 10), 1);  // clamps
  EXPECT_EQ(p.MultiplicityOf(5), 0);
  EXPECT_EQ(p.Remove(5), 0);      // absent
  EXPECT_EQ(p.TotalCount(), 1);
}

TEST(PackageMechanicsTest, NormalizeMergesAndSorts) {
  Package p;
  p.rows = {7, 3, 7};
  p.multiplicity = {1, 2, 3};
  p.Normalize();
  ASSERT_EQ(p.rows.size(), 2u);
  EXPECT_EQ(p.rows[0], 3u);
  EXPECT_EQ(p.multiplicity[0], 2);
  EXPECT_EQ(p.rows[1], 7u);
  EXPECT_EQ(p.multiplicity[1], 4);
}

TEST(PackageMechanicsTest, FingerprintStable) {
  Package a, b;
  a.Add(1);
  a.Add(3, 2);
  b.Add(3, 2);
  b.Add(1);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.Add(1);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

// ----- Aggregates ------------------------------------------------------------

TEST_F(PackageTest, AggregatesOverPackage) {
  db::Table t = MakeMeals();
  Package p;
  p.Add(1);      // 250 cal
  p.Add(3, 2);   // 300 cal x2
  paql::AggCall sum{db::AggFunc::kSum, db::Col("calories")};
  ASSERT_TRUE(sum.arg->Bind(t.schema()).ok());
  EXPECT_DOUBLE_EQ(*EvalPackageAgg(sum, t, p)->ToDouble(), 850.0);
  paql::AggCall cnt{db::AggFunc::kCount, nullptr};
  EXPECT_EQ(EvalPackageAgg(cnt, t, p)->AsInt(), 3);
  paql::AggCall avg{db::AggFunc::kAvg, db::Col("calories")};
  ASSERT_TRUE(avg.arg->Bind(t.schema()).ok());
  EXPECT_NEAR(EvalPackageAgg(avg, t, p)->AsDoubleExact(), 850.0 / 3, 1e-9);
  paql::AggCall mx{db::AggFunc::kMax, db::Col("calories")};
  ASSERT_TRUE(mx.arg->Bind(t.schema()).ok());
  EXPECT_DOUBLE_EQ(*EvalPackageAgg(mx, t, p)->ToDouble(), 300.0);
}

TEST_F(PackageTest, EmptyPackageSemantics) {
  db::Table t = MakeMeals();
  Package empty;
  paql::AggCall sum{db::AggFunc::kSum, db::Col("calories")};
  ASSERT_TRUE(sum.arg->Bind(t.schema()).ok());
  // SUM over the empty package is 0 (package semantics, not SQL NULL).
  auto v = EvalPackageAgg(sum, t, empty);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->is_null());
  EXPECT_DOUBLE_EQ(*v->ToDouble(), 0.0);
  // AVG/MIN/MAX stay NULL.
  paql::AggCall avg{db::AggFunc::kAvg, db::Col("calories")};
  ASSERT_TRUE(avg.arg->Bind(t.schema()).ok());
  EXPECT_TRUE(EvalPackageAgg(avg, t, empty)->is_null());
  paql::AggCall mn{db::AggFunc::kMin, db::Col("calories")};
  ASSERT_TRUE(mn.arg->Bind(t.schema()).ok());
  EXPECT_TRUE(EvalPackageAgg(mn, t, empty)->is_null());
  paql::AggCall cnt{db::AggFunc::kCount, nullptr};
  EXPECT_EQ(EvalPackageAgg(cnt, t, empty)->AsInt(), 0);
}

// ----- Validity --------------------------------------------------------------

TEST_F(PackageTest, GlobalConstraintSatisfaction) {
  auto aq = Analyzed(catalog_,
                     "SELECT PACKAGE(M) FROM meals M "
                     "SUCH THAT COUNT(*) = 2 AND SUM(calories) <= 600");
  Package good;
  good.Add(1);  // 250
  good.Add(3);  // 300
  EXPECT_TRUE(*SatisfiesGlobalConstraints(aq, good));
  Package too_many;
  too_many.Add(1);
  too_many.Add(3);
  too_many.Add(4);
  EXPECT_FALSE(*SatisfiesGlobalConstraints(aq, too_many));
  Package too_heavy;
  too_heavy.Add(0);  // 700
  too_heavy.Add(1);
  EXPECT_FALSE(*SatisfiesGlobalConstraints(aq, too_heavy));
}

TEST_F(PackageTest, EmptyPackageFailsAvgMinMaxConstraints) {
  auto aq = Analyzed(catalog_,
                     "SELECT PACKAGE(M) FROM meals M "
                     "SUCH THAT AVG(calories) <= 10000");
  Package empty;
  // AVG over empty is NULL; NULL <= 10000 is NULL -> unsatisfied.
  EXPECT_FALSE(*SatisfiesGlobalConstraints(aq, empty));
}

TEST_F(PackageTest, EmptyPackageSatisfiesPureSumUpperBounds) {
  auto aq = Analyzed(catalog_,
                     "SELECT PACKAGE(M) FROM meals M "
                     "SUCH THAT SUM(calories) <= 600");
  Package empty;
  EXPECT_TRUE(*SatisfiesGlobalConstraints(aq, empty));
}

TEST_F(PackageTest, BaseConstraintsCheckedPerMember) {
  auto aq = Analyzed(catalog_,
                     "SELECT PACKAGE(M) FROM meals M WHERE gluten = 'free'");
  Package ok;
  ok.Add(1);
  ok.Add(2);
  EXPECT_TRUE(*SatisfiesBaseConstraints(aq, ok));
  Package bad;
  bad.Add(0);  // gluten = full
  EXPECT_FALSE(*SatisfiesBaseConstraints(aq, bad));
}

TEST_F(PackageTest, IsValidChecksMultiplicityCap) {
  auto aq = Analyzed(catalog_, "SELECT PACKAGE(M) FROM meals M");
  Package doubled;
  doubled.Add(1, 2);  // REPEAT absent: cap is 1
  EXPECT_FALSE(*IsValidPackage(aq, doubled));
  auto aq2 = Analyzed(catalog_, "SELECT PACKAGE(M) FROM meals M REPEAT 2");
  EXPECT_TRUE(*IsValidPackage(aq2, doubled));
  Package tripled;
  tripled.Add(1, 3);
  EXPECT_FALSE(*IsValidPackage(aq2, tripled));
}

TEST_F(PackageTest, IsValidRejectsOutOfRangeRow) {
  auto aq = Analyzed(catalog_, "SELECT PACKAGE(M) FROM meals M");
  Package p;
  p.Add(999);
  EXPECT_FALSE(IsValidPackage(aq, p).ok());
}

TEST_F(PackageTest, ObjectiveValue) {
  auto aq = Analyzed(catalog_,
                     "SELECT PACKAGE(M) FROM meals M "
                     "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(protein)");
  Package p;
  p.Add(2);  // 55
  p.Add(4);  // 25
  EXPECT_DOUBLE_EQ(*PackageObjective(aq, p), 80.0);
  auto no_obj = Analyzed(catalog_, "SELECT PACKAGE(M) FROM meals M");
  EXPECT_DOUBLE_EQ(*PackageObjective(no_obj, p), 0.0);
}

TEST_F(PackageTest, DisjunctiveConstraintEvaluation) {
  // OR queries are not ILP-translatable but must evaluate exactly.
  auto aq = Analyzed(catalog_,
                     "SELECT PACKAGE(M) FROM meals M "
                     "SUCH THAT COUNT(*) = 1 OR SUM(calories) >= 1500");
  EXPECT_FALSE(aq.ilp_translatable);
  Package single;
  single.Add(1);
  EXPECT_TRUE(*SatisfiesGlobalConstraints(aq, single));
  Package heavy;
  heavy.Add(0);
  heavy.Add(2);  // 1600 cal, count 2
  EXPECT_TRUE(*SatisfiesGlobalConstraints(aq, heavy));
  Package neither;
  neither.Add(1);
  neither.Add(3);  // count 2, 550 cal
  EXPECT_FALSE(*SatisfiesGlobalConstraints(aq, neither));
}

TEST_F(PackageTest, MaterializeRepeatsTuples) {
  db::Table t = MakeMeals();
  Package p;
  p.Add(1);
  p.Add(3, 2);
  auto m = MaterializePackage(t, p);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->num_rows(), 3u);
  EXPECT_EQ(m->at(1, 0).AsInt(), 3);
  EXPECT_EQ(m->at(2, 0).AsInt(), 3);
}

TEST_F(PackageTest, MaterializeRejectsARowPastTheTable) {
  // A package kept from before its table was replaced by a smaller one.
  db::Table t = MakeMeals();
  Package p;
  p.Add(t.num_rows());
  auto m = MaterializePackage(t, p);
  EXPECT_EQ(m.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace pb::core
