// Large-instance SketchRefine suite — the original benchmark-scale
// randomized workloads that used to dominate the tier-1 wall clock. They
// are CTest-registered under the "slow" label and DISABLED by default;
// opt in with:
//
//   cmake -B build -S . -DPB_RUN_SLOW_TESTS=ON
//   cd build && ctest -L slow --output-on-failure
//
// The fast suite (tests/test_sketch_refine.cc) keeps full code-path
// coverage on smaller instances; this one re-checks the same invariants at
// the scale the E6 benchmarks run.

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

constexpr const char* kTightQuery =
    "SELECT PACKAGE(L) FROM lineitem L "
    "SUCH THAT COUNT(*) = 24 AND SUM(quantity) = 600 AND "
    "SUM(extendedprice) BETWEEN 50000 AND 51000 "
    "MAXIMIZE SUM(revenue)";

class SketchRefineSlowTest : public ::testing::Test {
 protected:
  paql::AnalyzedQuery Analyzed(const db::Catalog& c, const std::string& t) {
    auto aq = paql::ParseAndAnalyze(t, c);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return std::move(aq).value();
  }
};

TEST_F(SketchRefineSlowTest, WarmColdIdentityAtBenchmarkScale) {
  // Every sub-ILP solves to proven optimality: warm starting changes the
  // path, never the answer. The pinned package and objective are what
  // cold slack-basis solves of every node LP gave (the BM_RefineWarmStart
  // workload).
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(20000, 5));
  auto aq = Analyzed(c, kTightQuery);
  SketchRefineOptions opts;
  opts.partition_size = 256;
  auto warm = SketchRefine(aq, opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->found);

  EXPECT_EQ(warm->package.Fingerprint(),
            "4091x1,4621x1,4830x1,4879x1,5813x1,7030x1,7697x1,7783x1,8001x1,"
            "8840x1,9593x1,9725x1,9851x1,9911x1,11345x1,11527x1,14146x1,"
            "15482x1,16171x1,17454x1,17500x1,18265x1,18389x1,19256x1");
  EXPECT_EQ(warm->objective, 0x1.8db5333333333p+15);
}

TEST_F(SketchRefineSlowTest, PartitionSizeSweepAtBenchmarkScale) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(10000, 5));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(L) FROM lineitem L "
                     "SUCH THAT COUNT(*) = 10 AND SUM(quantity) <= 250 AND "
                     "SUM(extendedprice) BETWEEN 2000 AND 60000 "
                     "MAXIMIZE SUM(revenue)");
  for (size_t tau : {16, 64, 256, 1024}) {
    SketchRefineOptions opts;
    opts.partition_size = tau;
    opts.milp.time_limit_s = 30.0;
    auto r = SketchRefine(aq, opts);
    ASSERT_TRUE(r.ok()) << "tau=" << tau << ": " << r.status().ToString();
    ASSERT_TRUE(r->found) << "tau=" << tau;
    EXPECT_TRUE(*IsValidPackage(aq, r->package)) << "tau=" << tau;
  }
}

TEST_F(SketchRefineSlowTest, ApproximationWithinReasonOfDirectAtScale) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(5000, 3));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(L) FROM lineitem L "
                     "SUCH THAT COUNT(*) = 8 AND SUM(quantity) <= 200 "
                     "MAXIMIZE SUM(revenue)");
  QueryEvaluator ev(&c);
  EvaluationOptions direct;
  direct.strategy = Strategy::kIlpSolver;
  auto d = ev.Evaluate(aq, direct);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  SketchRefineOptions opts;
  opts.partition_size = 64;
  auto sr = SketchRefine(aq, opts);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_TRUE(sr->found);
  EXPECT_TRUE(*IsValidPackage(aq, sr->package));
  EXPECT_GE(sr->objective, 0.6 * d->objective)
      << "sketch-refine lost too much objective: " << sr->objective
      << " vs direct " << d->objective;
}

}  // namespace
}  // namespace pb::core
