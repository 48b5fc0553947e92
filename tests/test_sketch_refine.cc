// Tests for the SketchRefine scalability extension: partitioning invariants
// and end-to-end sketch+refine runs compared against the Direct ILP.

#include <gtest/gtest.h>

#include <set>

#include "common/env.h"
#include "core/evaluator.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

// ----- Partitioning ----------------------------------------------------------

TEST(PartitionTest, CoversAllItemsExactlyOnce) {
  std::vector<std::vector<double>> cols(2);
  for (int i = 0; i < 137; ++i) {
    cols[0].push_back(static_cast<double>(i % 17));
    cols[1].push_back(static_cast<double>((i * 7) % 23));
  }
  auto groups = PartitionCandidatesColumnar(cols, 137, 10);
  std::set<size_t> seen;
  for (const auto& g : groups) {
    EXPECT_LE(g.size(), 10u);
    EXPECT_FALSE(g.empty());
    for (size_t i : g) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate item " << i;
    }
  }
  EXPECT_EQ(seen.size(), 137u);
}

TEST(PartitionTest, IdenticalFeaturesStillSplit) {
  std::vector<std::vector<double>> cols(2, std::vector<double>(100, 1.0));
  auto groups = PartitionCandidatesColumnar(cols, 100, 8);
  for (const auto& g : groups) EXPECT_LE(g.size(), 8u);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, 100u);
}

TEST(PartitionTest, SingleGroupWhenSmall) {
  std::vector<std::vector<double>> cols(1, std::vector<double>(5, 0.0));
  auto groups = PartitionCandidatesColumnar(cols, 5, 10);
  EXPECT_EQ(groups.size(), 1u);
}

TEST(PartitionTest, GroupsAreSpatiallyCoherent) {
  // 1-D features: groups must be intervals (median splits preserve order
  // structure), i.e. ranges must not interleave.
  std::vector<std::vector<double>> cols(1);
  for (int i = 0; i < 64; ++i) cols[0].push_back(static_cast<double>(i));
  auto groups = PartitionCandidatesColumnar(cols, 64, 8);
  std::vector<std::pair<double, double>> ranges;
  for (const auto& g : groups) {
    double mn = 1e18, mx = -1e18;
    for (size_t i : g) {
      mn = std::min(mn, cols[0][i]);
      mx = std::max(mx, cols[0][i]);
    }
    ranges.emplace_back(mn, mx);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second)
        << "group ranges interleave";
  }
}

// ----- SketchRefine end-to-end -----------------------------------------------

class SketchRefineTest : public ::testing::Test {
 protected:
  paql::AnalyzedQuery Analyzed(const db::Catalog& c, const std::string& t) {
    auto aq = paql::ParseAndAnalyze(t, c);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return std::move(aq).value();
  }
};

TEST_F(SketchRefineTest, FindsValidPackageOnRecipes) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(600, 17));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT COUNT(*) = 6 AND "
                     "SUM(calories) BETWEEN 2400 AND 3600 "
                     "MAXIMIZE SUM(protein)");
  SketchRefineOptions opts;
  opts.partition_size = 50;
  auto r = SketchRefine(aq, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->found);
  EXPECT_TRUE(*IsValidPackage(aq, r->package));
  EXPECT_GT(r->num_partitions, 1u);
  EXPECT_GT(r->refine_ilps_solved, 0);
}

TEST_F(SketchRefineTest, ObjectiveWithinReasonOfDirect) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(800, 3));
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
  // Approximation: within 40% of the true optimum on this workload
  // (the 2016 paper reports single-digit-% gaps; our partitioning is
  // simpler, so the bar is loose but still meaningful).
  EXPECT_GE(sr->objective, 0.6 * d->objective)
      << "sketch-refine lost too much objective: " << sr->objective
      << " vs direct " << d->objective;
}

TEST_F(SketchRefineTest, RejectsNonTranslatableQueries) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(50, 1));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 3");
  EXPECT_EQ(SketchRefine(aq).status().code(), StatusCode::kUnimplemented);
}

TEST_F(SketchRefineTest, RejectsExtremeConstraints) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(50, 1));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT MAX(calories) <= 600 AND COUNT(*) = 2");
  EXPECT_EQ(SketchRefine(aq).status().code(), StatusCode::kUnimplemented);
}

TEST_F(SketchRefineTest, InfeasibleQueryReportsNotFound) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(100, 2));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT COUNT(*) = 2 AND SUM(calories) >= 1000000");
  auto r = SketchRefine(aq);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->found);
}

TEST_F(SketchRefineTest, PartitionSizeSweepStaysValid) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(300, 23));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT COUNT(*) = 4 AND SUM(calories) <= 2400 "
                     "MAXIMIZE SUM(rating)");
  for (size_t tau : {16, 64, 150}) {
    SketchRefineOptions opts;
    opts.partition_size = tau;
    auto r = SketchRefine(aq, opts);
    ASSERT_TRUE(r.ok()) << "tau=" << tau << ": " << r.status().ToString();
    ASSERT_TRUE(r->found) << "tau=" << tau;
    EXPECT_TRUE(*IsValidPackage(aq, r->package)) << "tau=" << tau;
  }
}

TEST_F(SketchRefineTest, ThreadCountDoesNotChangeResult) {
  // The meal-plan workload: any thread budget must produce a bit-identical
  // package and objective (parallel refine merges deterministically and the
  // repair pass depends only on deterministic sub-solutions).
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(600, 41));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT COUNT(*) = 6 AND "
                     "SUM(calories) BETWEEN 2400 AND 3600 AND "
                     "SUM(fat) <= 180 "
                     "MAXIMIZE SUM(protein)");
  SketchRefineOptions seq;
  seq.partition_size = 50;
  seq.threads = 1;
  auto r1 = SketchRefine(aq, seq);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r1->found);

  // Every refine fan-out must agree with the serial run, including
  // whatever PB_TEST_THREADS suggests (the CI matrix re-runs the suite at 1
  // and $(nproc)); counts below 1 read as 1, the serial run itself.
  for (int threads : {2, 4, pb::EnvInt("PB_TEST_THREADS", 8), 0, -3}) {
    SketchRefineOptions par = seq;
    par.threads = threads;
    auto r4 = SketchRefine(aq, par);
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
    ASSERT_TRUE(r4->found);

    EXPECT_EQ(r1->package, r4->package)
        << r1->package.Fingerprint() << " vs " << r4->package.Fingerprint()
        << " (threads=" << threads << ")";
    EXPECT_EQ(r1->objective, r4->objective);
    EXPECT_EQ(r1->backtracks, r4->backtracks);
    EXPECT_EQ(r1->repair_passes, r4->repair_passes);
    EXPECT_EQ(r1->refine_ilps_solved, r4->refine_ilps_solved);
    EXPECT_EQ(r1->lp_iterations, r4->lp_iterations);
    EXPECT_EQ(r1->lp_dual_iterations, r4->lp_dual_iterations);
    EXPECT_TRUE(*IsValidPackage(aq, r4->package));
  }
}

TEST_F(SketchRefineTest, InvalidRepairSurfacesInternalErrorNotSilence) {
  // Force the repair invariant to break: a loose integrality tolerance
  // makes every sub-ILP report "optimal" on fractional points whose
  // integer snap aggregates differently than the solver claimed, so the
  // repair pass completes on residuals that cannot validate. That must
  // surface as an Internal error — never a silently invalid package, and
  // not a found=false after burning the backtrack budget on deterministic
  // identical retries. (This combination was verified to hit the repaired-
  // but-invalid path; the solver is deterministic, so it stays hit.)
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(200, 29));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R "
                     "SUCH THAT COUNT(*) = 5 AND "
                     "SUM(calories) BETWEEN 2000 AND 2200 "
                     "MAXIMIZE SUM(protein)");
  SketchRefineOptions opts;
  opts.partition_size = 32;
  opts.milp.int_tol = 0.40;
  auto r = SketchRefine(aq, opts);
  ASSERT_FALSE(r.ok()) << "repair on drifted aggregates must not 'succeed'";
  EXPECT_EQ(r.status().code(), StatusCode::kInternal)
      << r.status().ToString();
}

TEST_F(SketchRefineTest, RepeatQueriesSupported) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(200, 29));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(R) FROM recipes R REPEAT 2 "
                     "SUCH THAT COUNT(*) = 6 AND SUM(calories) <= 3000 "
                     "MAXIMIZE SUM(protein)");
  auto r = SketchRefine(aq);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->found);
  EXPECT_TRUE(*IsValidPackage(aq, r->package));
}

}  // namespace
}  // namespace pb::core
