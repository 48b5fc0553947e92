// Incremental package maintenance under appends (HTAP).
//
// Core level: SketchRefineState routing / split invariants and the
// bit-identity contract — a maintained (incremental) solve must equal a
// cold re-solve over the same maintained partition, reuse only removes
// work. Engine level: the result cache's third state (revalidation), the
// append path, and the spilled-table full-invalidation fallback.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/evaluator.h"
#include "core/sketch_refine.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "db/ops.h"
#include "engine/engine.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

paql::AnalyzedQuery Analyzed(const db::Catalog& c, const std::string& t) {
  auto aq = paql::ParseAndAnalyze(t, c);
  EXPECT_TRUE(aq.ok()) << aq.status().ToString();
  return std::move(aq).value();
}

/// Appends `count` duplicates of the base table's first rows — duplicate
/// points land exactly on existing feature coordinates, so routing is
/// maximally stable (representatives rarely move).
void AppendDuplicates(db::Catalog* c, const std::string& name, size_t count) {
  auto table_or = c->GetMutable(name);
  ASSERT_TRUE(table_or.ok()) << table_or.status().ToString();
  db::Table* table = *table_or;
  std::vector<db::Tuple> rows;
  for (size_t i = 0; i < count; ++i) rows.push_back(table->row(i));
  ASSERT_TRUE(table->AppendRows(std::move(rows)).ok());
}

constexpr char kRecipesQuery[] =
    "SELECT PACKAGE(R) FROM recipes R "
    "SUCH THAT COUNT(*) = 6 AND "
    "SUM(calories) BETWEEN 2400 AND 3600 "
    "MAXIMIZE SUM(protein)";

// ----- Routing determinism ---------------------------------------------------

TEST(IncrementalTest, AppendRouteDeterministicAcrossIdenticalStates) {
  // Two identically-fed states must agree on everything: the maintained
  // partition, the counters, and the package bit-for-bit (routing,
  // splitting and the solves are deterministic).
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(400, 17));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 50;
  SketchRefineState first_state, second_state;

  opts.state = &first_state;
  auto s1 = SketchRefine(aq, opts);
  ASSERT_TRUE(s1.ok() && s1->found) << s1.status().ToString();

  opts.state = &second_state;
  auto p1 = SketchRefine(aq, opts);
  ASSERT_TRUE(p1.ok() && p1->found) << p1.status().ToString();
  EXPECT_EQ(s1->package, p1->package);

  AppendDuplicates(&c, "recipes", 4);
  aq = Analyzed(c, kRecipesQuery);

  opts.state = &first_state;
  auto s2 = SketchRefine(aq, opts);
  ASSERT_TRUE(s2.ok() && s2->found) << s2.status().ToString();
  EXPECT_TRUE(s2->state_reused);
  EXPECT_EQ(s2->appended_routed, 4);

  opts.state = &second_state;
  auto p2 = SketchRefine(aq, opts);
  ASSERT_TRUE(p2.ok() && p2->found) << p2.status().ToString();

  EXPECT_EQ(s2->package, p2->package)
      << s2->package.Fingerprint() << " vs " << p2->package.Fingerprint();
  EXPECT_EQ(s2->objective, p2->objective);
  EXPECT_EQ(s2->dirty_groups, p2->dirty_groups);
  EXPECT_EQ(s2->groups_reused, p2->groups_reused);
  EXPECT_EQ(s2->lp_iterations, p2->lp_iterations);
  ASSERT_EQ(first_state.groups.size(), second_state.groups.size());
  for (size_t g = 0; g < first_state.groups.size(); ++g) {
    EXPECT_EQ(first_state.groups[g].members, second_state.groups[g].members)
        << "group " << g << " routed differently";
    EXPECT_EQ(first_state.groups[g].rep, second_state.groups[g].rep);
  }
}

// ----- Maintained partition invariants --------------------------------------

TEST(IncrementalTest, MaintainedPartitionCoversAllCandidatesExactlyOnce) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(300, 23));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 32;
  SketchRefineState state;
  opts.state = &state;
  ASSERT_TRUE(SketchRefine(aq, opts).ok());

  AppendDuplicates(&c, "recipes", 10);
  aq = Analyzed(c, kRecipesQuery);
  auto r = SketchRefine(aq, opts);
  ASSERT_TRUE(r.ok() && r->found) << r.status().ToString();
  EXPECT_TRUE(r->state_reused);

  std::set<size_t> seen;
  for (const auto& g : state.groups) {
    ASSERT_FALSE(g.members.empty());
    for (size_t m : g.members) {
      EXPECT_TRUE(seen.insert(m).second) << "candidate " << m << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 310u);
  EXPECT_EQ(state.n_candidates, 310u);
}

// ----- Routing and split threshold -------------------------------------------

class ThresholdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema schema;
    ASSERT_TRUE(
        schema.AddColumn({"value", db::ValueType::kDouble}).ok());
    db::Table t("items", schema);
    for (int i = 0; i < 64; ++i) {
      t.StartRow().Double(static_cast<double>(i)).Finish();
    }
    catalog_.RegisterOrReplace(std::move(t));
  }

  paql::AnalyzedQuery Query() {
    return Analyzed(catalog_,
                    "SELECT PACKAGE(T) FROM items T "
                    "SUCH THAT COUNT(*) = 2 AND SUM(value) <= 100000 "
                    "MAXIMIZE SUM(value)");
  }

  void AppendValues(const std::vector<double>& values) {
    auto table_or = catalog_.GetMutable("items");
    ASSERT_TRUE(table_or.ok());
    std::vector<db::Tuple> rows;
    for (double v : values) rows.push_back({db::Value::Double(v)});
    ASSERT_TRUE((*table_or)->AppendRows(std::move(rows)).ok());
  }

  db::Catalog catalog_;
};

TEST_F(ThresholdTest, GroupSplitsPastThreshold) {
  auto aq = Query();
  SketchRefineOptions opts;
  opts.partition_size = 16;  // split threshold 2 * tau = 32
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();
  const size_t groups_before = state.groups.size();

  // 40 duplicates of value 0.0 all route to one group, pushing it far past
  // the 2 * tau split threshold: the same maintained call must re-split it.
  AppendValues(std::vector<double>(40, 0.0));
  aq = Query();
  auto r2 = SketchRefine(aq, opts);
  ASSERT_TRUE(r2.ok() && r2->found) << r2.status().ToString();
  EXPECT_TRUE(r2->state_reused);
  EXPECT_EQ(r2->appended_routed, 40);
  EXPECT_GE(r2->groups_split, 1);
  EXPECT_GT(state.groups.size(), groups_before);
  for (const auto& g : state.groups) {
    EXPECT_LE(g.members.size(), 32u) << "a group exceeds the split threshold";
  }
}

TEST_F(ThresholdTest, FarAppendJoinsNearestGroup) {
  auto aq = Query();
  SketchRefineOptions opts;
  opts.partition_size = 16;
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();
  const size_t groups_before = state.groups.size();

  // A point far outside the frozen feature range still joins the group
  // with the nearest representative: routing never adds a group.
  AppendValues({100000.0});
  aq = Query();
  SketchRefineState cold_state = state;
  auto r2 = SketchRefine(aq, opts);
  ASSERT_TRUE(r2.ok() && r2->found) << r2.status().ToString();
  EXPECT_EQ(r2->appended_routed, 1);
  EXPECT_EQ(state.groups.size(), groups_before);
  std::set<size_t> seen;
  for (const auto& g : state.groups) {
    for (size_t m : g.members) {
      EXPECT_TRUE(seen.insert(m).second) << "candidate " << m << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 65u) << "routing lost a candidate";
  EXPECT_TRUE(*IsValidPackage(aq, r2->package));

  // The same answer as a cold re-solve of the routed partition.
  cold_state.InvalidateSolutions();
  for (auto& g : cold_state.groups) g.dirty = true;
  SketchRefineOptions cold_opts = opts;
  cold_opts.state = &cold_state;
  cold_opts.reuse_group_solutions = false;
  auto cold = SketchRefine(aq, cold_opts);
  ASSERT_TRUE(cold.ok() && cold->found) << cold.status().ToString();
  EXPECT_EQ(r2->package, cold->package)
      << r2->package.Fingerprint() << " vs " << cold->package.Fingerprint();
  EXPECT_EQ(r2->objective, cold->objective);
}

// ----- Bit-identity ----------------------------------------------------------

TEST(IncrementalTest, IncrementalSolveBitIdenticalToColdOverSamePartition) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(400, 41));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 50;
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();

  AppendDuplicates(&c, "recipes", 4);
  aq = Analyzed(c, kRecipesQuery);

  // The cold baseline: the SAME maintained partition with every cached
  // sub-solution and warm start dropped — what a from-scratch re-solve of
  // this partition would do.
  SketchRefineState cold_state = state;

  auto incremental = SketchRefine(aq, opts);
  ASSERT_TRUE(incremental.ok() && incremental->found)
      << incremental.status().ToString();

  cold_state.InvalidateSolutions();
  for (auto& g : cold_state.groups) g.dirty = true;
  SketchRefineOptions cold_opts = opts;
  cold_opts.state = &cold_state;
  cold_opts.reuse_group_solutions = false;
  auto cold = SketchRefine(aq, cold_opts);
  ASSERT_TRUE(cold.ok() && cold->found) << cold.status().ToString();

  EXPECT_EQ(incremental->package, cold->package)
      << incremental->package.Fingerprint() << " vs "
      << cold->package.Fingerprint();
  EXPECT_EQ(incremental->objective, cold->objective);
  EXPECT_TRUE(*IsValidPackage(aq, incremental->package));
  EXPECT_EQ(cold->groups_reused, 0);
  EXPECT_LE(incremental->lp_iterations, cold->lp_iterations);
}

TEST(IncrementalTest, CleanRepeatReusesEveryGroup) {
  // No append between calls: every group is clean and every residual
  // repeats, so the second call must answer the whole refine phase from
  // cached sub-solutions.
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(400, 17));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 50;
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();
  EXPECT_FALSE(r1->state_reused);
  EXPECT_EQ(r1->groups_reused, 0);

  auto r2 = SketchRefine(aq, opts);
  ASSERT_TRUE(r2.ok() && r2->found) << r2.status().ToString();
  EXPECT_TRUE(r2->state_reused);
  EXPECT_EQ(r2->dirty_groups, 0);
  EXPECT_GT(r2->groups_reused, 0);
  EXPECT_EQ(r2->package, r1->package);
  EXPECT_EQ(r2->objective, r1->objective);
}

TEST(IncrementalTest, RefreshStartsOverOnAShrunkTableOrAnotherLayout) {
  // Cached inputs describe one query over one append-only table. A state
  // that covers more rows than the table holds, or whose weight columns
  // belong to another query, is rebuilt: its arrays must equal a fresh
  // state's.
  db::Catalog big, small;
  big.RegisterOrReplace(datagen::GenerateRecipes(400, 17));
  small.RegisterOrReplace(datagen::GenerateRecipes(300, 23));
  // Three constraints and an objective: four weight columns to the three
  // of kRecipesQuery.
  const std::string wider =
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 6 AND "
      "SUM(calories) <= 3600 AND SUM(calories) + SUM(protein) >= 100 "
      "MAXIMIZE SUM(protein)";
  auto expect_fresh = [](const paql::AnalyzedQuery& aq,
                         SketchRefineState* state) {
    auto bounds = RefreshCandidates(aq, state);
    ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
    SketchRefineState fresh;
    ASSERT_TRUE(RefreshCandidates(aq, &fresh).ok());
    EXPECT_EQ(state->rows_scanned, aq.table->num_rows());
    EXPECT_EQ(state->candidates, fresh.candidates);
    EXPECT_EQ(state->weights, fresh.weights);
    EXPECT_EQ(state->ranges.size(), fresh.ranges.size());
  };

  SketchRefineState state;
  SketchRefineOptions opts;
  opts.partition_size = 50;
  opts.state = &state;
  ASSERT_TRUE(SketchRefine(Analyzed(big, kRecipesQuery), opts).ok());
  ASSERT_FALSE(state.groups.empty());
  expect_fresh(Analyzed(small, kRecipesQuery), &state);
  EXPECT_TRUE(state.groups.empty()) << "the partition of the old table stayed";

  expect_fresh(Analyzed(small, wider), &state);
}

}  // namespace
}  // namespace pb::core

namespace pb::engine {
namespace {

EngineOptions IncrementalOptions(bool reuse) {
  EngineOptions o;
  o.num_threads = 2;
  o.incremental_maintenance = true;
  o.maintenance_reuse_solutions = reuse;
  o.sketch_partition_size = 50;
  return o;
}

constexpr char kEngineQuery[] =
    "SELECT PACKAGE(R) FROM recipes R "
    "SUCH THAT COUNT(*) = 6 AND "
    "SUM(calories) BETWEEN 2400 AND 3600 "
    "MAXIMIZE SUM(protein)";

std::vector<db::Tuple> DuplicateRows(size_t n, uint64_t seed, size_t count) {
  const db::Table base = datagen::GenerateRecipes(n, seed);
  std::vector<db::Tuple> rows;
  for (size_t i = 0; i < count; ++i) rows.push_back(base.row(i));
  return rows;
}

TEST(EngineIncrementalTest, RevalidatedCacheBitIdenticalToColdReSolve) {
  // Engine A: maintained path with reuse. Engine B: identical history with
  // reuse off (every group re-solved cold). The revalidated answer after an
  // append must match B's bit-for-bit, with counters proving A skipped
  // solver work.
  Engine a(IncrementalOptions(/*reuse=*/true));
  Engine b(IncrementalOptions(/*reuse=*/false));
  for (Engine* e : {&a, &b}) {
    ASSERT_TRUE(e->GenerateDataset("recipes", 400, 7).ok());
    QueryResponse first = e->ExecuteQuery(0, kEngineQuery);
    ASSERT_TRUE(first.ok()) << first.status.ToString();
    EXPECT_EQ(first.strategy, core::Strategy::kSketchRefine);
    EXPECT_EQ(first.table_rows, 400u);
  }

  // Unchanged catalog: the cached result replays without any solve.
  QueryResponse cached = a.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.result_cache_hit);
  EXPECT_FALSE(cached.revalidated);

  for (Engine* e : {&a, &b}) {
    auto outcome = e->AppendRows("recipes", DuplicateRows(400, 7, 4));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->rows, 4u);
    EXPECT_EQ(outcome->table_rows, 404u);
    EXPECT_FALSE(outcome->full_invalidation);
  }

  QueryResponse reval = a.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(reval.ok()) << reval.status.ToString();
  EXPECT_FALSE(reval.result_cache_hit);
  EXPECT_TRUE(reval.revalidated);
  EXPECT_EQ(reval.table_rows, 404u);
  EXPECT_GT(reval.groups_reused, 0) << "append dirtied every group";
  EXPECT_GT(reval.dirty_groups, 0);
  EXPECT_GE(reval.maintenance_ms, 0.0);

  QueryResponse cold = b.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.groups_reused, 0);
  EXPECT_EQ(reval.package, cold.package)
      << reval.package.Fingerprint() << " vs " << cold.package.Fingerprint();
  EXPECT_EQ(reval.objective, cold.objective);
  // Reuse elides solver work: the revalidation must be cheaper than the
  // cold re-solve on the substrate-cost metric.
  EXPECT_LT(reval.lp_iterations, cold.lp_iterations);

  EXPECT_EQ(a.stats().revalidations, 1);
  EXPECT_EQ(a.stats().appends, 1);
  EXPECT_EQ(a.stats().rows_appended, 4);

  // The refreshed entry is cached again: an immediate repeat is a plain
  // hit that replays the revalidated package.
  QueryResponse again = a.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.result_cache_hit);
  EXPECT_EQ(again.package, reval.package);
  // The hit describes this call: it did no revalidation of its own.
  EXPECT_FALSE(again.revalidated);
  EXPECT_EQ(again.maintenance_ms, 0.0);
  EXPECT_EQ(a.stats().revalidations, 1);
}

TEST(EngineIncrementalTest, SpilledAppendFallsBackToFullInvalidation) {
  Engine e(IncrementalOptions(true));
  ASSERT_TRUE(e.GenerateDataset("recipes", 300, 23).ok());
  QueryResponse before = e.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(before.ok()) << before.status.ToString();

  ASSERT_TRUE(e.SpillTable("recipes").ok());
  auto outcome = e.AppendRows("recipes", DuplicateRows(300, 23, 5));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->full_invalidation);
  EXPECT_EQ(outcome->table_rows, 305u);
  EXPECT_EQ(e.stats().maintenance_full_invalidations, 1);

  // The generation bump invalidated the cached result AND the maintained
  // partition: the re-run is a fresh (non-revalidated) solve over the
  // unspilled, appended table.
  QueryResponse after = e.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_FALSE(after.result_cache_hit);
  EXPECT_FALSE(after.revalidated);
  EXPECT_EQ(after.table_rows, 305u);
}

TEST(EngineIncrementalTest, PrunedQueriesTakeNoMaintenanceSlot) {
  // With room for one maintained state, distinct queries that pruning
  // proves infeasible must not evict the hot query's: after an append its
  // revalidation still maintains the partition it built.
  EngineOptions o = IncrementalOptions(true);
  o.maintenance_cache_capacity = 1;
  Engine e(o);
  ASSERT_TRUE(e.GenerateDataset("recipes", 400, 7).ok());
  QueryResponse first = e.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(first.strategy, core::Strategy::kSketchRefine);
  EXPECT_FALSE(first.warm_start_hit);
  for (int k = 1; k <= 3; ++k) {
    const std::string pruned =
        "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) <= " +
        std::to_string(k) + " AND SUM(calories) >= 1000000 MAXIMIZE " +
        "SUM(protein)";
    const QueryResponse r = e.ExecuteQuery(0, pruned);
    EXPECT_EQ(r.strategy, core::Strategy::kPruning) << r.status.ToString();
  }

  ASSERT_TRUE(e.AppendRows("recipes", DuplicateRows(400, 7, 4)).ok());
  QueryResponse reval = e.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(reval.ok()) << reval.status.ToString();
  EXPECT_TRUE(reval.revalidated);
  EXPECT_TRUE(reval.warm_start_hit) << "the hot query's state was evicted";
  EXPECT_GT(reval.groups_reused, 0);
}

TEST(EngineIncrementalTest, AppendBatchIsAllOrNothing) {
  Engine e(IncrementalOptions(true));
  ASSERT_TRUE(e.GenerateDataset("recipes", 50, 3).ok());
  std::vector<db::Tuple> rows = DuplicateRows(50, 3, 2);
  rows.push_back({db::Value::Int(1)});  // wrong arity
  auto outcome = e.AppendRows("recipes", std::move(rows));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  // Nothing committed: the valid prefix must not have landed.
  for (const auto& info : e.Tables()) {
    if (info.name == "recipes") EXPECT_EQ(info.rows, 50u);
  }
  EXPECT_EQ(e.stats().appends, 0);
}

// ----- Delta revalidation against a fresh pass -----------------------------

/// Base rows of the differential table: (id, cat, a, b, c), b nullable.
db::Table DeltaTable(uint64_t seed) {
  db::Table t("items", db::Schema({{"id", db::ValueType::kInt},
                                   {"cat", db::ValueType::kString},
                                   {"a", db::ValueType::kDouble},
                                   {"b", db::ValueType::kDouble},
                                   {"c", db::ValueType::kDouble}}));
  Rng rng(seed);
  for (int i = 0; i < 120; ++i) {
    t.StartRow()
        .Int(i)
        .String(i % 3 == 0 ? "y" : "x")
        .Double(static_cast<double>(rng.UniformInt(2, 20)))
        .Double(static_cast<double>(rng.UniformInt(1, 50)))
        .Double(static_cast<double>(rng.UniformInt(0, 100)))
        .Finish();
  }
  return t;
}

db::Tuple Item(int64_t id, const char* cat, db::Value a, db::Value b,
               double c) {
  return {db::Value::Int(id), db::Value::String(cat), std::move(a),
          std::move(b), db::Value::Double(c)};
}

TEST(EngineIncrementalTest, DeltaRevalidationMatchesAFreshPass) {
  // An incremental Engine answers each query after every append of a
  // seeded sequence. Its candidate count, strategy and EXPLAIN plan must
  // equal a fresh FilterIndices + DeriveCardinalityBounds + PlanQuery pass
  // over the same table. A mirror state fed the same calls must hold the
  // candidates, weights and ranges a from-scratch refresh computes, and
  // SketchRefine over it must answer as a copy with its inputs dropped
  // (same partition, full recompute) does, and as the engine did.
  constexpr size_t kTau = 8;  // a group past 2 * tau = 16 members splits
  const std::vector<std::string> queries = {
      // WHERE filter: rows of cat 'y' never become candidates.
      "SELECT PACKAGE(T) FROM items T WHERE T.cat = 'x' "
      "SUCH THAT COUNT(*) = 4 AND SUM(a) <= 40 MAXIMIZE SUM(c)",
      // Infeasible by pruning (4 rows of b <= 50 are needed) until a row
      // with b = 150 arrives.
      "SELECT PACKAGE(T) FROM items T "
      "SUCH THAT COUNT(*) <= 3 AND SUM(b) >= 200 MAXIMIZE SUM(c)",
      // Upper cardinality bound floor(30 / min a): moves when a smaller a
      // (or a NULL, which weighs 0) arrives.
      "SELECT PACKAGE(T) FROM items T WHERE T.a IS NOT NULL "
      "SUCH THAT COUNT(*) >= 2 AND SUM(a) <= 30 MAXIMIZE SUM(c)",
      // More constraints than aggregates: a multi-term row and the
      // non-empty row (AVG).
      "SELECT PACKAGE(T) FROM items T SUCH THAT COUNT(*) BETWEEN 2 AND 4 "
      "AND AVG(a) <= 12 AND SUM(a) <= 40 MINIMIZE SUM(c)",
  };

  EngineOptions eo;
  eo.num_threads = 1;
  eo.incremental_maintenance = true;
  eo.sketch_partition_size = kTau;
  Engine engine(eo);
  ASSERT_TRUE(engine.RegisterTable(DeltaTable(5)).ok());
  db::Catalog catalog;
  catalog.RegisterOrReplace(DeltaTable(5));
  std::vector<core::SketchRefineState> mirrors(queries.size());

  // The append sequence: rows failing the WHERE clause, NULLs in
  // aggregated columns, new extremes, more than 2 * tau duplicates, then
  // seeded random batches.
  std::vector<std::vector<db::Tuple>> batches = {
      {Item(200, "y", db::Value::Double(5), db::Value::Double(10), 90),
       Item(201, "y", db::Value::Double(3), db::Value::Double(20), 95)},
      {Item(202, "x", db::Value::Null(), db::Value::Null(), 40)},
      {Item(203, "x", db::Value::Double(7), db::Value::Null(), 60)},
      {Item(204, "x", db::Value::Double(0.5), db::Value::Double(150), 70)},
      std::vector<db::Tuple>(20, Item(205, "x", db::Value::Double(4),
                                      db::Value::Double(12), 50)),
  };
  Rng rng(11);
  for (int step = 0; step < 6; ++step) {
    std::vector<db::Tuple> batch;
    for (int64_t r = 0, k = rng.UniformInt(1, 3); r < k; ++r) {
      batch.push_back(
          Item(300 + step * 3 + r, rng.Bernoulli(0.5) ? "x" : "y",
               db::Value::Double(static_cast<double>(rng.UniformInt(1, 25))),
               db::Value::Double(static_cast<double>(rng.UniformInt(1, 60))),
               static_cast<double>(rng.UniformInt(0, 100))));
    }
    batches.push_back(std::move(batch));
  }

  int64_t sketch_refines = 0, splits = 0, pruned_then_solved = 0;
  std::vector<bool> was_pruned(queries.size(), false);
  for (size_t step = 0; step <= batches.size(); ++step) {
    SCOPED_TRACE("after append " + std::to_string(step));
    if (step > 0) {
      const std::vector<db::Tuple>& batch = batches[step - 1];
      ASSERT_TRUE(engine.AppendRows("items", batch).ok());
      auto t = catalog.GetMutable("items");
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE((*t)->AppendRows(batch).ok());
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(queries[q]);
      const QueryResponse r = engine.ExecuteQuery(0, queries[q]);
      ASSERT_FALSE(r.result_cache_hit);

      // The fresh pass.
      const paql::AnalyzedQuery aq = core::Analyzed(catalog, queries[q]);
      auto candidates = db::FilterIndices(*aq.table, aq.query.where);
      ASSERT_TRUE(candidates.ok());
      auto bounds = core::DeriveCardinalityBounds(aq, *candidates);
      ASSERT_TRUE(bounds.ok());
      auto route = core::PlanQuery(aq, *bounds, candidates->size(), {}, true);
      ASSERT_TRUE(route.ok());
      EXPECT_EQ(r.num_candidates, candidates->size());
      EXPECT_TRUE(r.strategy == route->strategy ||
                  (route->fallback && r.strategy == *route->fallback))
          << core::StrategyToString(r.strategy);
      auto plan = engine.Explain(queries[q]);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(plan->chosen_strategy, route->strategy);
      EXPECT_EQ(plan->fallback, route->fallback);
      EXPECT_EQ(plan->candidates, candidates->size());
      EXPECT_EQ(plan->bounds.ToString(), bounds->ToString());

      // The mirror's refresh against a from-scratch one.
      core::SketchRefineState& mirror = mirrors[q];
      auto refreshed = core::RefreshCandidates(aq, &mirror);
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
      core::SketchRefineState scratch;
      ASSERT_TRUE(core::RefreshCandidates(aq, &scratch).ok());
      EXPECT_EQ(mirror.candidates, *candidates);
      EXPECT_EQ(mirror.weights, scratch.weights);
      ASSERT_EQ(mirror.ranges.size(), scratch.ranges.size());
      for (size_t c = 0; c < mirror.ranges.size(); ++c) {
        EXPECT_EQ(mirror.ranges[c].min, scratch.ranges[c].min);
        EXPECT_EQ(mirror.ranges[c].max, scratch.ranges[c].max);
      }
      EXPECT_EQ(refreshed->lo, bounds->lo);
      EXPECT_EQ(refreshed->hi, bounds->hi);
      EXPECT_EQ(refreshed->infeasible, bounds->infeasible);
      EXPECT_EQ(refreshed->log2_unpruned, bounds->log2_unpruned);
      EXPECT_EQ(refreshed->log2_pruned, bounds->log2_pruned);

      if (route->strategy == core::Strategy::kPruning) {
        EXPECT_EQ(r.strategy, core::Strategy::kPruning);
        was_pruned[q] = true;
        continue;
      }
      ASSERT_EQ(route->strategy, core::Strategy::kSketchRefine);
      if (was_pruned[q]) ++pruned_then_solved;
      // rows_scanned == 0 makes the copy filter and weigh the whole table
      // again over the same partition: the full recompute.
      core::SketchRefineState recompute = mirror;
      recompute.rows_scanned = 0;
      core::SketchRefineOptions sro;
      sro.partition_size = kTau;
      sro.state = &mirror;
      auto delta = core::SketchRefine(aq, sro);
      sro.state = &recompute;
      auto full = core::SketchRefine(aq, sro);
      ASSERT_TRUE(delta.ok() && full.ok());
      EXPECT_EQ(delta->found, full->found);
      EXPECT_EQ(delta->package, full->package);
      EXPECT_EQ(delta->objective, full->objective);
      EXPECT_EQ(delta->lp_iterations, full->lp_iterations);
      EXPECT_EQ(mirror.candidates, recompute.candidates);
      EXPECT_EQ(mirror.weights, recompute.weights);
      splits += delta->groups_split;
      if (!delta->found) {
        EXPECT_EQ(r.strategy, core::Strategy::kIlpSolver);
        continue;
      }
      ++sketch_refines;
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(r.strategy, core::Strategy::kSketchRefine);
      EXPECT_EQ(r.package, delta->package)
          << r.package.Fingerprint() << " vs " << delta->package.Fingerprint();
      EXPECT_EQ(r.objective, delta->objective);
      EXPECT_EQ(r.lp_iterations, delta->lp_iterations);
    }
  }
  // The sequence reached what it is for.
  EXPECT_GT(sketch_refines, 0);
  EXPECT_GE(splits, 1) << "the duplicates never forced a split";
  EXPECT_GE(pruned_then_solved, 1) << "no query went from pruned to solved";
}

}  // namespace
}  // namespace pb::engine
