// E5 — Adaptive exploration (§3.3).
//
// "Users can then select good tuples within the sample, and request a new
// sample that replaces the unselected tuples. Users can repeat this process
// until they reach the ideal package." The interactive loop is only usable
// if each resample is fast; this bench measures session rounds as the data
// grows and as the user locks progressively more tuples.

#include <benchmark/benchmark.h>

#include "datagen/recipes.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "ui/explore.h"

namespace {

constexpr const char* kQuery =
    "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
    "SUCH THAT COUNT(*) = 5 AND SUM(calories) BETWEEN 2000 AND 3000";

void BM_SessionRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateRecipes(n, 19));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  size_t rounds_done = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pb::ui::ExplorationSession session(&*aq);
    if (!session.Start().ok()) {
      state.SkipWithError("start failed");
      return;
    }
    // Lock the first tuple of the sample (a typical interaction).
    if (!session.Lock(session.sample().rows[0]).ok()) {
      state.SkipWithError("lock failed");
      return;
    }
    state.ResumeTiming();
    pb::Status s = session.Resample();
    if (s.ok()) ++rounds_done;
    benchmark::DoNotOptimize(s);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["resamples_ok"] = static_cast<double>(rounds_done);
}
BENCHMARK(BM_SessionRound)->Arg(200)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_ConvergenceByLockedCount(benchmark::State& state) {
  // Rounds of lock-one-more-then-resample until the whole package is
  // locked: the paper's trial-and-error refinement loop.
  const int locks = static_cast<int>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateRecipes(1000, 19));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  size_t completed = 0;
  for (auto _ : state) {
    pb::ui::ExplorationSession session(&*aq);
    if (!session.Start().ok()) {
      state.SkipWithError("start failed");
      return;
    }
    bool ok = true;
    for (int round = 0; round < locks && ok; ++round) {
      // Lock the first not-yet-locked tuple, then resample the rest.
      for (size_t row : session.sample().rows) {
        if (!session.locked_rows().count(row)) {
          ok = session.Lock(row).ok();
          break;
        }
      }
      ok = ok && session.Resample().ok();
    }
    if (ok) ++completed;
  }
  state.counters["locked_rounds"] = locks;
  state.counters["sessions_completed"] = static_cast<double>(completed);
}
BENCHMARK(BM_ConvergenceByLockedCount)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
