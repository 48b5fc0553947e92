#include "engine/engine.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/enumerator.h"
#include "datagen/lineitem.h"
#include "datagen/recipes.h"
#include "datagen/stocks.h"
#include "datagen/travel.h"
#include "db/csv.h"
#include "paql/analyzer.h"
#include "storage/storage_budget.h"
#include "ui/template.h"

namespace pb::engine {

namespace {

/// Warm-start cache capacity in entries (LRU beyond this).
constexpr size_t kWarmCacheCapacity = 64;

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      result_cache_(options_.result_cache_capacity),
      warm_cache_(kWarmCacheCapacity),
      maint_cache_(options_.maintenance_cache_capacity) {
  num_threads_ = options_.num_threads > 0
                     ? options_.num_threads
                     : std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- catalog

Status Engine::RegisterTable(db::Table table) {
  WriterMutexLock lock(&catalog_mu_);
  Status s = catalog_.Register(std::move(table));
  if (s.ok()) ++catalog_generation_;
  return s;
}

void Engine::RegisterOrReplaceTable(db::Table table) {
  WriterMutexLock lock(&catalog_mu_);
  catalog_.RegisterOrReplace(std::move(table));
  ++catalog_generation_;
}

Status Engine::DropTable(const std::string& name) {
  WriterMutexLock lock(&catalog_mu_);
  Status s = catalog_.Drop(name);
  if (s.ok()) ++catalog_generation_;
  return s;
}

Result<size_t> Engine::LoadCsv(const std::string& path,
                               const std::string& name) {
  // File IO happens outside the catalog lock.
  PB_ASSIGN_OR_RETURN(db::Table table, db::ReadCsvFile(path, name));
  const size_t rows = table.num_rows();
  RegisterOrReplaceTable(std::move(table));
  return rows;
}

Result<size_t> Engine::GenerateDataset(const std::string& kind, size_t n,
                                       uint64_t seed) {
  db::Table table;
  if (kind == "recipes") {
    table = datagen::GenerateRecipes(n, seed);
  } else if (kind == "travel") {
    table = datagen::GenerateTravelItems(n, seed);
  } else if (kind == "stocks") {
    table = datagen::GenerateStocks(n, seed);
  } else if (kind == "lineitem") {
    table = datagen::GenerateLineitems(n, seed);
  } else {
    return Status::InvalidArgument(
        "unknown dataset kind '" + kind +
        "' (expected recipes|travel|stocks|lineitem)");
  }
  const size_t rows = table.num_rows();
  RegisterOrReplaceTable(std::move(table));
  return rows;
}

std::vector<std::string> Engine::TableNames() const {
  ReaderMutexLock lock(&catalog_mu_);
  return catalog_.TableNames();
}

std::vector<Engine::TableInfo> Engine::Tables() const {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<TableInfo> out;
  for (const std::string& name : catalog_.TableNames()) {
    auto table = catalog_.Get(name);
    if (!table.ok()) continue;
    out.push_back(
        {name, (*table)->num_rows(), (*table)->schema().num_columns()});
  }
  return out;
}

Result<std::string> Engine::RenderTable(const std::string& name,
                                        size_t max_rows) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(const db::Table* table, catalog_.Get(name));
  return table->ToString(max_rows);
}

Status Engine::SpillTable(const std::string& name, const std::string& dir,
                          size_t block_size) {
  // At most 16 default blocks: a larger block would pin a column's whole
  // data at once and leave its zone map one entry.
  constexpr size_t kMaxSpillBlockSize = 16 * storage::kDefaultBlockSize;
  if (block_size == 0 || block_size > kMaxSpillBlockSize) {
    return Status::InvalidArgument("spill block size must be in [1, " +
                                   std::to_string(kMaxSpillBlockSize) +
                                   "] rows");
  }
  WriterMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(db::Table * table, catalog_.GetMutable(name));
  std::error_code ec;
  std::string base = dir;
  if (base.empty()) {
    base = std::filesystem::temp_directory_path(ec).string();
    if (ec) base = ".";
  }
  // Generation in the name keeps re-spills of a reloaded table from
  // colliding; the file is created O_EXCL-free but unlinked on close.
  const std::string path = base + "/pb_" + table->name() + "_g" +
                           std::to_string(catalog_generation_) + ".seg";
  PB_RETURN_IF_ERROR(table->SpillToDisk(path, block_size));
  // Results are bit-identical, but bump the generation anyway: cached
  // responses carry timings/counters that no longer describe the layout.
  ++catalog_generation_;
  return Status::OK();
}

Result<Engine::AppendOutcome> Engine::AppendRows(const std::string& name,
                                                 std::vector<db::Tuple> rows) {
  WriterMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(db::Table * table, catalog_.GetMutable(name));
  AppendOutcome out;
  out.rows = rows.size();
  if (table->spilled()) {
    // Spilled tables are append-frozen: read the blocks back, grow the
    // resident table, and bump the generation — the full-invalidation
    // fallback. Every cached result and maintained partition over the old
    // layout starts over (the spill counters no longer describe it).
    PB_RETURN_IF_ERROR(table->Unspill());
    PB_RETURN_IF_ERROR(table->AppendRows(std::move(rows)));
    ++catalog_generation_;
    out.full_invalidation = true;
    MutexLock slock(&stats_mu_);
    ++stats_.maintenance_full_invalidations;
  } else {
    // The incremental path: no generation bump. Cached results stay
    // addressable and revalidate against the new row count at hit time;
    // maintained partitions absorb the rows as dirty-group work.
    PB_RETURN_IF_ERROR(table->AppendRows(std::move(rows)));
  }
  out.table_rows = table->num_rows();
  MutexLock slock(&stats_mu_);
  ++stats_.appends;
  stats_.rows_appended += static_cast<int64_t>(out.rows);
  return out;
}

// ---------------------------------------------------------------- sessions

uint64_t Engine::OpenSession() {
  MutexLock lock(&sessions_mu_);
  const uint64_t id = next_session_++;
  sessions_.emplace(id, std::make_shared<Session>());
  return id;
}

Status Engine::CloseSession(uint64_t session) {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session));
  }
  // An in-flight query keeps its shared_ptr; cancel it on the way out so
  // closing a session never leaves work running on its behalf.
  {
    MutexLock slock(&it->second->mu);
    if (it->second->active.valid()) it->second->active.RequestCancel();
  }
  sessions_.erase(it);
  return Status::OK();
}

Status Engine::CancelSession(uint64_t session) {
  std::shared_ptr<Session> s = FindSession(session);
  if (!s) {
    return Status::NotFound("unknown session " + std::to_string(session));
  }
  MutexLock lock(&s->mu);
  if (s->active.valid()) s->active.RequestCancel();
  return Status::OK();
}

std::shared_ptr<Engine::Session> Engine::FindSession(uint64_t id) {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

// ------------------------------------------------------------------ caches

bool Engine::LookupResultCache(const std::string& key, QueryResponse* out) {
  MutexLock lock(&result_mu_);
  const QueryResponse* hit = result_cache_.Find(key);
  if (hit == nullptr) return false;
  *out = *hit;
  out->result_cache_hit = true;
  // Timings and maintenance describe THIS call, not the one that stored
  // the entry: a hit on a refreshed entry is not a revalidation.
  out->revalidated = false;
  out->maintenance_ms = 0.0;
  out->parse_seconds = 0.0;
  out->solve_seconds = 0.0;
  out->total_seconds = 0.0;
  return true;
}

void Engine::StoreResultCache(const std::string& key,
                              const QueryResponse& resp) {
  MutexLock lock(&result_mu_);
  result_cache_.Put(key, resp);
}

std::shared_ptr<Engine::WarmEntry> Engine::GetWarmEntry(uint64_t signature) {
  MutexLock lock(&warm_mu_);
  std::shared_ptr<WarmEntry>& entry = warm_cache_[signature];
  if (!entry) entry = std::make_shared<WarmEntry>();
  return entry;
}

std::shared_ptr<Engine::MaintenanceEntry> Engine::FindMaintenanceEntry(
    const std::string& query_key) {
  MutexLock lock(&maint_mu_);
  std::shared_ptr<MaintenanceEntry>* entry = maint_cache_.Find(query_key);
  return entry != nullptr ? *entry : nullptr;
}

void Engine::KeepMaintenanceEntry(const std::string& query_key,
                                  std::shared_ptr<MaintenanceEntry> entry) {
  MutexLock lock(&maint_mu_);
  std::shared_ptr<MaintenanceEntry>& kept = maint_cache_[query_key];
  if (!kept) kept = std::move(entry);
}

// ----------------------------------------------------------------- queries

bool Engine::Admit() {
  MutexLock lock(&admit_mu_);
  if (next_ticket_ - finished_ >= options_.max_pending_queries) return false;
  const uint64_t ticket = next_ticket_++;
  while (ticket >= finished_ + static_cast<uint64_t>(num_threads_)) {
    admit_cv_.Wait(&admit_mu_);
  }
  return true;
}

void Engine::Leave() {
  {
    MutexLock lock(&admit_mu_);
    ++finished_;
  }
  admit_cv_.NotifyAll();
}

QueryResponse Engine::ExecuteQuery(uint64_t session_id,
                                   const std::string& paql,
                                   const QueryBudget& budget) {
  QueryResponse resp;
  if (!Admit()) {
    resp.status = Status::ResourceExhausted(
        "server overloaded: admission queue is full");
    MutexLock lock(&stats_mu_);
    ++stats_.overload_rejections;
    return resp;
  }
  Stopwatch total;
  // Every query gets a live token so CancelSession always has a target.
  CancelToken token =
      budget.cancel.valid() ? budget.cancel : CancelToken::Create();

  std::shared_ptr<Session> session;
  if (session_id != 0) session = FindSession(session_id);
  if (session_id != 0 && !session) {
    resp.status =
        Status::NotFound("unknown session " + std::to_string(session_id));
  } else {
    if (session) {
      MutexLock lock(&session->mu);
      session->active = token;
    }
    resp = Run(paql, budget, token);
    if (session) {
      MutexLock lock(&session->mu);
      session->active = CancelToken();
    }
  }
  resp.total_seconds = total.ElapsedSeconds();

  {
    MutexLock lock(&stats_mu_);
    ++stats_.queries;
    if (!resp.status.ok()) ++stats_.errors;
    if (resp.cancelled) ++stats_.cancelled;
    if (resp.result_cache_hit) ++stats_.result_cache_hits;
    if (resp.revalidated) ++stats_.revalidations;
  }
  Leave();
  return resp;
}

QueryResponse Engine::Run(const std::string& paql, const QueryBudget& budget,
                          const CancelToken& token) {
  QueryResponse resp;
  ReaderMutexLock catalog_lock(&catalog_mu_);

  const std::string normalized = std::string(StripAsciiWhitespace(paql));
  const std::string key =
      std::to_string(catalog_generation_) + "\n" + normalized;
  // Third cache state: a hit whose base table has grown since the entry
  // was stored (same generation — appends do not bump it) is neither
  // served nor dropped. It falls through to a re-run, which the
  // maintained state turns into a pass over the appended rows plus
  // dirty-group work, and the refreshed response overwrites the entry
  // ("revalidation").
  bool stale_by_append = false;
  if (LookupResultCache(key, &resp)) {
    bool fresh = true;
    if (!resp.table.empty()) {
      auto table_or = catalog_.Get(resp.table);
      fresh = table_or.ok() && (*table_or)->num_rows() == resp.table_rows;
    }
    if (fresh) return resp;
    stale_by_append = true;
    resp = QueryResponse();
  }

  Stopwatch parse_timer;
  auto aq_or = paql::ParseAndAnalyze(paql, catalog_);
  resp.parse_seconds = parse_timer.ElapsedSeconds();
  if (!aq_or.ok()) {
    resp.status = aq_or.status();
    return resp;
  }
  const paql::AnalyzedQuery& aq = *aq_or;
  resp.table = aq.table->name();
  resp.has_objective = aq.has_objective;
  resp.table_rows = aq.table->num_rows();

  // Budget: the deadline covers the whole call; each strategy's own limit
  // is clamped to the time remaining when it starts.
  const double limit = budget.time_limit_s > 0.0
                           ? budget.time_limit_s
                           : options_.defaults.milp.time_limit_s;
  const Deadline deadline = Deadline::AfterSeconds(limit);

  core::EvaluationOptions eo = options_.defaults;
  eo.milp.cancel = token;
  eo.milp.time_limit_s = deadline.SecondsRemaining();
  if (budget.max_nodes > 0) eo.milp.max_nodes = budget.max_nodes;
  eo.local_search.time_limit_s =
      std::min(eo.local_search.time_limit_s, deadline.SecondsRemaining());
  eo.brute_force.time_limit_s =
      std::min(eo.brute_force.time_limit_s, deadline.SecondsRemaining());

  // Storage budget: bulk block pins on this thread charge it; 0 means
  // count-only. The WHERE scan and the translator's gathers are bulk
  // reads, so a tight budget degrades to ResourceExhausted, never to a
  // wrong answer. Only per-cell compatibility reads bypass it, such as
  // the row-at-a-time filter for predicate shapes the block kernel does
  // not cover.
  storage::StorageBudget storage_budget =
      storage::StorageBudget::Limited(budget.max_pinned_bytes);
  storage::StorageBudgetScope storage_scope(storage_budget);

  Stopwatch solve_timer;
  resp.status = Evaluate(aq, eo, normalized, &resp);
  resp.solve_seconds = solve_timer.ElapsedSeconds();
  resp.storage_peak_pinned_bytes = storage_budget.peak_pinned_bytes();

  if (resp.status.ok() && options_.render_packages) {
    auto screen =
        ui::RenderPackageTemplate(aq, resp.package, {.show_paql = false});
    if (screen.ok()) resp.rendered = *std::move(screen);
  }

  if (stale_by_append && resp.status.ok()) resp.revalidated = true;

  // Cache answers that replay deterministically: optimal completions,
  // pruning-proven infeasibility, and maintained SketchRefine packages
  // (deterministic solver + maintained partition ⇒ a re-run reproduces
  // them bit-for-bit). Heuristic/limited/cancelled responses could
  // legally differ on a re-run, so they must not be replayed.
  const bool cacheable =
      (resp.status.ok() && resp.proven_optimal && !resp.cancelled) ||
      resp.strategy == core::Strategy::kPruning ||
      (resp.status.ok() && !resp.cancelled &&
       resp.strategy == core::Strategy::kSketchRefine);
  if (cacheable) StoreResultCache(key, resp);
  return resp;
}

Status Engine::Evaluate(const paql::AnalyzedQuery& aq,
                        const core::EvaluationOptions& eo,
                        const std::string& query_key, QueryResponse* resp) {
  std::shared_ptr<MaintenanceEntry> entry;
  bool kept = false;
  core::QueryInputs inputs;
  core::CardinalityBounds bounds;
  if (options_.incremental_maintenance &&
      core::SketchRefineEligible(aq, eo)) {
    // A maintained query's inputs are state, extended over the rows
    // appended since its last call. A new entry is cached below only if
    // the plan is SketchRefine: a query pruning refutes takes no slot.
    entry = FindMaintenanceEntry(query_key);
    kept = entry != nullptr;
    if (!kept) entry = std::make_shared<MaintenanceEntry>();
    MaintenanceEntry* e = entry.get();
    MutexLock lock(&e->mu);
    PB_ASSIGN_OR_RETURN(bounds, PrepareMaintained(aq, e));
    resp->num_candidates = e->state.inputs.candidates.size();
  } else {
    PB_ASSIGN_OR_RETURN(bounds, core::PrepareQuery(aq, &inputs));
    resp->num_candidates = inputs.candidates.size();
  }
  resp->zone_map_skipped_blocks = bounds.zone_map_skipped_blocks;
  PB_ASSIGN_OR_RETURN(
      const core::QueryRoute route,
      core::PlanQuery(aq, bounds, resp->num_candidates, eo,
                      options_.incremental_maintenance));
  if (entry != nullptr && !kept &&
      route.strategy == core::Strategy::kSketchRefine) {
    KeepMaintenanceEntry(query_key, entry);
  }
  Status s = RunStep(route.strategy, route, aq, eo, bounds, entry.get(),
                     &inputs, query_key, resp);
  if (route.fallback && s.code() == StatusCode::kInfeasible) {
    s = RunStep(*route.fallback, route, aq, eo, bounds, entry.get(), &inputs,
                query_key, resp);
  }
  return s;
}

Result<core::CardinalityBounds> Engine::PrepareMaintained(
    const paql::AnalyzedQuery& aq, MaintenanceEntry* entry) {
  if (entry->generation != catalog_generation_) {
    // Any non-append mutation since the state was built: rebuild from
    // scratch (appends leave the generation alone on purpose).
    entry->state = core::SketchRefineState();
    entry->generation = catalog_generation_;
  }
  return core::PrepareQuery(aq, &entry->state.inputs);
}

Status Engine::RunStep(core::Strategy step, const core::QueryRoute& route,
                       const paql::AnalyzedQuery& aq,
                       const core::EvaluationOptions& eo,
                       const core::CardinalityBounds& bounds,
                       MaintenanceEntry* entry, core::QueryInputs* inputs,
                       const std::string& query_key, QueryResponse* resp) {
  resp->strategy = step;
  if (step == core::Strategy::kSketchRefine) {
    return RunSketchRefinePath(aq, eo, entry, resp);
  }
  core::EvaluationResult r;
  if (step == core::Strategy::kIlpSolver) {
    // The translation copies what it needs out of the inputs, so a
    // maintained entry is locked only while it is built, not for the solve.
    Result<core::IlpTranslation> translation =
        [&]() -> Result<core::IlpTranslation> {
      if (entry == nullptr) return core::TranslateToIlp(aq, inputs, bounds);
      MutexLock lock(&entry->mu);
      return core::TranslateToIlp(aq, &entry->state.inputs, bounds);
    }();
    PB_RETURN_IF_ERROR(translation.status());
    PB_ASSIGN_OR_RETURN(r, RunIlpPath(aq, eo, *translation, query_key, resp));
  } else {
    // Rule 4 routes a maintained query to pruning, SketchRefine or the
    // solver, so the search strategies only ever run on `inputs`.
    PB_ASSIGN_OR_RETURN(r, core::RunStep(step, route, aq, eo, bounds, inputs));
  }
  resp->package = std::move(r.package);
  resp->objective = r.objective;
  resp->proven_optimal = r.proven_optimal;
  return Status::OK();
}

Status Engine::RunSketchRefinePath(const paql::AnalyzedQuery& aq,
                                   const core::EvaluationOptions& eo,
                                   MaintenanceEntry* entry,
                                   QueryResponse* resp) {
  core::SketchRefineOptions sro;
  sro.partition_size = options_.sketch_partition_size;
  sro.milp = eo.milp;

  Stopwatch maintenance_timer;
  Result<core::SketchRefineResult> r_or =
      [&]() -> Result<core::SketchRefineResult> {
    // SketchRefineState, like MilpWarmStart, is not thread-safe; the
    // entry mutex serializes the solves that share this query's state.
    // Evaluate prepared its inputs under the same catalog read lock, so no
    // rows are left to filter.
    MutexLock lock(&entry->mu);
    sro.state = &entry->state;
    return core::SketchRefine(aq, sro);
  }();
  PB_RETURN_IF_ERROR(r_or.status());
  const core::SketchRefineResult& r = *r_or;
  resp->cancelled = r.cancelled;
  resp->lp_iterations = r.lp_iterations;
  resp->dirty_groups = r.dirty_groups;
  resp->groups_reused = r.groups_reused;
  resp->warm_start_hit = r.state_reused;
  if (r.state_reused) {
    resp->maintenance_ms = maintenance_timer.ElapsedSeconds() * 1000.0;
  }
  if (!r.found) {
    if (r.cancelled) {
      return Status::ResourceExhausted(
          "query cancelled before a package was found");
    }
    // Backtracking exhausted, say: the approximation proves nothing.
    return Status::Infeasible("SketchRefine found no package");
  }
  resp->package = r.package;
  resp->objective = aq.has_objective ? r.objective : 0.0;
  resp->proven_optimal = false;
  return Status::OK();
}

Result<core::EvaluationResult> Engine::RunIlpPath(
    const paql::AnalyzedQuery& aq, const core::EvaluationOptions& eo,
    const core::IlpTranslation& translation, const std::string& query_key,
    QueryResponse* resp) {
  const uint64_t signature = translation.model.StructuralSignature();
  resp->model_signature = signature;

  std::shared_ptr<WarmEntry> entry = GetWarmEntry(signature);
  solver::MilpOptions milp = eo.milp;
  solver::MilpResult r;
  // Generation, table rows and query text determine the model.
  const std::string solved_query = std::to_string(catalog_generation_) +
                                   "\n" +
                                   std::to_string(aq.table->num_rows()) +
                                   "\n" + query_key;
  {
    // MilpWarmStart is not thread-safe; the entry mutex serializes the
    // solves that share this structural signature.
    MutexLock lock(&entry->mu);
    resp->warm_start_hit =
        entry->used && entry->warm.model_signature == signature;
    if (entry->solved_query == solved_query) {
      r = entry->solved;
    } else {
      milp.warm = &entry->warm;
      PB_ASSIGN_OR_RETURN(r, solver::SolveMilp(translation.model, milp));
      entry->used = true;
      if (r.status == solver::MilpStatus::kOptimal && !r.cancelled) {
        entry->solved_query = solved_query;
        entry->solved = r;
      }
    }
  }
  {
    MutexLock lock(&stats_mu_);
    ++(resp->warm_start_hit ? stats_.warm_cache_hits
                            : stats_.warm_cache_misses);
  }

  resp->cancelled = r.cancelled;
  resp->nodes = r.nodes;
  resp->lp_iterations = r.lp_iterations;
  return core::FinishIlpStep(aq, translation, r);
}

// --------------------------------------------------------- facade wrappers

Result<core::QueryPlan> Engine::Explain(const std::string& paql) {
  ReaderMutexLock catalog_lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(const paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  if (options_.incremental_maintenance &&
      core::SketchRefineEligible(aq, options_.defaults)) {
    // Its entry's inputs, extended in place as the query itself would; the
    // lookup leaves the entry's recency alone.
    const std::string key(StripAsciiWhitespace(paql));
    std::shared_ptr<MaintenanceEntry> entry;
    {
      MutexLock lock(&maint_mu_);
      if (const auto* kept = maint_cache_.Peek(key)) entry = *kept;
    }
    if (MaintenanceEntry* e = entry.get()) {
      MutexLock lock(&e->mu);
      PB_ASSIGN_OR_RETURN(const core::CardinalityBounds bounds,
                          PrepareMaintained(aq, e));
      return core::ExplainQuery(aq, &e->state.inputs, bounds,
                                options_.defaults, true);
    }
  }
  return core::ExplainQuery(aq, options_.defaults,
                            options_.incremental_maintenance);
}

Result<std::vector<core::Package>> Engine::Enumerate(const std::string& paql,
                                                     size_t k,
                                                     bool diverse) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  if (diverse) return core::EnumerateDiverse(aq, k);
  core::EnumerateOptions opts;
  opts.max_packages = k;
  opts.milp = options_.defaults.milp;
  return core::EnumeratePackages(aq, opts, options_.defaults.brute_force);
}

Status Engine::WritePackageCsv(const std::string& table,
                               const core::Package& package,
                               const std::string& path) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(const db::Table* base, catalog_.Get(table));
  PB_ASSIGN_OR_RETURN(const db::Table materialized,
                      core::MaterializePackage(*base, package, "package"));
  return db::WriteCsvFile(materialized, path);
}

Result<std::string> Engine::BaseTable(const std::string& paql) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  return aq.table->name();
}

Result<double> Engine::EvaluateObjective(const std::string& paql,
                                         const core::Package& package) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  return core::PackageObjective(aq, package);
}

EngineStats Engine::stats() const {
  EngineStats out;
  {
    MutexLock lock(&stats_mu_);
    out = stats_;
  }
  // Block-cache counters are process-wide (the cache is shared by every
  // engine in the process), snapshotted here so one stats() call tells the
  // whole storage story.
  const storage::BlockCacheStats bc = storage::BlockCache::Default()->stats();
  out.block_cache_hits = static_cast<int64_t>(bc.hits);
  out.block_cache_misses = static_cast<int64_t>(bc.misses);
  out.block_cache_evictions = static_cast<int64_t>(bc.evictions);
  out.block_cache_bytes = bc.bytes_cached;
  out.block_bytes_pinned = bc.bytes_pinned;
  out.block_peak_bytes_pinned = bc.peak_bytes_pinned;
  return out;
}

}  // namespace pb::engine
