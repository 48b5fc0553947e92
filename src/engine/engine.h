// pb::Engine — the re-entrant facade over the whole PackageBuilder stack.
//
// Every front end (the pbshell REPL, the pbserve network server, tests and
// benches) talks to one Engine instance instead of wiring Catalog +
// QueryEvaluator + solver options by hand. The Engine owns:
//
//   - the loaded catalog, guarded by a reader/writer lock so any number of
//     queries run concurrently while table loads are exclusive;
//   - admission: every ExecuteQuery call runs on its caller's thread, from
//     parse to answer, once it holds one of num_threads run slots; at most
//     max_pending_queries calls wait or run at once, and the rest are
//     refused as overload;
//   - a result cache keyed on (normalized query text, catalog generation):
//     repeating a query against an unchanged catalog returns the cached
//     package bit-identically with zero solver work;
//   - a warm-start cache keyed on LpModel::StructuralSignature(): distinct
//     queries that translate to structurally identical ILPs reuse root
//     bases and pseudocost history (MilpWarmStart) across solves, each
//     entry serialized by its own mutex so concurrent queries never share
//     mutable solver state.
//
// ExecuteQuery() is safe to call from any number of threads: the pbserve
// connection threads, pbshell and tests all call it directly. Budgets are
// cooperative: QueryBudget carries a wall-clock deadline, node caps, a
// storage budget, and a CancelToken polled inside the branch-and-bound
// loop, so a cancelled or over-deadline query returns a structured partial
// status — never a corrupted package.

#ifndef PB_ENGINE_ENGINE_H_
#define PB_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/budget.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "core/explain.h"
#include "core/package.h"
#include "core/sketch_refine.h"
#include "db/catalog.h"
#include "solver/milp.h"
#include "storage/block.h"
#include "storage/block_cache.h"

namespace pb::engine {

/// Per-query resource envelope. Zero / unset fields fall back to the
/// engine's defaults; every limit is a ceiling, never an extension.
struct QueryBudget {
  /// Wall-clock deadline for the WHOLE query (parse + solve). <= 0 means
  /// "use the engine default". The solver's own time limit is clamped to
  /// the time remaining when it starts.
  double time_limit_s = 0.0;
  /// Branch-and-bound node cap (0 = engine default).
  int64_t max_nodes = 0;
  /// Cooperative cancellation. Default-constructed tokens are inert; pass
  /// CancelToken::Create() (or use Engine::CancelSession) to make a query
  /// interruptible mid-solve.
  CancelToken cancel;
  /// Storage budget: bytes of block-cache data the query may hold pinned
  /// at once (bulk NumericColumnView pins; per-cell compatibility reads
  /// are never refused). 0 = count-only (track peak, never refuse).
  int64_t max_pinned_bytes = 0;
};

struct EngineOptions {
  /// Admitted ExecuteQuery calls that run at once (0 = hardware
  /// concurrency); later ones wait their turn and start in arrival order.
  int num_threads = 0;
  /// Result-cache capacity in entries (LRU beyond this).
  size_t result_cache_capacity = 64;
  /// Bounded admission: ExecuteQuery() answers ResourceExhausted, without
  /// running, when this many calls are already waiting or running — the
  /// server's overload backpressure.
  size_t max_pending_queries = 32;
  /// Render the package-template screen into QueryResponse::rendered on
  /// success (the pbshell view; servers leave it off and ship rows).
  bool render_packages = false;
  /// Baseline evaluation options; per-query budgets clamp these.
  core::EvaluationOptions defaults;

  // ----- Incremental maintenance (HTAP) ------------------------------------

  /// Route eligible ILP-translatable queries through SketchRefine with
  /// per-query maintained state, its inputs and its partition (see
  /// core::SketchRefineState and rule 4 of core::PlanQuery). With this on,
  /// AppendRows turns repeat queries into a pass over the appended rows
  /// plus dirty-group re-solves instead of from-scratch solves, and
  /// appended-but-compatible cached results are revalidated rather than
  /// invalidated. Off (the default) = the classic exact pipeline only.
  bool incremental_maintenance = false;
  /// Maintained partition states kept, one per distinct query text (LRU
  /// beyond this; at least one is kept).
  size_t maintenance_cache_capacity = 16;
  /// Partition size (tau) for the maintained SketchRefine path.
  size_t sketch_partition_size = 64;
};

/// Monotonic engine-wide counters (snapshot via Engine::stats()).
struct EngineStats {
  int64_t queries = 0;             ///< ExecuteQuery calls
  int64_t errors = 0;              ///< responses with !status.ok()
  int64_t cancelled = 0;           ///< responses with cancelled set
  int64_t result_cache_hits = 0;   ///< answered from the result cache
  int64_t warm_cache_hits = 0;     ///< solves that reused warm state
  int64_t warm_cache_misses = 0;   ///< solves that started cold
  int64_t overload_rejections = 0; ///< calls refused by admission
  // -- incremental maintenance (appends) -----------------------------------
  int64_t appends = 0;             ///< AppendRows calls that committed
  int64_t rows_appended = 0;       ///< rows committed by those calls
  /// Stale-by-append cached results re-answered through the maintained
  /// partition (dirty-group re-solve + sketch re-stitch).
  int64_t revalidations = 0;
  /// Appends that had to bump the catalog generation instead (spilled
  /// table: unspill + append + invalidate everything).
  int64_t maintenance_full_invalidations = 0;
  // -- block cache (process-wide storage::BlockCache::Default() snapshot) --
  int64_t block_cache_hits = 0;       ///< pins served from memory
  int64_t block_cache_misses = 0;     ///< pins that read the segment file
  int64_t block_cache_evictions = 0;  ///< blocks dropped to fit the budget
  int64_t block_cache_bytes = 0;      ///< bytes resident right now
  int64_t block_bytes_pinned = 0;     ///< bytes pinned right now
  int64_t block_peak_bytes_pinned = 0;  ///< high-water mark of pinned bytes
};

/// The structured answer to one ExecuteQuery call.
struct QueryResponse {
  Status status;            ///< typed error from the Status taxonomy
  /// True when the query stopped early on its CancelToken or deadline.
  /// status may still be OK (an incumbent package was already in hand,
  /// returned as-is with proven_optimal == false).
  bool cancelled = false;
  core::Package package;    ///< the answer (valid when status.ok())
  bool has_objective = false;  ///< the query has MAXIMIZE/MINIMIZE
  double objective = 0.0;   ///< objective value (0 without an objective)
  bool proven_optimal = false;
  /// The plan's strategy or its fallback, whichever answered; a result-cache
  /// hit reports the call that stored the entry.
  core::Strategy strategy = core::Strategy::kAuto;
  std::string table;        ///< base table the package indexes into
  std::string rendered;     ///< package-template screen (opt-in)
  // -- counters -----------------------------------------------------------
  bool result_cache_hit = false;
  bool warm_start_hit = false;      ///< solver reused prior warm state
  uint64_t model_signature = 0;     ///< LpModel::StructuralSignature()
  int64_t nodes = 0;                ///< branch-and-bound nodes solved
  int64_t lp_iterations = 0;        ///< simplex iterations
  size_t num_candidates = 0;        ///< rows surviving the WHERE clause
  /// Blocks this call skipped by answering pruning's weight bounds from
  /// zone-map metadata instead of a value scan (deterministic per query,
  /// table and call history). A maintained query's extension reads the
  /// appended rows' weights, so it skips none.
  int64_t zone_map_skipped_blocks = 0;
  // -- incremental maintenance (populated on the SketchRefine path) -------
  /// A stale-by-append cached result was refreshed through the maintained
  /// partition instead of being recomputed from scratch.
  bool revalidated = false;
  /// Refined groups re-solved this call (membership or residual changed).
  int64_t dirty_groups = 0;
  /// Refined groups answered from cached sub-solutions, zero solver work.
  int64_t groups_reused = 0;
  /// Wall time of partition maintenance + dirty-group re-solve, when the
  /// maintained partition was reused (0 on a cold build).
  double maintenance_ms = 0.0;
  /// Rows in the base table when this response was computed — the
  /// freshness key the result cache checks at hit time (appends do not
  /// bump the catalog generation).
  size_t table_rows = 0;
  /// High-water mark of block-cache bytes this query held pinned (0 for
  /// queries over fully resident tables).
  int64_t storage_peak_pinned_bytes = 0;
  // -- timings ------------------------------------------------------------
  double parse_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;

  bool ok() const { return status.ok(); }
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- catalog management (exclusive; waits for in-flight queries) --------
  Status RegisterTable(db::Table table);
  void RegisterOrReplaceTable(db::Table table);
  Status DropTable(const std::string& name);
  /// Loads a CSV file into the catalog; returns the row count.
  Result<size_t> LoadCsv(const std::string& path, const std::string& name);
  /// Generates a synthetic dataset (kind: recipes|travel|stocks|lineitem)
  /// and registers it under the kind's name; returns the row count.
  Result<size_t> GenerateDataset(const std::string& kind, size_t n,
                                 uint64_t seed);
  std::vector<std::string> TableNames() const;
  struct TableInfo {
    std::string name;
    size_t rows = 0;
    size_t columns = 0;
  };
  std::vector<TableInfo> Tables() const;
  /// Human-readable preview of a table (Table::ToString).
  Result<std::string> RenderTable(const std::string& name,
                                  size_t max_rows) const;
  /// Spills a registered table's numeric columns to a zone-mapped segment
  /// file (exclusive; waits for in-flight queries). Queries afterwards read
  /// blocks through the process block cache instead of resident vectors —
  /// results are bit-identical, memory is bounded by the cache budget. The
  /// segment file lives next to `dir` (defaults to the system temp dir) and
  /// is unlinked when the table is dropped or the engine shuts down. A
  /// block size outside [1, 2^20] rows is InvalidArgument.
  Status SpillTable(const std::string& name, const std::string& dir = "",
                    size_t block_size = storage::kDefaultBlockSize);

  /// What one AppendRows call did (see below).
  struct AppendOutcome {
    size_t rows = 0;        ///< rows committed by this call
    size_t table_rows = 0;  ///< table size after the append
    /// The table was spilled: it was read back into RAM, grown, and the
    /// catalog generation bumped — every cached result and maintained
    /// partition over it starts over. False = the incremental path: no
    /// generation bump, cached results revalidate at hit time and
    /// maintained partitions absorb the new rows as dirty-group work.
    bool full_invalidation = false;
  };

  /// Appends a batch of rows to a registered table (exclusive; waits for
  /// in-flight queries). All-or-nothing: rows are validated against the
  /// schema before any is committed. Resident tables grow in place without
  /// invalidating caches; spilled tables fall back to unspill + append +
  /// full invalidation (see AppendOutcome::full_invalidation).
  Result<AppendOutcome> AppendRows(const std::string& table,
                                   std::vector<db::Tuple> rows);

  // -- sessions -----------------------------------------------------------
  /// Opens a session and returns its id (ids are never reused). Sessions
  /// exist so another connection can cancel a query in flight; passing
  /// session id 0 to ExecuteQuery runs anonymously.
  uint64_t OpenSession();
  Status CloseSession(uint64_t session);
  /// Requests cancellation of `session`'s in-flight query (no-op when the
  /// session is idle). The query observes the request at its next
  /// branch-and-bound node and returns a partial response.
  Status CancelSession(uint64_t session);

  // -- queries ------------------------------------------------------------
  /// Parses, plans (core::PlanQuery), and evaluates one PaQL query under
  /// the budget, on the calling thread. Re-entrant: any number of threads
  /// may call this concurrently. A call first takes its admission slot
  /// (see EngineOptions::max_pending_queries and num_threads); a refused
  /// call is ResourceExhausted and counts only in overload_rejections.
  QueryResponse ExecuteQuery(uint64_t session, const std::string& paql,
                             const QueryBudget& budget = {});

  /// Plans a query without executing it (EXPLAIN): the route ExecuteQuery
  /// takes, fallback included. A maintained query's cached entry is read
  /// and extended in place, never added, dropped or reordered.
  Result<core::QueryPlan> Explain(const std::string& paql);

  /// Enumerates up to `k` packages, best first; `diverse` trades objective
  /// quality for pairwise Jaccard distance.
  Result<std::vector<core::Package>> Enumerate(const std::string& paql,
                                               size_t k, bool diverse) const;

  /// Materializes `package` against `table` and writes it as CSV.
  Status WritePackageCsv(const std::string& table,
                         const core::Package& package,
                         const std::string& path) const;

  /// The base table a query reads from (parse + bind only).
  Result<std::string> BaseTable(const std::string& paql) const;

  /// Objective value of `package` under `paql`'s MAXIMIZE/MINIMIZE clause
  /// (0 when the query has none).
  Result<double> EvaluateObjective(const std::string& paql,
                                   const core::Package& package) const;

  // -- introspection ------------------------------------------------------
  EngineStats stats() const;
  int num_threads() const { return num_threads_; }

 private:
  struct Session {
    Mutex mu;
    /// Token of the in-flight query (inert when idle).
    CancelToken active PB_GUARDED_BY(mu);
  };
  /// One warm-start cache slot. The entry mutex serializes solves that
  /// share the signature — MilpWarmStart is not thread-safe.
  struct WarmEntry {
    Mutex mu;
    solver::MilpWarmStart warm PB_GUARDED_BY(mu);
    /// A solve has completed against this entry.
    bool used PB_GUARDED_BY(mu) = false;
    /// The last proven-optimal solve through this entry, and the query it
    /// answered (catalog generation, table rows, normalized text). Copies
    /// of one query that race past the result cache solve here in turn,
    /// each warm-started by the one before; where several packages tie at
    /// the optimum, a warm re-solve may end on another of them. Replaying
    /// this result to an identical query keeps the copies identical.
    std::string solved_query PB_GUARDED_BY(mu);
    solver::MilpResult solved PB_GUARDED_BY(mu);
  };
  /// One maintained query's state (its inputs and its partition), keyed
  /// on normalized query text. The entry mutex serializes the refreshes,
  /// translations and solves that share the state (SketchRefineState, like
  /// MilpWarmStart, is not thread-safe). The state is valid only while
  /// `generation` matches the catalog: appends leave the generation alone
  /// (the state absorbs them incrementally); any other mutation bumps it
  /// and the state rebuilds on next use.
  struct MaintenanceEntry {
    Mutex mu;
    uint64_t generation PB_GUARDED_BY(mu) = 0;
    core::SketchRefineState state PB_GUARDED_BY(mu);
  };

  /// Admits a call: false when max_pending_queries calls are already
  /// admitted, otherwise true once fewer than num_threads earlier admitted
  /// calls are unfinished.
  bool Admit() PB_EXCLUDES(admit_mu_);
  /// Ends an admitted call, letting the next one start.
  void Leave() PB_EXCLUDES(admit_mu_);
  /// The synchronous query pipeline body (takes the catalog read lock).
  QueryResponse Run(const std::string& paql, const QueryBudget& budget,
                    const CancelToken& token) PB_EXCLUDES(catalog_mu_);
  /// core::PrepareQuery, core::PlanQuery, then the plan's strategy and its
  /// fallback when it ends kInfeasible. A query rule 4 can maintain
  /// prepares its state's inputs, cached once the plan is SketchRefine.
  Status Evaluate(const paql::AnalyzedQuery& aq,
                  const core::EvaluationOptions& eo,
                  const std::string& query_key, QueryResponse* resp)
      PB_REQUIRES_SHARED(catalog_mu_);
  /// core::PrepareQuery over `entry`'s inputs, the whole state started over
  /// first if the catalog's generation moved.
  Result<core::CardinalityBounds> PrepareMaintained(
      const paql::AnalyzedQuery& aq, MaintenanceEntry* entry)
      PB_REQUIRES_SHARED(catalog_mu_) PB_REQUIRES(entry->mu);
  /// Runs one step of `route` (see core::RunStep) into `resp` over the
  /// inputs of `entry` when set, else `inputs`.
  Status RunStep(core::Strategy step, const core::QueryRoute& route,
                 const paql::AnalyzedQuery& aq,
                 const core::EvaluationOptions& eo,
                 const core::CardinalityBounds& bounds,
                 MaintenanceEntry* entry, core::QueryInputs* inputs,
                 const std::string& query_key, QueryResponse* resp)
      PB_REQUIRES_SHARED(catalog_mu_);
  /// Solves `translation` through the warm-start cache and solved memo.
  Result<core::EvaluationResult> RunIlpPath(
      const paql::AnalyzedQuery& aq, const core::EvaluationOptions& eo,
      const core::IlpTranslation& translation, const std::string& query_key,
      QueryResponse* resp) PB_REQUIRES_SHARED(catalog_mu_);
  /// Maintained SketchRefine route (incremental_maintenance on): solves
  /// through `entry`'s state so repeat queries after appends re-solve only
  /// dirty groups. kInfeasible when it comes back empty-handed
  /// un-cancelled, which proves nothing.
  Status RunSketchRefinePath(const paql::AnalyzedQuery& aq,
                             const core::EvaluationOptions& eo,
                             MaintenanceEntry* entry, QueryResponse* resp)
      PB_REQUIRES_SHARED(catalog_mu_);

  std::shared_ptr<Session> FindSession(uint64_t id);
  std::shared_ptr<WarmEntry> GetWarmEntry(uint64_t signature);
  /// The cached entry under `query_key`, now the most recently used;
  /// null when there is none.
  std::shared_ptr<MaintenanceEntry> FindMaintenanceEntry(
      const std::string& query_key);
  /// Caches `entry` under `query_key` unless a concurrent call cached one
  /// first; this call keeps using its own either way.
  void KeepMaintenanceEntry(const std::string& query_key,
                            std::shared_ptr<MaintenanceEntry> entry);
  bool LookupResultCache(const std::string& key, QueryResponse* out);
  void StoreResultCache(const std::string& key, const QueryResponse& resp);

  EngineOptions options_;
  int num_threads_ = 1;

  // Lock hierarchy (outermost first): catalog_mu_ → {admit_mu_,
  // sessions_mu_ → Session::mu, result_mu_, warm_mu_, WarmEntry::mu,
  // maint_mu_, MaintenanceEntry::mu, stats_mu_}. The leaf mutexes are
  // never held together, except that CloseSession takes a Session::mu
  // under sessions_mu_; see docs/adr/0003-concurrency-invariants.md.
  mutable SharedMutex catalog_mu_;
  db::Catalog catalog_ PB_GUARDED_BY(catalog_mu_);
  /// Bumped on every mutation.
  uint64_t catalog_generation_ PB_GUARDED_BY(catalog_mu_) = 0;

  // Admission tickets, handed out in arrival order: ticket t runs once
  // t < finished_ + num_threads_, and next_ticket_ - finished_ calls are
  // admitted (waiting or running).
  Mutex admit_mu_;
  CondVar admit_cv_;
  uint64_t next_ticket_ PB_GUARDED_BY(admit_mu_) = 0;
  uint64_t finished_ PB_GUARDED_BY(admit_mu_) = 0;

  Mutex sessions_mu_;
  uint64_t next_session_ PB_GUARDED_BY(sessions_mu_) = 1;
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_
      PB_GUARDED_BY(sessions_mu_);

  // Eviction drops only a cache's shared_ptr; in-flight solves keep theirs.
  Mutex result_mu_;
  LruCache<std::string, QueryResponse> result_cache_ PB_GUARDED_BY(result_mu_);

  Mutex warm_mu_;
  LruCache<uint64_t, std::shared_ptr<WarmEntry>> warm_cache_
      PB_GUARDED_BY(warm_mu_);

  Mutex maint_mu_;
  LruCache<std::string, std::shared_ptr<MaintenanceEntry>> maint_cache_
      PB_GUARDED_BY(maint_mu_);

  mutable Mutex stats_mu_;
  EngineStats stats_ PB_GUARDED_BY(stats_mu_);
};

}  // namespace pb::engine

#endif  // PB_ENGINE_ENGINE_H_
