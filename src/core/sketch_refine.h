// SketchRefine: scalable approximate package evaluation.
//
// The demo paper's Challenges section (§5) calls for principled scaling of
// package evaluation beyond what one monolithic ILP can handle; the
// follow-up PaQL paper (Brucato et al., VLDB 2016) answers with
// SketchRefine, implemented here as the engine's scalability extension:
//
//   Offline  PARTITION the candidate tuples into groups of at most tau
//            tuples that are similar on the attributes the query
//            aggregates; pick one representative per group. A fresh
//            partition is one group holding every candidate, split by the
//            same recursive median split that maintenance applies to a
//            group grown past 2 * tau (see below), with no zone index.
//   Sketch   Solve the package query over the representatives only, where
//            a representative may repeat up to its group's size — an ILP
//            with n/tau variables instead of n.
//   Refine   Replace each representative's multiplicity m_g with real
//            tuples from its group by solving a small ILP over the group's
//            members with all other groups pinned at their sketch
//            (representative) contributions. Those sub-ILPs depend only on
//            the sketch solution; they are solved one after another on the
//            calling thread, in decreasing sketch-multiplicity order, and
//            merge in that order. If the merged package drifts out of
//            feasibility (chosen members aggregate differently than their
//            representative), a repair pass rebuilds it greedily,
//            propagating actual residuals group by group; backtracking
//            excludes a group whose sub-ILP is infeasible and restarts from
//            the sketch. Every pass is deterministic as long as the
//            solver's stopping rule is (i.e. no sub-ILP hits
//            MilpOptions::time_limit_s mid-search — prefer node budgets
//            when exact reproducibility matters).
//
// The refine/repair sub-ILP sequence re-solves structurally identical
// models per group (the repair pass shifts only constraint ranges), so each
// group's solver warm-start state — root LP basis plus pseudocost branching
// history — is kept from the independent pass and re-seeded into that
// group's repair solve.
//
// The result is validated against the original query; approximation shows
// up only in the objective value, which the E6 bench compares to Direct.
//
// Incremental maintenance (HTAP): the query's inputs and its partition are
// reusable state, not per-call throwaways. A caller that keeps a
// SketchRefineState alive across calls (SketchRefineOptions::state) turns
// appends into maintenance work instead of a rebuild: only the appended
// rows are filtered and weighed, new candidates are routed to their
// nearest group (in the state's frozen feature normalization), groups that
// grow past twice tau split, and only "dirty" groups — those whose
// membership changed, or whose residual constraints moved — are re-solved,
// each from its saved per-group MilpWarmStart. A clean group whose
// residual repeats exactly reuses its cached sub-solution without any
// solver work. Because the solver is deterministic and warm starts never
// change results (pinned by test_warm_start), a maintained call is
// bit-identical to re-solving every group cold over the same partition;
// reuse only removes work, never changes answers.

#ifndef PB_CORE_SKETCH_REFINE_H_
#define PB_CORE_SKETCH_REFINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/package.h"
#include "core/pruning.h"
#include "solver/milp.h"

namespace pb::core {

/// Persistent state for one (query, table) pair, owned by the caller and
/// passed via SketchRefineOptions::state: the query's inputs and its
/// partition. SketchRefine reads it on entry and updates it on exit:
///
///   - PrepareQuery extends the inputs over the rows appended since;
///   - empty / incompatible partition -> a full partition build populates
///     it;
///   - compatible partition over a grown candidate set -> incremental
///     maintenance (route new candidates, split, re-solve only the
///     dirty groups).
///
/// Compatibility requires the same query over the same table with rows
/// only appended since the state was built (see QueryInputs). The caller
/// keeps that discipline (the Engine keys states on query text and drops
/// them on any non-append catalog mutation); SketchRefine only checks the
/// cheap invariants (QueryInputs::Fits, which starts the whole state over,
/// dimensionality, monotone growth).
///
/// NOT thread-safe: like MilpWarmStart, one state must not be shared by
/// concurrent calls.
struct SketchRefineState {
  struct Group {
    std::vector<size_t> members;  ///< candidate positions
    size_t rep = 0;               ///< representative (candidate position)
    /// Membership changed since the last successful solve (or the group
    /// was never solved): the representative must be recomputed and the
    /// cached sub-solution is gone.
    bool dirty = true;
    /// Per-group solver warm start (root basis + pseudocosts), reused
    /// across calls whenever this group's sub-ILP is re-solved.
    solver::MilpWarmStart warm;
    /// Cached refine sub-solution from the last successful call, valid
    /// while the group stays clean. Reused verbatim when the residual it
    /// was solved against repeats exactly (same model bit-for-bit, and the
    /// solver is deterministic — so reuse cannot change the answer).
    bool has_solution = false;
    std::vector<double> cached_others;
    solver::MilpResult cached_solution;
  };

  QueryInputs inputs;  ///< the query's; SketchRefine weighs them

  // ----- The partition -----------------------------------------------------

  /// Candidates covered by `groups` (positions [0, n_candidates) of
  /// `inputs.candidates`).
  size_t n_candidates = 0;
  /// Frozen per-dimension normalization captured at build time, one entry
  /// per feature dimension. Routing and centroid geometry must live in the
  /// space the partition was built in, so the affine map is state —
  /// appended values are mapped with it, not re-normalized. Features are
  /// normalized where they are read, never stored.
  std::vector<double> feat_lo;
  std::vector<double> feat_span;
  std::vector<Group> groups;
  /// Sketch-phase warm start (survives across calls; the signature check
  /// resets it automatically when the group count changes).
  solver::MilpWarmStart sketch_warm;

  /// Drops every cached sub-solution and warm start while keeping the
  /// partition itself — the "cold re-solve over the same partition"
  /// baseline the incremental path is benchmarked (and bit-compared)
  /// against: with no cached sub-solution, every refined group re-solves.
  void InvalidateSolutions() {
    for (Group& g : groups) {
      g.warm = solver::MilpWarmStart();
      g.has_solution = false;
      g.cached_others.clear();
      g.cached_solution = solver::MilpResult();
    }
    sketch_warm = solver::MilpWarmStart();
  }
};

struct SketchRefineOptions {
  /// Maximum tuples per partition (tau). Smaller = finer approximation,
  /// larger sketch model.
  size_t partition_size = 64;
  /// Cancellation and deadlines ride in `milp`: milp.cancel is polled
  /// between every phase and sub-solve here (and inside each solve's own
  /// tree search), and milp.time_limit_s bounds the WHOLE SketchRefine
  /// call — each sub-solve's limit is clamped to the time remaining, so
  /// the pipeline cannot overshoot the budget by a factor of its solve
  /// count. A cancelled or out-of-time call returns found == false with
  /// whatever phase counters were already earned; it never returns a
  /// partially merged package.
  solver::MilpOptions milp;

  // ----- Incremental maintenance (HTAP) ------------------------------------

  /// Optional cross-call state (borrowed, in/out); see SketchRefineState.
  /// Null = the classic one-shot pipeline, over a state of its own that is
  /// dropped on return. A stateful call filters and weighs only the rows
  /// appended since the last one (PrepareQuery; a call after the caller
  /// prepared the inputs finds nothing left to do). A maintained group
  /// larger than 2 * partition_size re-splits into tau-bounded parts.
  SketchRefineState* state = nullptr;
};

struct SketchRefineResult {
  bool found = false;
  Package package;
  double objective = 0.0;
  size_t num_partitions = 0;
  size_t sketch_variables = 0;
  /// True when the run stopped early because milp.cancel requested it or
  /// the milp.time_limit_s whole-call budget ran out (found is then false).
  bool cancelled = false;
  /// Repair passes taken after the independent refine drifted out of
  /// feasibility (0 when the independent solves merged cleanly).
  int repair_passes = 0;
  int64_t refine_ilps_solved = 0;
  /// Total simplex iterations across every MILP solved (sketch, refine,
  /// repair) — the substrate-cost metric the warm-start benchmarks compare.
  int64_t lp_iterations = 0;
  /// Subset of lp_iterations spent in dual-simplex child re-solves.
  int64_t lp_dual_iterations = 0;
  /// Basis refactorizations across every MILP solved — the factorization-
  /// layer cost metric the engine benchmarks gate alongside iterations.
  int64_t lp_refactorizations = 0;
  double sketch_seconds = 0.0;
  double refine_seconds = 0.0;
  // ----- Incremental maintenance counters (0 without options.state) -------
  /// The partition came from options.state (incremental maintenance ran
  /// instead of a full build).
  bool state_reused = false;
  /// Appended candidates routed, each into the group with the nearest
  /// representative.
  int64_t appended_routed = 0;
  /// Refined groups re-solved this call (dirty membership, moved residual,
  /// or no cached sub-solution).
  int64_t dirty_groups = 0;
  /// Refined groups answered from the state's cached sub-solutions with
  /// zero solver work.
  int64_t groups_reused = 0;
  int64_t groups_split = 0;  ///< maintained groups re-split (over threshold)
};

/// Offline partitioning, exposed for reuse across queries on the same
/// table (the 2016 paper's "offline" phase), over `n` candidates:
/// feature_cols[d] is one contiguous span of dimension d (length n).
/// Groups have at most `partition_size` members: a recursive median split
/// cuts each larger range at the median of its widest-spread dimension,
/// and positionally when every dimension is constant over it.
std::vector<std::vector<size_t>> PartitionCandidatesColumnar(
    const std::vector<std::vector<double>>& feature_cols, size_t n,
    size_t partition_size);

/// Runs Sketch + Refine for an ILP-translatable query.
Result<SketchRefineResult> SketchRefine(
    const paql::AnalyzedQuery& aq, const SketchRefineOptions& options = {});

}  // namespace pb::core

#endif  // PB_CORE_SKETCH_REFINE_H_
