#include "core/sketch_refine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/budget.h"
#include "common/stopwatch.h"
#include "core/pruning.h"
#include "db/ops.h"

namespace pb::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Groups whose refine sub-ILP fails may be excluded from the sketch this
/// many times before SketchRefine gives up.
constexpr int kMaxBacktracks = 4;

/// One linear requirement over candidate positions (query constraints plus
/// the synthetic non-empty row); its weights come from QueryWeights::Row.
struct RowBounds {
  double lo = -kInf;
  double hi = kInf;
  std::string name;
};

/// The candidates' weights as SketchRefine reads them, from the state's
/// cached columns. Row r < #linear constraints is that constraint's
/// combined weight, the next row (when the query requires a non-empty
/// package) weighs 1, and the objective weight follows.
class QueryWeights {
 public:
  QueryWeights(const paql::AnalyzedQuery& aq, const SketchRefineState& state)
      : aq_(aq), state_(state) {}

  size_t num_rows() const {
    return aq_.linear_constraints.size() + (aq_.requires_nonempty ? 1 : 0);
  }
  /// Feature dimensions: every row, then the objective.
  size_t dims() const { return num_rows() + (aq_.has_objective ? 1 : 0); }

  double Row(size_t r, size_t i) const {
    if (r == aq_.linear_constraints.size()) return 1.0;  // the non-empty row
    return state_.weights[r][i];
  }
  double Objective(size_t i) const {
    if (!aq_.has_objective) return 0.0;
    return state_.weights[aq_.linear_constraints.size()][i];
  }
  double Feature(size_t d, size_t i) const {
    return d < num_rows() ? Row(d, i) : Objective(i);
  }

 private:
  const paql::AnalyzedQuery& aq_;
  const SketchRefineState& state_;
};

/// Feature d of candidate i in the state's frozen normalization, computed
/// where it is read: the same (v - lo) / span the full build applies to a
/// whole column.
class FeatureSpace {
 public:
  FeatureSpace(const QueryWeights& w, const SketchRefineState& state)
      : w_(w), state_(state) {}

  size_t dims() const { return state_.dims; }
  double operator()(size_t d, size_t i) const {
    const double span = state_.feat_span[d];
    return span > 0 ? (w_.Feature(d, i) - state_.feat_lo[d]) / span : 0.0;
  }

 private:
  const QueryWeights& w_;
  const SketchRefineState& state_;
};

/// Appends `count` values to `v`, growing its capacity by an eighth
/// instead of doubling it: the cached inputs live as long as their state,
/// so the slack is memory held for good.
template <typename T>
void AppendTight(std::vector<T>& v, const T* values, size_t count) {
  if (v.size() + count > v.capacity()) {
    v.reserve(v.size() + count + v.size() / 8);
  }
  v.insert(v.end(), values, values + count);
}

/// Zone granularity of the partitioner's spread index. Independent of the
/// table's storage block size: the index lives over candidate positions
/// (post-filter, post-normalization), not table rows.
constexpr size_t kSpreadBlock = 4096;

/// Per-block min/max over every feature column, built once per partition
/// call. Identity-ordered ranges answer their spread scans from this index
/// block-at-a-time instead of re-reading the values.
struct SpreadIndex {
  size_t n = 0;
  std::vector<std::vector<double>> mins;  // mins[d][b]
  std::vector<std::vector<double>> maxs;
  int64_t skipped_blocks = 0;

  static SpreadIndex Build(const std::vector<std::vector<double>>& cols,
                           size_t n) {
    SpreadIndex idx;
    idx.n = n;
    const size_t blocks = (n + kSpreadBlock - 1) / kSpreadBlock;
    idx.mins.resize(cols.size());
    idx.maxs.resize(cols.size());
    for (size_t d = 0; d < cols.size(); ++d) {
      idx.mins[d].resize(blocks);
      idx.maxs[d].resize(blocks);
      const double* f = cols[d].data();
      for (size_t b = 0; b < blocks; ++b) {
        const size_t lo = b * kSpreadBlock;
        const size_t hi = std::min(n, lo + kSpreadBlock);
        double mn = kInf, mx = -kInf;
        for (size_t i = lo; i < hi; ++i) {
          mn = std::min(mn, f[i]);
          mx = std::max(mx, f[i]);
        }
        idx.mins[d][b] = mn;
        idx.maxs[d][b] = mx;
      }
    }
    return idx;
  }

  /// Spread bounds of dimension d over the contiguous candidate range
  /// [begin, end): zone entries for fully covered blocks, value scans for
  /// the ragged edges.
  std::pair<double, double> MinMax(size_t d, const double* f, size_t begin,
                                   size_t end) {
    double mn = kInf, mx = -kInf;
    size_t i = begin;
    while (i < end) {
      const size_t b = i / kSpreadBlock;
      const size_t block_lo = b * kSpreadBlock;
      const size_t block_hi = std::min(n, block_lo + kSpreadBlock);
      if (i == block_lo && block_hi <= end) {
        mn = std::min(mn, mins[d][b]);
        mx = std::max(mx, maxs[d][b]);
        ++skipped_blocks;
        i = block_hi;
      } else {
        const size_t stop = std::min(end, block_hi);
        for (; i < stop; ++i) {
          mn = std::min(mn, f[i]);
          mx = std::max(mx, f[i]);
        }
      }
    }
    return {mn, mx};
  }
};

/// Recursive median split over one index range [begin, end) of `order`.
/// `feature_cols` is column-major: feature_cols[d][i] is dimension d of
/// candidate i, so each spread scan and the split comparator walk one
/// contiguous span. `aligned` records that order[i] == i throughout the
/// range (true at the top level and preserved by positional splits, lost
/// after an nth_element); aligned ranges take their spread bounds from the
/// zone index.
void SplitRange(const std::vector<std::vector<double>>& feature_cols,
                std::vector<size_t>& order, size_t begin, size_t end,
                size_t partition_size, bool aligned, SpreadIndex* index,
                std::vector<std::vector<size_t>>* groups) {
  size_t count = end - begin;
  if (count <= partition_size) {
    groups->emplace_back(order.begin() + begin, order.begin() + end);
    return;
  }
  // Pick the dimension with the largest spread inside this range.
  size_t dims = feature_cols.size();
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dims; ++d) {
    const double* f = feature_cols[d].data();
    double mn = kInf, mx = -kInf;
    if (aligned) {
      std::tie(mn, mx) = index->MinMax(d, f, begin, end);
    } else {
      for (size_t i = begin; i < end; ++i) {
        double v = f[order[i]];
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
    }
    if (mx - mn > best_spread) {
      best_spread = mx - mn;
      best_dim = d;
    }
  }
  size_t mid = begin + count / 2;
  if (best_spread <= 0.0 || dims == 0) {
    // All-identical features: split positionally (alignment survives).
    SplitRange(feature_cols, order, begin, mid, partition_size, aligned,
               index, groups);
    SplitRange(feature_cols, order, mid, end, partition_size, aligned, index,
               groups);
    return;
  }
  const double* f = feature_cols[best_dim].data();
  std::nth_element(order.begin() + begin, order.begin() + mid,
                   order.begin() + end,
                   [f](size_t a, size_t b) { return f[a] < f[b]; });
  SplitRange(feature_cols, order, begin, mid, partition_size, /*aligned=*/false,
             index, groups);
  SplitRange(feature_cols, order, mid, end, partition_size, /*aligned=*/false,
             index, groups);
}

/// The member closest to the group's feature centroid (L2, ties to the
/// earliest member), where f(d, i) is normalized feature d of candidate i.
/// The same rule serves the full build (over its normalized columns) and
/// the per-dirty-group recompute of the maintained path (over a
/// FeatureSpace, the same values), so both produce identical
/// representatives for identical memberships.
template <typename Features>
size_t ComputeRep(const std::vector<size_t>& members, size_t dims,
                  const Features& f) {
  std::vector<double> centroid(dims, 0.0);
  for (size_t d = 0; d < dims; ++d) {
    for (size_t i : members) centroid[d] += f(d, i);
  }
  for (double& c : centroid) c /= static_cast<double>(members.size());
  size_t rep = members[0];
  double best = kInf;
  for (size_t m = 0; m < members.size(); ++m) {
    double dist = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      double delta = f(d, members[m]) - centroid[d];
      dist += delta * delta;
    }
    if (dist < best) {
      best = dist;
      rep = members[m];
    }
  }
  return rep;
}

/// Incremental partition maintenance over a compatible state: route each
/// appended candidate [state->n_candidates, n) into the group with the
/// nearest representative, split groups past the size threshold, and
/// recompute representatives for every dirty group. Everything here is
/// deterministic (ties break to the lowest group index), so two states fed
/// the same appends maintain the same partition and solve alike.
void MaintainPartition(SketchRefineState* state, const FeatureSpace& f,
                       size_t n, const SketchRefineOptions& options,
                       SketchRefineResult* out) {
  const size_t dims = f.dims();
  auto mark_dirty = [](SketchRefineState::Group& g) {
    g.dirty = true;
    g.has_solution = false;
    g.cached_others.clear();
    g.cached_solution = solver::MilpResult();
  };

  // ---- Route appended candidates to the nearest representative.
  std::vector<double> point(dims);
  for (size_t p = state->n_candidates; p < n; ++p) {
    for (size_t d = 0; d < dims; ++d) point[d] = f(d, p);
    size_t best_g = 0;
    double best_d2 = kInf;
    for (size_t g = 0; g < state->groups.size(); ++g) {
      double d2 = 0.0;
      const size_t rep = state->groups[g].rep;
      for (size_t d = 0; d < dims; ++d) {
        double delta = point[d] - f(d, rep);
        d2 += delta * delta;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best_g = g;
      }
    }
    state->groups[best_g].members.push_back(p);
    mark_dirty(state->groups[best_g]);
    ++out->appended_routed;
  }

  // ---- Split groups that drifted past twice tau back into tau-bounded
  // parts (same recursive median split as the full build, scoped to the
  // group's members). Routing alone never re-partitions, so the threshold
  // bounds how far a hot group can drift from tau before it is split
  // back. The first part replaces the group in place; the rest append, so
  // untouched group indices never shift.
  const size_t split_threshold = 2 * options.partition_size;
  const size_t original_groups = state->groups.size();
  for (size_t gi = 0; gi < original_groups; ++gi) {
    if (state->groups[gi].members.size() <= split_threshold) continue;
    const std::vector<size_t> members = std::move(state->groups[gi].members);
    std::vector<std::vector<double>> local(
        dims, std::vector<double>(members.size()));
    for (size_t d = 0; d < dims; ++d) {
      for (size_t m = 0; m < members.size(); ++m) {
        local[d][m] = f(d, members[m]);
      }
    }
    std::vector<std::vector<size_t>> parts = PartitionCandidatesColumnar(
        local, members.size(), options.partition_size);
    for (size_t pi = 0; pi < parts.size(); ++pi) {
      std::vector<size_t> part;
      part.reserve(parts[pi].size());
      for (size_t local_idx : parts[pi]) part.push_back(members[local_idx]);
      if (pi == 0) {
        state->groups[gi].members = std::move(part);
        mark_dirty(state->groups[gi]);
      } else {
        SketchRefineState::Group fresh;
        fresh.members = std::move(part);
        mark_dirty(fresh);
        state->groups.push_back(std::move(fresh));
      }
    }
    ++out->groups_split;
  }

  // ---- Dirty groups get fresh representatives; clean ones keep theirs
  // (same membership => ComputeRep would return the same answer anyway).
  for (SketchRefineState::Group& g : state->groups) {
    if (g.dirty) g.rep = ComputeRep(g.members, dims, f);
  }
  state->n_candidates = n;
}

}  // namespace

std::vector<std::vector<size_t>> PartitionCandidatesColumnar(
    const std::vector<std::vector<double>>& feature_cols, size_t n,
    size_t partition_size, int64_t* zone_map_skipped_blocks) {
  std::vector<std::vector<size_t>> groups;
  if (n == 0) return groups;
  partition_size = std::max<size_t>(partition_size, 1);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  SpreadIndex index = SpreadIndex::Build(feature_cols, n);
  SplitRange(feature_cols, order, 0, order.size(), partition_size,
             /*aligned=*/true, &index, &groups);
  if (zone_map_skipped_blocks != nullptr) {
    *zone_map_skipped_blocks += index.skipped_blocks;
  }
  return groups;
}

Result<CardinalityBounds> RefreshCandidates(const paql::AnalyzedQuery& aq,
                                            SketchRefineState* state) {
  const size_t num_rows = aq.table->num_rows();
  const size_t linear = aq.linear_constraints.size();
  const size_t columns = linear + (aq.has_objective ? 1 : 0);
  if (state->rows_scanned > num_rows ||
      (state->rows_scanned > 0 && (state->weights.size() != columns ||
                                   state->ranges.size() != linear))) {
    // A table that shrank was replaced, and other column counts are
    // another query: nothing cached describes this one.
    *state = SketchRefineState();
  }
  if (state->rows_scanned == 0) {
    state->candidates.clear();
    state->weights.assign(columns, {});
    state->ranges.assign(linear, WeightRange());
  }

  if (state->rows_scanned == num_rows) {
    return BoundsFromWeightRanges(aq, state->ranges, state->candidates.size());
  }
  // The new rows are filtered and weighed aside and appended only once
  // every step succeeded, so an error appends nothing.
  PB_ASSIGN_OR_RETURN(
      const std::vector<size_t> fresh,
      db::FilterIndices(*aq.table, aq.query.where, state->rows_scanned));
  if (!fresh.empty()) {
    const size_t m = fresh.size();
    std::vector<std::vector<double>> agg_w(aq.aggs.size());
    for (size_t a = 0; a < aq.aggs.size(); ++a) {
      PB_ASSIGN_OR_RETURN(agg_w[a],
                          ComputeAggWeights(aq.aggs[a], *aq.table, fresh));
    }
    // The combined weights, summed term by term from 0.0 as a fresh pass
    // sums them (the translator's and SketchRefine's rows, pruning's
    // multi-term ranges).
    auto combine = [&](const std::vector<paql::LinearAggTerm>& terms) {
      std::vector<double> w(m, 0.0);
      for (size_t i = 0; i < m; ++i) {
        for (const paql::LinearAggTerm& t : terms) {
          w[i] += t.coeff * agg_w[t.agg_index][i];
        }
      }
      return w;
    };
    for (size_t c = 0; c < linear; ++c) {
      const std::vector<double> w = combine(aq.linear_constraints[c].terms);
      for (double v : w) state->ranges[c].Add(v);
      AppendTight(state->weights[c], w.data(), m);
    }
    if (aq.has_objective) {
      const std::vector<double> w = combine(aq.objective_terms);
      AppendTight(state->weights[linear], w.data(), m);
    }
    AppendTight(state->candidates, fresh.data(), m);
  }
  state->rows_scanned = num_rows;
  return BoundsFromWeightRanges(aq, state->ranges, state->candidates.size());
}

Result<SketchRefineResult> SketchRefine(const paql::AnalyzedQuery& aq,
                                        const SketchRefineOptions& options) {
  if (!aq.TranslatesToIlp()) {
    return Status::Unimplemented(
        "SketchRefine requires an ILP-translatable query");
  }
  if (!aq.extreme_constraints.empty()) {
    return Status::Unimplemented(
        "SketchRefine does not support MIN/MAX global constraints "
        "(representatives do not preserve extremes)");
  }

  SketchRefineResult out;
  Stopwatch phase_timer;
  // Interruption plumbing: milp.cancel is polled between phases and
  // sub-solves (each solve also polls it per node), and milp.time_limit_s
  // bounds the WHOLE call — every sub-solve's own limit is clamped to the
  // time remaining so the pipeline never overshoots by its solve count.
  const CancelToken cancel = options.milp.cancel;
  const Deadline deadline = Deadline::AfterSeconds(options.milp.time_limit_s);
  auto interrupted = [&] {
    return cancel.cancel_requested() || deadline.expired();
  };
  auto budgeted_milp = [&] {
    solver::MilpOptions m = options.milp;
    m.time_limit_s = std::min(m.time_limit_s, deadline.SecondsRemaining());
    return m;
  };

  // A one-shot call runs over a state of its own; a caller-held one keeps
  // the inputs and the partition across calls.
  SketchRefineState one_shot;
  SketchRefineState* state =
      options.state != nullptr ? options.state : &one_shot;

  // ---- Candidates and weights: only the rows appended since the state
  // last saw the table are filtered and weighed.
  PB_RETURN_IF_ERROR(RefreshCandidates(aq, state).status());
  const std::vector<size_t>& candidates = state->candidates;
  const size_t n = candidates.size();
  if (n == 0) {
    // Only the empty package is possible.
    Package empty;
    PB_ASSIGN_OR_RETURN(bool valid, SatisfiesGlobalConstraints(aq, empty));
    out.found = valid;
    return out;
  }

  const QueryWeights weights(aq, *state);
  std::vector<RowBounds> rows;
  for (const paql::LinearConstraint& lc : aq.linear_constraints) {
    rows.push_back({lc.lo, lc.hi, lc.source_text});
  }
  if (aq.requires_nonempty) rows.push_back({1.0, kInf, "nonempty"});
  const auto sense = aq.has_objective && !aq.maximize
                         ? solver::ObjectiveSense::kMinimize
                         : solver::ObjectiveSense::kMaximize;

  // ---- Offline partitioning on normalized (constraint-weight, objective)
  // feature space: tuples similar on every dimension the query touches end
  // up in one group, which is what lets a representative stand in for them.
  // A compatible partition (same dimensionality, candidates only appended)
  // is maintained in place; anything else falls back to a full build that
  // (re)populates it. The cheap checks here catch dimension drift; the
  // same-query/append-only discipline is the caller's contract (see
  // SketchRefineState).
  const size_t dims = weights.dims();
  const bool incremental = !state->groups.empty() && state->dims == dims &&
                           state->n_candidates <= n &&
                           state->feat_lo.size() == dims;
  if (incremental) {
    out.state_reused = true;
    MaintainPartition(state, FeatureSpace(weights, *state), n, options,
                      &out);
  } else {
    // The full build splits column-major features (one contiguous span
    // per dimension) and freezes their normalization into the state.
    state->dims = dims;
    state->feat_lo.assign(dims, 0.0);
    state->feat_span.assign(dims, 0.0);
    state->sketch_warm = solver::MilpWarmStart();
    std::vector<std::vector<double>> feature_cols(dims, std::vector<double>(n));
    for (size_t d = 0; d < dims; ++d) {
      std::vector<double>& col = feature_cols[d];
      for (size_t i = 0; i < n; ++i) col[i] = weights.Feature(d, i);
      auto [mn, mx] = std::minmax_element(col.begin(), col.end());
      const double lo = *mn, span = *mx - *mn;
      state->feat_lo[d] = lo;
      state->feat_span[d] = span;
      // FeatureSpace's map, applied to the whole column at once.
      for (double& v : col) v = span > 0 ? (v - lo) / span : 0.0;
    }
    std::vector<std::vector<size_t>> parts = PartitionCandidatesColumnar(
        feature_cols, n, options.partition_size, &out.zone_map_skipped_blocks);
    auto built = [&feature_cols](size_t d, size_t i) {
      return feature_cols[d][i];
    };
    state->groups.assign(parts.size(), SketchRefineState::Group());
    for (size_t g = 0; g < parts.size(); ++g) {
      state->groups[g].members = std::move(parts[g]);
      state->groups[g].rep = ComputeRep(state->groups[g].members, dims, built);
    }
    state->n_candidates = n;
  }
  const std::vector<SketchRefineState::Group>& groups = state->groups;
  out.num_partitions = groups.size();
  out.partition_seconds = phase_timer.ElapsedSeconds();

  // ---- Sketch (+ refine, with backtracking over excluded groups).
  std::vector<bool> excluded(groups.size(), false);
  // Sketch-phase warm state: the state's, so it survives across calls —
  // never options.milp.warm, which would be consumed (and so clobbered) by
  // SketchRefine's internal solves. A backtrack rebuilds the sketch with
  // fewer variables, which the signature check detects and resets
  // automatically.
  solver::MilpWarmStart& sketch_warm = state->sketch_warm;
  for (int attempt = 0; attempt <= kMaxBacktracks; ++attempt) {
    if (interrupted()) {
      out.cancelled = true;
      return out;
    }
    // Sketch model: one integer variable per (non-excluded) group.
    phase_timer.Restart();
    solver::LpModel sketch;
    sketch.SetSense(sense);
    std::vector<int> var_of_group(groups.size(), -1);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (excluded[g]) continue;
      double cap = static_cast<double>(groups[g].members.size()) *
                   static_cast<double>(aq.max_multiplicity);
      var_of_group[g] = sketch.AddVariable(
          "g" + std::to_string(g), 0.0, cap, weights.Objective(groups[g].rep),
          /*is_integer=*/true);
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<solver::LinearTerm> terms;
      for (size_t g = 0; g < groups.size(); ++g) {
        const double w = weights.Row(r, groups[g].rep);
        if (var_of_group[g] >= 0 && w != 0.0) {
          terms.push_back({var_of_group[g], w});
        }
      }
      sketch.AddConstraint(rows[r].name, std::move(terms), rows[r].lo,
                           rows[r].hi);
    }
    if (sketch.num_variables() == 0) break;
    out.sketch_variables = sketch.num_variables();
    solver::MilpOptions sketch_milp = budgeted_milp();
    sketch_milp.warm = &sketch_warm;
    PB_ASSIGN_OR_RETURN(solver::MilpResult sk,
                        solver::SolveMilp(sketch, sketch_milp));
    out.lp_iterations += sk.lp_iterations;
    out.lp_dual_iterations += sk.lp_dual_iterations;
    out.lp_refactorizations += sk.lp_refactorizations;
    out.sketch_seconds += phase_timer.ElapsedSeconds();
    if (interrupted()) {
      // A cancelled/out-of-time sketch solve surfaces kNoSolution; report
      // the interruption rather than a (misleading) plain failure.
      out.cancelled = true;
      return out;
    }
    if (!sk.has_solution()) break;  // sketch infeasible: give up

    std::vector<int64_t> group_mult(groups.size(), 0);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (var_of_group[g] >= 0) {
        group_mult[g] =
            static_cast<int64_t>(std::llround(sk.x[var_of_group[g]]));
      }
    }

    // Refine groups in decreasing sketch-multiplicity order (stable sort:
    // the order, and therefore the result, is fully deterministic).
    phase_timer.Restart();
    std::vector<size_t> refine_order;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (group_mult[g] > 0) refine_order.push_back(g);
    }
    std::stable_sort(
        refine_order.begin(), refine_order.end(),
        [&](size_t a, size_t b) { return group_mult[a] > group_mult[b]; });

    // Residual sub-ILP for group g: what its members must deliver given the
    // per-row contribution `others` of everyone else. Variable k is the
    // k-th member of the group (indices are dense).
    auto build_sub = [&](size_t g, const std::vector<double>& others) {
      const std::vector<size_t>& members = groups[g].members;
      solver::LpModel sub;
      sub.SetSense(sense);
      for (size_t k = 0; k < members.size(); ++k) {
        sub.AddVariable("m" + std::to_string(k), 0.0,
                        static_cast<double>(aq.max_multiplicity),
                        weights.Objective(members[k]), /*is_integer=*/true);
      }
      for (size_t r = 0; r < rows.size(); ++r) {
        const RowBounds& row = rows[r];
        std::vector<solver::LinearTerm> terms;
        for (size_t k = 0; k < members.size(); ++k) {
          const double w = weights.Row(r, members[k]);
          if (w != 0.0) terms.push_back({static_cast<int>(k), w});
        }
        sub.AddConstraint(row.name, std::move(terms),
                          row.lo == -kInf ? -kInf : row.lo - others[r],
                          row.hi == kInf ? kInf : row.hi - others[r]);
      }
      return sub;
    };
    // Multiplicities by candidate position. A package holds few of the n
    // candidates, so they are kept sparse, in ascending position order.
    using Multiplicities = std::map<size_t, int64_t>;
    auto package_from = [&](const Multiplicities& m) {
      Package p;
      for (const auto& [i, count] : m) {
        if (count > 0) p.Add(candidates[i], count);
      }
      return p;
    };

    // Independent pass: each group's residual is taken against the sketch
    // state (every other group at its representative multiplicity), so no
    // sub-ILP depends on another's answer.
    struct RefineTask {
      std::vector<double> others;  // per-row contribution of everyone else
      solver::MilpResult solution;
    };
    // Per-row activity of the whole sketch state; each task's residual is
    // that minus the group's own representative contribution, O(rows) per
    // group instead of a full O(rows * n) recompute.
    std::vector<double> base(rows.size(), 0.0);
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t g : refine_order) {
        base[r] += weights.Row(r, groups[g].rep) * group_mult[g];
      }
    }
    std::vector<RefineTask> tasks(refine_order.size());
    for (size_t t = 0; t < refine_order.size(); ++t) {
      size_t g = refine_order[t];
      tasks[t].others.resize(rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        tasks[t].others[r] = base[r] - weights.Row(r, groups[g].rep) *
                                           static_cast<double>(group_mult[g]);
      }
      SketchRefineState::Group& sg = state->groups[g];
      if (options.reuse_group_solutions && !sg.dirty && sg.has_solution &&
          tasks[t].others == sg.cached_others) {
        // Clean group, identical residual: the cached sub-solution IS what
        // a re-solve would return (same model bit-for-bit, deterministic
        // solver), so skip the solver entirely. Its counters were charged
        // when it was originally solved.
        tasks[t].solution = sg.cached_solution;
        ++out.groups_reused;
        continue;
      }
      ++out.dirty_groups;
      ++out.refine_ilps_solved;
      // A group reached after interruption keeps the kNoSolution default:
      // the merge below then routes through repair, whose own interruption
      // check returns before any re-solve.
      if (interrupted()) continue;
      // The group's warm-start slot (root basis + pseudocosts) lives in the
      // state, so it survives across calls and is re-seeded into the repair
      // pass's re-solve of the same group: the models are structurally
      // identical, only the residual ranges move. A caller-provided
      // options.milp.warm would be clobbered by every group, so it is
      // always overridden here.
      solver::MilpOptions task_milp = budgeted_milp();
      task_milp.warm = &sg.warm;
      PB_ASSIGN_OR_RETURN(
          tasks[t].solution,
          solver::SolveMilp(build_sub(g, tasks[t].others), task_milp));
      out.lp_iterations += tasks[t].solution.lp_iterations;
      out.lp_dual_iterations += tasks[t].solution.lp_dual_iterations;
      out.lp_refactorizations += tasks[t].solution.lp_refactorizations;
    }
    if (interrupted()) {
      out.refine_seconds += phase_timer.ElapsedSeconds();
      out.cancelled = true;
      return out;
    }

    // Deterministic merge in refine order. The merged package stands only
    // if every group solved and the result validates.
    bool all_solved = true;
    for (const RefineTask& task : tasks) {
      if (!task.solution.has_solution()) {
        all_solved = false;
        break;
      }
    }
    Package pkg;
    bool valid = false;
    Multiplicities mult;
    if (all_solved) {
      for (size_t t = 0; t < tasks.size(); ++t) {
        const std::vector<size_t>& members = groups[refine_order[t]].members;
        for (size_t k = 0; k < members.size(); ++k) {
          const int64_t m =
              static_cast<int64_t>(std::llround(tasks[t].solution.x[k]));
          if (m != 0) mult[members[k]] += m;
        }
      }
      pkg = package_from(mult);
      PB_ASSIGN_OR_RETURN(valid, IsValidPackage(aq, pkg));
    }

    bool failed_group = false;
    size_t failed_g = 0;
    if (!valid) {
      // Repair: the independent solves let per-group drift accumulate
      // (chosen members aggregate differently than their representative),
      // and a group infeasible against the sketch residuals may still be
      // feasible against the actual ones. Rebuild greedily, propagating
      // actual residuals group by group as the 2016 paper's refine does; an
      // independent-pass result (solution or proven infeasibility) is
      // reused when its residuals match the actual state exactly — always
      // true for the first group, and for every group while no drift has
      // occurred. The actual residual is tracked as (base - own rep
      // contribution) + drift so that a zero-drift prefix reproduces the
      // task residuals bit-for-bit.
      ++out.repair_passes;
      mult.clear();
      for (size_t g : refine_order) mult[groups[g].rep] += group_mult[g];
      std::vector<double> drift(rows.size(), 0.0);
      for (size_t t = 0; t < refine_order.size(); ++t) {
        if (interrupted()) {
          out.refine_seconds += phase_timer.ElapsedSeconds();
          out.cancelled = true;
          return out;
        }
        size_t g = refine_order[t];
        std::vector<double> others(rows.size());
        for (size_t r = 0; r < rows.size(); ++r) {
          others[r] = tasks[t].others[r] + drift[r];
        }
        const solver::MilpResult* sol = &tasks[t].solution;
        solver::MilpResult fresh;
        if (others != tasks[t].others) {
          ++out.refine_ilps_solved;
          // Same group, same model structure, shifted residual ranges: the
          // group's root basis and pseudocost history carry over.
          solver::MilpOptions repair_milp = budgeted_milp();
          repair_milp.warm = &state->groups[g].warm;
          PB_ASSIGN_OR_RETURN(
              fresh, solver::SolveMilp(build_sub(g, others), repair_milp));
          out.lp_iterations += fresh.lp_iterations;
          out.lp_dual_iterations += fresh.lp_dual_iterations;
          out.lp_refactorizations += fresh.lp_refactorizations;
          sol = &fresh;
        }
        if (!sol->has_solution()) {
          failed_group = true;
          failed_g = g;
          break;
        }
        const size_t rep = groups[g].rep;
        mult[rep] -= group_mult[g];
        for (size_t r = 0; r < rows.size(); ++r) {
          drift[r] -=
              weights.Row(r, rep) * static_cast<double>(group_mult[g]);
        }
        const std::vector<size_t>& members = groups[g].members;
        for (size_t k = 0; k < members.size(); ++k) {
          int64_t m = static_cast<int64_t>(std::llround(sol->x[k]));
          if (m == 0) continue;
          mult[members[k]] += m;
          for (size_t r = 0; r < rows.size(); ++r) {
            drift[r] += weights.Row(r, members[k]) * static_cast<double>(m);
          }
        }
      }
      if (!failed_group) {
        pkg = package_from(mult);
        PB_ASSIGN_OR_RETURN(valid, IsValidPackage(aq, pkg));
      }
    }
    out.refine_seconds += phase_timer.ElapsedSeconds();

    if (failed_group) {
      excluded[failed_g] = true;
      ++out.backtracks;
      continue;
    }
    if (!valid) {
      // The repair pass's last group enforces exact residuals, so a fully
      // repaired package that still fails validation either missed a row
      // by solver-scale round-off (IsValidPackage compares exactly while
      // the solver accepts feas_tol slack) or broke a real invariant.
      // Distinguish the two: a round-off near-miss is an honest failed
      // attempt — and retrying is deterministic (same sketch, same
      // excluded set), so stop rather than burn backtracks on identical
      // failures — while a gross violation is surfaced as an error
      // instead of the old silent backtrack, which could only hand back
      // found=false over an invalid solve.
      constexpr double kRowSlack = 1e-5;
      bool near_valid = true;
      for (size_t r = 0; r < rows.size() && near_valid; ++r) {
        double act = 0.0;
        for (const auto& [i, count] : mult) {
          if (count != 0) act += weights.Row(r, i) * static_cast<double>(count);
        }
        double slack = kRowSlack * std::max(1.0, std::abs(act));
        near_valid =
            act >= rows[r].lo - slack && act <= rows[r].hi + slack;
      }
      if (near_valid) break;  // tolerance drift: report found == false
      return Status::Internal(
          "SketchRefine repair produced an invalid package despite exact "
          "residual propagation (solver invariant violated)");
    }
    out.found = true;
    PB_ASSIGN_OR_RETURN(out.objective, PackageObjective(aq, pkg));
    out.package = std::move(pkg);
    // Persist this call's refine results: each refined group caches the
    // residual it was solved against plus its sub-solution (the task-level
    // pair — repair re-solves depend on drift ordering and are not
    // replayable, so they are never cached). Every group is now clean:
    // memberships and representatives match what was just solved.
    for (size_t t = 0; t < refine_order.size(); ++t) {
      SketchRefineState::Group& sg = state->groups[refine_order[t]];
      sg.has_solution = true;
      sg.cached_others = std::move(tasks[t].others);
      sg.cached_solution = std::move(tasks[t].solution);
    }
    for (SketchRefineState::Group& sg : state->groups) sg.dirty = false;
    return out;
  }

  return out;  // found == false: sketch/refine failed within the budget
}

}  // namespace pb::core
