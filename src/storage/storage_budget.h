// StorageBudget: a per-query cap on bytes pinned in the block cache.
//
// Mirrors CancelToken's shape (common/budget.h): a copyable handle over a
// shared atomic state, so the engine, the block cache, and any view created
// on the query thread all observe the same counters. The engine installs
// the active query's budget via a thread-local StorageBudgetScope; the
// block cache charges it on every pin and discharges on handle release.
//
// A default-constructed StorageBudget is detached (no shared state): every
// charge succeeds and nothing is tracked. Detached is the mode of all
// non-query pins (spilling, ad-hoc shell scans).

#ifndef PB_STORAGE_STORAGE_BUDGET_H_
#define PB_STORAGE_STORAGE_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace pb::storage {

class StorageBudget {
 public:
  /// Detached budget: never limits, never counts.
  StorageBudget() = default;

  /// Tracking budget. `limit_bytes <= 0` means "count but never refuse" —
  /// useful for reporting peak pinned bytes without a cap.
  static StorageBudget Limited(int64_t limit_bytes) {
    StorageBudget b;
    b.state_ = std::make_shared<State>();
    b.state_->limit = limit_bytes;
    return b;
  }

  bool attached() const { return state_ != nullptr; }

  /// Attempts to account `bytes` of newly pinned data. Returns false when
  /// the charge would push pinned bytes past the limit (the caller should
  /// surface ResourceExhausted); detached budgets always succeed.
  bool TryCharge(int64_t bytes) {
    if (!state_) return true;
    int64_t cur = state_->pinned.load(std::memory_order_relaxed);
    for (;;) {
      const int64_t next = cur + bytes;
      if (state_->limit > 0 && next > state_->limit) return false;
      if (state_->pinned.compare_exchange_weak(cur, next,
                                               std::memory_order_relaxed)) {
        int64_t peak = state_->peak.load(std::memory_order_relaxed);
        while (next > peak &&
               !state_->peak.compare_exchange_weak(
                   peak, next, std::memory_order_relaxed)) {
        }
        return true;
      }
    }
  }

  /// Releases a previously successful charge. Safe from any thread.
  void Discharge(int64_t bytes) {
    if (state_) state_->pinned.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t limit() const { return state_ ? state_->limit : 0; }
  int64_t pinned_bytes() const {
    return state_ ? state_->pinned.load(std::memory_order_relaxed) : 0;
  }
  int64_t peak_pinned_bytes() const {
    return state_ ? state_->peak.load(std::memory_order_relaxed) : 0;
  }

 private:
  struct State {
    int64_t limit = 0;
    std::atomic<int64_t> pinned{0};
    std::atomic<int64_t> peak{0};
  };
  std::shared_ptr<State> state_;
};

/// Installs `budget` as the calling thread's active storage budget for the
/// scope's lifetime (restoring the previous one on exit). BlockCache::Pin
/// consults the active budget of the pinning thread, so pins made on a
/// thread with no open scope are uncounted. The engine opens one on the
/// query's thread, where every step of the query runs.
class StorageBudgetScope {
 public:
  explicit StorageBudgetScope(StorageBudget budget);
  ~StorageBudgetScope();

  StorageBudgetScope(const StorageBudgetScope&) = delete;
  StorageBudgetScope& operator=(const StorageBudgetScope&) = delete;

  /// The calling thread's active budget (detached when no scope is open).
  static StorageBudget Active();

 private:
  StorageBudget previous_;
};

}  // namespace pb::storage

#endif  // PB_STORAGE_STORAGE_BUDGET_H_
