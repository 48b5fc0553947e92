// Clang thread-safety annotations + the annotated lock vocabulary.
//
// Every mutex, shared mutex, and condition variable in this codebase is one
// of the pb:: wrappers below — zero-cost shims over the std:: primitives
// that carry Clang `-Wthread-safety` capability attributes, so a thread
// touching state it does not hold the right lock for is a COMPILE error on
// the Clang CI lane (and plain std types everywhere else: on GCC the
// attributes expand to nothing and the wrappers inline away).
// tools/check_annotations.py enforces that no raw std::mutex /
// std::shared_mutex / std::condition_variable (or std lock guard) appears
// outside this header.
//
// Usage pattern (see docs/adr/0003-concurrency-invariants.md for the lock
// hierarchy and the full how-to):
//
//   class Cache {
//    public:
//     void Put(Key k, Val v) {
//       pb::MutexLock lock(&mu_);
//       map_[k] = std::move(v);    // OK: mu_ held
//     }
//    private:
//     pb::Mutex mu_;
//     std::map<Key, Val> map_ PB_GUARDED_BY(mu_);
//   };
//
// The attribute spellings follow the Clang thread-safety documentation;
// the PB_ prefix keeps them grep-able and avoids colliding with other
// libraries' unprefixed macros.

#ifndef PB_COMMON_ANNOTATIONS_H_
#define PB_COMMON_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define PB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PB_THREAD_ANNOTATION_(x)  // non-Clang: attributes compile away
#endif

/// Declares a type to be a capability ("mutex", "shared_mutex", ...).
#define PB_CAPABILITY(x) PB_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose lifetime equals holding a capability.
#define PB_SCOPED_CAPABILITY PB_THREAD_ANNOTATION_(scoped_lockable)

/// Member may only be touched while holding the given capability.
#define PB_GUARDED_BY(x) PB_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose POINTEE may only be touched while holding `x`.
#define PB_PT_GUARDED_BY(x) PB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock detection with -Wthread-safety-beta).
#define PB_ACQUIRED_BEFORE(...) \
  PB_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PB_ACQUIRED_AFTER(...) \
  PB_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Caller must hold the capability (exclusively / at least shared).
#define PB_REQUIRES(...) \
  PB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define PB_REQUIRES_SHARED(...) \
  PB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the capability (not already held on entry).
#define PB_ACQUIRE(...) PB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define PB_ACQUIRE_SHARED(...) \
  PB_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define PB_RELEASE(...) PB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define PB_RELEASE_SHARED(...) \
  PB_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define PB_RELEASE_GENERIC(...) \
  PB_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define PB_TRY_ACQUIRE(...) \
  PB_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define PB_TRY_ACQUIRE_SHARED(...) \
  PB_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrancy / deadlock guard).
#define PB_EXCLUDES(...) PB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (no acquire performed).
#define PB_ASSERT_CAPABILITY(x) PB_THREAD_ANNOTATION_(assert_capability(x))
#define PB_ASSERT_SHARED_CAPABILITY(x) \
  PB_THREAD_ANNOTATION_(assert_shared_capability(x))

/// Function returns a reference to the given capability.
#define PB_RETURN_CAPABILITY(x) PB_THREAD_ANNOTATION_(lock_returned(x))

// There is deliberately no escape from the analysis (no
// no_thread_safety_analysis wrapper): state the analysis cannot check is
// redesigned, not exempted. tools/check_annotations.py rejects the
// attribute in src/ and tools/.

namespace pb {

class CondVar;

/// Annotated exclusive mutex. Prefer pb::MutexLock over manual
/// Lock()/Unlock() pairs; the manual API exists for the rare non-scoped
/// protocol (and for the analysis to see through the RAII types).
class PB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PB_ACQUIRE() { mu_.lock(); }
  void Unlock() PB_RELEASE() { mu_.unlock(); }
  bool TryLock() PB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated reader/writer mutex (the Engine's catalog lock).
class PB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PB_ACQUIRE() { mu_.lock(); }
  void Unlock() PB_RELEASE() { mu_.unlock(); }
  bool TryLock() PB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() PB_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() PB_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() PB_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over pb::Mutex.
class PB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() PB_RELEASE() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

/// RAII exclusive (writer) lock over pb::SharedMutex.
class PB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) PB_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() PB_RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* mu_;
};

/// RAII shared (reader) lock over pb::SharedMutex.
class PB_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) PB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() PB_RELEASE_GENERIC() { mu_->UnlockShared(); }

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to pb::Mutex. Wait() atomically releases and
/// re-acquires the mutex the caller already holds — annotated REQUIRES so
/// a wait without the lock is a compile error. The wait is allowed to wake
/// spuriously; callers loop on their predicate:
///
///   pb::MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
///
/// (An explicit while over a guarded member keeps the predicate visible to
/// the analysis; the lambda-predicate overload below is for predicates
/// over unguarded state, since Clang analyzes lambda bodies in isolation.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) PB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the re-acquired lock
  }

  /// Waits until `pred()` holds (handles spurious wakeups internally).
  template <typename Predicate>
  void Wait(Mutex* mu, Predicate pred) PB_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Returns false on timeout (the mutex is re-held either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      PB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status st = cv_.wait_for(lock, timeout);
    lock.release();
    return st == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pb

#endif  // PB_COMMON_ANNOTATIONS_H_
