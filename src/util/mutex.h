// Annotated lock wrappers for Clang's thread-safety analysis
// (util/thread_annotations.h).
//
// std::mutex and std::condition_variable carry no capability annotations, so
// accesses guarded by them are invisible to -Wthread-safety. These wrappers
// are zero-overhead shims over the standard primitives that make the lock
// discipline statically checkable:
//
//   * Mutex / MutexLock — std::mutex / lock_guard with ACQUIRE/RELEASE
//     annotations, so VICINITY_GUARDED_BY members are enforced.
//   * CondVar — std::condition_variable waiting on a util::Mutex. Only the
//     plain wait(mu) form is offered: predicate lambdas are analyzed as
//     separate functions and cannot see the caller's lock set, so waits are
//     written as explicit `while (!cond) cv.wait(mu);` loops, which the
//     analysis follows.
//   * ExclusiveRole + guards — a phantom (no-op) capability for encoding
//     lock-free contracts like VicinityStore's "concurrent set() on
//     distinct slots is safe, pack() needs exclusivity": no mutex exists at
//     runtime, but callers must still prove which mode they are in.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace vicinity::util {

/// std::mutex with capability annotations. Same cost, same semantics; the
/// annotations let -Wthread-safety enforce VICINITY_GUARDED_BY members.
class VICINITY_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() VICINITY_ACQUIRE() { mu_.lock(); }
  void unlock() VICINITY_RELEASE() { mu_.unlock(); }
  bool try_lock() VICINITY_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // waits on the wrapped std::mutex directly

  std::mutex mu_;
};

/// RAII lock for util::Mutex (std::lock_guard shape, annotated).
class VICINITY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VICINITY_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() VICINITY_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::condition_variable over util::Mutex. wait() temporarily adopts the
/// wrapped std::mutex into a unique_lock (no extra locking, the
/// adopt/release pair is pointer bookkeeping) so the standard wait path —
/// futex parking and all — is unchanged.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; `mu` is re-held on return.
  /// Subject to spurious wakeups — always call in a condition loop.
  void wait(Mutex& mu) VICINITY_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A phantom capability: a named role with no runtime state, for statically
/// encoding mutation contracts that are synchronized by program phase
/// rather than by a lock (e.g. "the build loop writes distinct slots in
/// parallel, then one thread packs"). acquire()/release() compile to
/// nothing; the value is that functions annotated
/// VICINITY_REQUIRES[_SHARED](role) force every caller to state — and the
/// analysis to propagate — which mode they claim to be in. Copyable so the
/// owning object stays movable: the capability is per-object, not shared.
class VICINITY_CAPABILITY("role") ExclusiveRole {
 public:
  ExclusiveRole() = default;
  ExclusiveRole(const ExclusiveRole&) = default;
  ExclusiveRole& operator=(const ExclusiveRole&) = default;

  void acquire() VICINITY_ACQUIRE() {}
  void release() VICINITY_RELEASE() {}
  void acquire_shared() VICINITY_ACQUIRE_SHARED() {}
  void release_shared() VICINITY_RELEASE_SHARED() {}
};

/// Scoped exclusive claim of an ExclusiveRole (satisfies both REQUIRES and
/// REQUIRES_SHARED on the role). No-op at runtime.
class VICINITY_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(ExclusiveRole& role) VICINITY_ACQUIRE(role)
      : role_(role) {
    role_.acquire();
  }
  ~RoleGuard() VICINITY_RELEASE() { role_.release(); }

  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;

 private:
  ExclusiveRole& role_;
};

/// Scoped shared claim of an ExclusiveRole (satisfies REQUIRES_SHARED;
/// distinct threads may hold it concurrently). No-op at runtime.
class VICINITY_SCOPED_CAPABILITY SharedRoleGuard {
 public:
  explicit SharedRoleGuard(ExclusiveRole& role) VICINITY_ACQUIRE_SHARED(role)
      : role_(role) {
    role_.acquire_shared();
  }
  ~SharedRoleGuard() VICINITY_RELEASE_GENERIC() { role_.release_shared(); }

  SharedRoleGuard(const SharedRoleGuard&) = delete;
  SharedRoleGuard& operator=(const SharedRoleGuard&) = delete;

 private:
  ExclusiveRole& role_;
};

}  // namespace vicinity::util
