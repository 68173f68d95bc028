// FM-Check instrumentation seam.
//
// Hot lock-free structures (SpscRing, SendWindow) declare their shared
// state through this header instead of using std::atomic / std::memcpy
// directly. In a production build the aliases below compile to exactly the
// std:: forms — `chk::atomic<T>` IS `std::atomic<T>` (a type alias, not a
// wrapper, so there is no ABI or codegen difference to audit), and the
// shared-memory copy helpers are inline forwarding wrappers around
// std::memcpy that every compiler folds away. Under -DFM_CHK_MODEL (set
// only by the tests/chk/ model-checking binaries; never by src/ libraries)
// every load, store and cross-thread byte copy instead routes through the
// FM-Check cooperative scheduler (chk/model.h), which serializes the
// threads of a small model, explores all their interleavings, and
// simulates relaxed/acquire/release semantics with per-thread store
// buffers.
//
// Seam rules:
//  * `chk::atomic<T>` for every atomic a hot structure shares between
//    threads (enforced by fm_lint's `chk-atomic` rule over src/shm and
//    src/fm).
//  * `chk::atomic_ref<T>` for an atomic word that lives inside shared
//    memory rather than in a member (a ring slot's publish stamp). It IS
//    `std::atomic_ref<T>` in production; under the model its loads and
//    stores are scheduler decision points like chk::atomic's.
//  * `chk::shared_write` / `chk::shared_read` for byte copies into/out of
//    memory another thread will read/wrote (ring slots). Copies private to
//    one thread stay plain std::memcpy.
//  * `chk::yield()` in any spin-wait; under the model it parks the thread
//    until another thread (or a buffered-store drain) makes progress,
//    which is what keeps exhaustive exploration finite.
//
// ODR note: a translation unit compiled with FM_CHK_MODEL must not be
// linked against src/ libraries that include the same headers
// uninstrumented (tests/chk/CMakeLists.txt links only fm_common/fm_obs/
// fm_chk for exactly this reason).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>

#ifdef FM_CHK_MODEL
#include "chk/runtime.h"
#endif

namespace fm::chk {

#ifndef FM_CHK_MODEL

/// Production: the seam is the real thing.
template <typename T>
using atomic = std::atomic<T>;

/// Production: atomic access to a word in plain shared memory.
template <typename T>
using atomic_ref = std::atomic_ref<T>;

/// Copy bytes into memory a peer thread will read (producer -> slot).
inline void shared_write(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
}

/// Copy bytes out of memory a peer thread wrote (slot -> consumer).
inline void shared_read(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
}

/// Spin-wait hint. A no-op in production (the shm spins are already
/// bounded by protocol progress); a scheduler park under FM_CHK_MODEL.
inline void yield() {}

#else  // FM_CHK_MODEL

namespace detail {
inline rt::Order to_order(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed:
      return rt::Order::kRelaxed;
    case std::memory_order_consume:
    case std::memory_order_acquire:
      return rt::Order::kAcquire;
    case std::memory_order_release:
      return rt::Order::kRelease;
    default:
      return rt::Order::kSeqCst;
  }
}
}  // namespace detail

/// Model-checked atomic: same surface as the std::atomic subset the hot
/// structures use, every access a scheduler decision point. The value
/// lives in plain storage ("main memory"); the runtime overlays the
/// calling thread's store buffer on loads and decides when (and in which
/// order) buffered stores drain to it.
template <typename T>
class atomic {
 public:
  atomic() noexcept = default;
  constexpr atomic(T v) noexcept : v_(v) {}  // NOLINT(runtime/explicit)
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    T out;
    rt::on_load(&v_, &out, sizeof(T), detail::to_order(mo));
    return out;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    rt::on_store(&v_, &v, sizeof(T), detail::to_order(mo));
  }

  T fetch_add(T d, std::memory_order = std::memory_order_seq_cst) {
    rt::on_rmw(&v_);
    const T old = v_;
    v_ = static_cast<T>(old + d);
    return old;
  }

  T fetch_sub(T d, std::memory_order = std::memory_order_seq_cst) {
    rt::on_rmw(&v_);
    const T old = v_;
    v_ = static_cast<T>(old - d);
    return old;
  }

  T exchange(T v, std::memory_order = std::memory_order_seq_cst) {
    rt::on_rmw(&v_);
    const T old = v_;
    v_ = v;
    return old;
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order = std::memory_order_seq_cst) {
    rt::on_rmw(&v_);
    if (v_ == expected) {
      v_ = desired;
      return true;
    }
    expected = v_;
    return false;
  }

  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order mo = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, mo);
  }

 private:
  mutable T v_{};
};

/// Model-checked atomic_ref: the std::atomic_ref load/store subset, each a
/// scheduler decision point on the referenced word (which stays in plain
/// storage, as with atomic<T> above).
template <typename T>
class atomic_ref {
 public:
  explicit atomic_ref(T& obj) noexcept : p_(&obj) {}

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    T out;
    rt::on_load(p_, &out, sizeof(T), detail::to_order(mo));
    return out;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) const {
    rt::on_store(p_, &v, sizeof(T), detail::to_order(mo));
  }

 private:
  T* p_;
};

inline void shared_write(void* dst, const void* src, std::size_t n) {
  rt::on_store(dst, src, n, rt::Order::kPlain);
}

inline void shared_read(void* dst, const void* src, std::size_t n) {
  rt::on_load(src, dst, n, rt::Order::kPlain);
}

inline void yield() { rt::on_yield(); }

#endif  // FM_CHK_MODEL

}  // namespace fm::chk
