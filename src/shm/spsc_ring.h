// Lock-free single-producer/single-consumer frame ring.
//
// The shared-memory transport's analogue of a Myrinet channel: a bounded
// ring of fixed-size frame slots between one sender thread and one receiver
// thread. No CAS, no locks, no allocation after construction. Indices are
// monotonically increasing (mod 2^64) so full/empty need no wasted slot.
//
// Arrivals are found the way FM's host finds them (§4.4: a poll of the
// receive queue is "a cached read + compare"): by polling the slot, not an
// index. Each slot opens with an 8-byte publish stamp. The producer writes
// the frame bytes and the length, then stores the slot's stamp with release
// ordering; the consumer's empty check is one acquire load of the next
// slot's stamp. A small frame thus crosses cores as one cache line (stamp,
// length and frame share it), and no producer index crosses at all. Frame
// i's stamp is 2i+1: never zero, so a zero slot reads as unpublished, and
// different on every lap, so a slot's last lap never reads as its next.
// The consumer publishes `head` (release) once per batch; the producer
// reloads it only when its cached copy says the ring is full.
//
// Slot memory is an anonymous mmap, zero-filled by the OS: a new ring reads
// as empty without an initialization pass that would touch every page, and
// it cannot inherit a destroyed ring's stamps as recycled heap memory could.
//
// Receive aggregation (§4.4): try_consume_batch() hands the consumer up to
// N frames per head publish, one cross-core index update amortized over a
// burst. Frame lengths live beside the stamp in the slot they describe, not
// in a side array whose adjacent entries two cores would write and read;
// slots are padded to a 64-byte stride for the same reason. try_push()
// copies a finished frame into its slot; try_reserve()/commit() instead
// expose the slot so a frame can be built in place.
//
// Ownership is enforced statically (common/annotate.h): the producer and
// consumer sides are two role capabilities, claimed once by the owning
// thread via assert_producer()/assert_consumer(); under clang's
// -Wthread-safety a consumer-side call from producer-role code (or vice
// versa) is a compile error, not a data race waiting for TSan to catch it.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "chk/shim.h"
#include "common/annotate.h"
#include "common/check.h"

namespace fm::shm {

/// Bounded SPSC queue of byte frames (each at most `slot_bytes` long).
class SpscRing {
 public:
  /// `slots` must be a power of two. `start_index` offsets both indices
  /// (test hook: exercises the mod-2^64 arithmetic near wraparound).
  SpscRing(std::size_t slots, std::size_t slot_bytes,
           std::uint64_t start_index = 0)
      : mask_(checked_mask(slots)),
        slot_bytes_(slot_bytes),
        stride_((kPrefixBytes + slot_bytes + kSlotAlign - 1) &
                ~(kSlotAlign - 1)),
        map_bytes_(slots * stride_),
        data_(map_zeroed(map_bytes_)),
        head_(start_index),
        tail_(start_index),
        head_cache_(start_index) {}
  ~SpscRing() { ::munmap(data_, map_bytes_); }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Claims the producer role for the calling context. Call once where the
  /// owning side enters ring code (e.g. at the top of Endpoint::push); the
  /// thread-safety analysis then admits producer-side calls below it.
  /// Zero-cost: the ownership claim is structural, not checked at runtime.
  void assert_producer() const FM_ASSERT_CAPABILITY(prod_role_) {}

  /// Claims the consumer role — the receive side's counterpart.
  void assert_consumer() const FM_ASSERT_CAPABILITY(cons_role_) {}

  /// Producer: claims the next slot for in-place frame construction.
  /// Returns a pointer to `len` writable bytes, or nullptr when the ring is
  /// full. The claim is invisible to the consumer until commit(); at most
  /// one reservation may be outstanding (enforced, mirroring SendWindow's
  /// contract checks), and it must not be held across any call that could
  /// consume from or push to this ring.
  FM_HOT_PATH std::uint8_t* try_reserve(std::size_t len)
      FM_REQUIRES(prod_role_) {
    FM_CHECK_MSG(len <= slot_bytes_, "frame exceeds slot size");
    FM_CHECK_MSG(!reserved_, "nested ring reserve");
    if (tail_ - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail_ - head_cache_ > mask_) return nullptr;  // full
    }
    reserved_ = true;
    return slot(tail_) + kPrefixBytes;
  }

  /// Producer: publishes the reserved slot as a frame of `len` bytes
  /// (<= the reserved length): the length, then the stamp.
  FM_HOT_PATH void commit(std::size_t len) FM_REQUIRES(prod_role_) {
    FM_CHECK_MSG(len <= slot_bytes_, "frame exceeds slot size");
    FM_CHECK_MSG(reserved_, "ring commit without reserve");
    reserved_ = false;
    std::uint8_t* s = slot(tail_);
    const auto n = static_cast<std::uint32_t>(len);
    chk::shared_write(s + kLenOffset, &n, sizeof n);
    stamp(s).store(stamp_of(tail_), std::memory_order_release);
    ++tail_;
  }

  /// Producer: enqueues one pre-built frame. Returns false when full.
  FM_HOT_PATH bool try_push(const void* frame, std::size_t len)
      FM_REQUIRES(prod_role_) {
    std::uint8_t* dst = try_reserve(len);
    if (dst == nullptr) return false;
    if (len != 0) chk::shared_write(dst, frame, len);
    commit(len);
    return true;
  }

  /// Consumer: processes up to `max` frames in place through
  /// `fn(const std::uint8_t*, size)` and publishes the head once for the
  /// whole batch. Returns the number of frames consumed. The pointers are
  /// valid only inside `fn`, and `fn` must not consume from this ring
  /// re-entrantly (the unpublished frames would be seen twice).
  template <typename F>
  FM_HOT_PATH std::size_t try_consume_batch(std::size_t max, F&& fn)
      FM_REQUIRES(cons_role_) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    // A slot the producer has not reached still holds its previous lap's
    // stamp (or zero), so the poll stops there, at most one lap ahead.
    for (; n < max; ++n) {
      std::uint8_t* s = slot(head + n);
      if (stamp(s).load(std::memory_order_acquire) != stamp_of(head + n))
        break;
      std::uint32_t len = 0;
      chk::shared_read(&len, s + kLenOffset, sizeof len);
      fn(static_cast<const std::uint8_t*>(s + kPrefixBytes),
         static_cast<std::size_t>(len));
    }
    if (n != 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer: dequeues one frame through `fn(const std::uint8_t*, size)`.
  /// Returns false when empty. The pointer is valid only inside `fn`.
  template <typename F>
  FM_HOT_PATH bool try_consume(F&& fn) FM_REQUIRES(cons_role_) {
    return try_consume_batch(1, std::forward<F>(fn)) == 1;
  }

  /// Consumer-side convenience: pops into a vector. Off the hot path — the
  /// assign may grow the destination.
  bool try_pop(std::vector<std::uint8_t>& out) FM_REQUIRES(cons_role_) {
    return try_consume([&](const std::uint8_t* p, std::size_t n) {
      out.assign(p, p + n);
    });
  }

  /// Approximate occupancy — a RACY SNAPSHOT, for monitoring only.
  ///
  /// It loads the head, then counts the published stamps from there. Both
  /// sides can move in between: the consumer can retire frames already
  /// counted and the producer can publish more (even reuse a counted slot
  /// for its next lap), so the value may be stale by the time it returns.
  /// The count is clamped to [0, capacity] but carries no transactional
  /// meaning — do not gate protocol decisions on it. A caller that needs a
  /// stable count must be one of the endpoints and use its own side's
  /// view: producer_size() from the producing thread, consumer_size() from
  /// the consuming thread (exact for "slots I cannot reuse yet" / "frames
  /// I could consume right now" respectively). FM-Check's 3-thread
  /// observer model (tests/chk/) exercises exactly this race and asserts
  /// only the clamp, never an exact value.
  std::size_t size_approx() const {
    return published_from(head_.load(std::memory_order_acquire));
  }

  /// True when a consume would currently fail. Same racy-snapshot caveat
  /// as size_approx().
  bool empty_approx() const { return size_approx() == 0; }

  /// Producer-side occupancy: a stable UPPER bound. Only this thread moves
  /// tail, and the concurrent consumer can only advance head, so the true
  /// occupancy is <= the returned value and free space only grows — the
  /// view a producer needs for back-pressure decisions.
  std::size_t producer_size() const FM_REQUIRES(prod_role_) {
    // Monotonic mod-2^64 indices: the wrapping difference is the count.
    return static_cast<std::size_t>(tail_ -
                                    head_.load(std::memory_order_acquire));
  }

  /// Consumer-side occupancy: a stable LOWER bound, counted the way
  /// try_consume_batch() finds frames — by their stamps. Only this thread
  /// moves head, and the concurrent producer can only publish more, so at
  /// least the returned number of frames is consumable right now.
  std::size_t consumer_size() const FM_REQUIRES(cons_role_) {
    return published_from(head_.load(std::memory_order_relaxed));
  }

  /// Slot geometry.
  std::size_t capacity() const { return mask_ + 1; }
  std::size_t slot_bytes() const { return slot_bytes_; }

 private:
  // Slot layout: the publish stamp, the frame length, the frame bytes.
  static constexpr std::size_t kLenOffset = sizeof(std::uint64_t);
  static constexpr std::size_t kPrefixBytes =
      kLenOffset + sizeof(std::uint32_t);
  static constexpr std::size_t kSlotAlign = 64;

  static std::size_t checked_mask(std::size_t slots) {
    FM_CHECK_MSG(slots >= 2 && (slots & (slots - 1)) == 0,
                 "slot count must be a power of two");
    return slots - 1;
  }

  static std::uint8_t* map_zeroed(std::size_t bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    FM_CHECK_MSG(p != MAP_FAILED, "ring mmap failed");
    return static_cast<std::uint8_t*>(p);
  }

  FM_HOT_PATH static constexpr std::uint64_t stamp_of(std::uint64_t index) {
    return 2 * index + 1;
  }

  // Frames published from index `head` on, at most one lap of them.
  std::size_t published_from(std::uint64_t head) const {
    std::size_t n = 0;
    while (n <= mask_ && stamp(slot(head + n)).load(
                             std::memory_order_acquire) == stamp_of(head + n))
      ++n;
    return n;
  }

  FM_HOT_PATH std::uint8_t* slot(std::uint64_t index) const {
    return data_ + (static_cast<std::size_t>(index) & mask_) * stride_;
  }

  // Slots are page-aligned plus a multiple of 64, so the stamp is aligned.
  FM_HOT_PATH static chk::atomic_ref<std::uint64_t> stamp(std::uint8_t* s) {
    return chk::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(s));
  }

  const std::size_t mask_;
  const std::size_t slot_bytes_;
  const std::size_t stride_;  // kPrefixBytes + slot_bytes_, cache-aligned
  const std::size_t map_bytes_;
  std::uint8_t* const data_;
  // The two sides as distinct static capabilities (no runtime state).
  fm::Role prod_role_;
  fm::Role cons_role_;
  // Consumer-owned line: its index, which the producer reads only when the
  // ring appears full. chk::atomic IS std::atomic in production
  // (chk/shim.h); under FM_CHK_MODEL the tests/chk/ binaries route every
  // access through the FM-Check scheduler to exhaustively explore this
  // ring's interleavings.
  alignas(64) chk::atomic<std::uint64_t> head_;
  // Producer-owned line: its index and its cached view of the consumer's.
  // No other thread reads them (the stamps publish each frame), so they
  // are role-guarded rather than atomic.
  alignas(64) std::uint64_t tail_ FM_GUARDED_BY(prod_role_);
  std::uint64_t head_cache_ FM_GUARDED_BY(prod_role_);
  // reserve/commit pairing check (producer-only).
  bool reserved_ FM_GUARDED_BY(prod_role_) = false;
};

}  // namespace fm::shm
