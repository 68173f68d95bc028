// Found-then-fixed fixture for the weak-memory engine: a trimmed SPSC ring
// that publishes each frame through a stamp in its slot, as the real ring
// does, but stores the stamp with memory_order_relaxed instead of release.
// Under sequential consistency (max_delayed_stores = 0) the bug is
// invisible — every interleaving still delivers intact frames. With one
// delayed store allowed, FM-Check must find the schedule where the payload
// write is still sitting in the producer's store buffer when the relaxed
// stamp store makes the slot visible, and the consumer reads a torn
// (stale-zero) frame. The real ring's release store drains the buffer first
// (chk/sched.cc models exactly that edge), so the fixed variant stays clean
// even in weak mode.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "chk/model.h"
#include "chk/shim.h"
#include "gtest/gtest.h"

namespace fm::chk {
namespace {

// Minimal 2-slot SPSC ring of u32 payloads, each slot stamped 2i+1 when
// frame i is published (zero: never published); `kReleasePublish` selects
// the correct release stamp store (fixed) or the buggy relaxed one.
template <bool kReleasePublish>
class MiniRing {
 public:
  bool try_push(std::uint32_t v) {
    const std::uint64_t tail = tail_;  // producer-private
    if (tail - head_.load(std::memory_order_acquire) > 1) return false;
    Slot& s = slots_[tail & 1];
    shared_write(&s.payload, &v, sizeof(v));
    atomic_ref<std::uint64_t>(s.stamp).store(
        2 * tail + 1, kReleasePublish ? std::memory_order_release
                                      : std::memory_order_relaxed);
    tail_ = tail + 1;
    return true;
  }

  bool try_pop(std::uint32_t* out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[head & 1];
    if (atomic_ref<std::uint64_t>(s.stamp).load(std::memory_order_acquire) !=
        2 * head + 1)
      return false;
    shared_read(out, &s.payload, sizeof(*out));
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Slot {
    std::uint64_t stamp = 0;
    std::uint32_t payload = 0;
  };
  atomic<std::uint64_t> head_{0};
  std::uint64_t tail_ = 0;
  Slot slots_[2];
};

template <bool kReleasePublish>
Episode publish_episode() {
  auto ring = std::make_shared<MiniRing<kReleasePublish>>();
  Episode ep;
  ep.threads.push_back([ring] {
    while (!ring->try_push(0xDEADBEEFu)) yield();
  });
  ep.threads.push_back([ring] {
    std::uint32_t v = 0;
    while (!ring->try_pop(&v)) yield();
    require(v == 0xDEADBEEFu, "torn frame: slot visible before its payload");
  });
  return ep;
}

TEST(ChkBuggyRing, WeakMemoryFindsTornPublish) {
  ModelOptions opts;
  opts.name = "buggy-ring-weak";
  opts.max_delayed_stores = 1;
  const ModelResult res = explore(opts, publish_episode</*release=*/false>);
  ASSERT_TRUE(res.violation)
      << "weak-memory engine missed the relaxed-publish bug";
  EXPECT_NE(res.message.find("torn frame"), std::string::npos) << res.message;
  EXPECT_GT(res.schedules_explored, 1u);
  std::printf("[fm-chk] buggy-ring-weak: explored %llu schedules\n",
              static_cast<unsigned long long>(res.schedules_explored));

  // The counterexample replays bit-for-bit (FM_CHK_SCHEDULE contract).
  const ModelResult again =
      replay(opts, publish_episode</*release=*/false>, res.schedule);
  ASSERT_TRUE(again.violation);
  EXPECT_EQ(again.message, res.message);
}

TEST(ChkBuggyRing, SeqConsistentModeCannotSeeIt) {
  ModelOptions opts;
  opts.name = "buggy-ring-sc";
  opts.max_delayed_stores = 0;  // interleavings only: the bug needs weak memory
  const ModelResult res = explore(opts, publish_episode</*release=*/false>);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.schedules_explored, 1u);
}

TEST(ChkBuggyRing, ReleasePublishIsCleanEvenWeak) {
  ModelOptions opts;
  opts.name = "fixed-ring-weak";
  opts.max_delayed_stores = 1;
  const ModelResult res = explore(opts, publish_episode</*release=*/true>);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.schedules_explored, 1u);
}

}  // namespace
}  // namespace fm::chk
