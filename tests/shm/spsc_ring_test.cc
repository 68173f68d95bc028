#include "shm/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"

namespace fm::shm {
namespace {

TEST(SpscRing, PushPopSingleThread) {
  SpscRing ring(8, 64);
  std::uint8_t msg[3] = {1, 2, 3};
  EXPECT_TRUE(ring.try_push(msg, 3));
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, FillsToCapacityExactly) {
  SpscRing ring(4, 16);
  std::uint8_t b = 7;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(&b, 1));
  EXPECT_FALSE(ring.try_push(&b, 1));
  EXPECT_EQ(ring.size_approx(), 4u);
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(&b, 1));  // slot freed
}

TEST(SpscRing, PreservesFifoAndLengths) {
  SpscRing ring(16, 64);
  for (std::uint8_t len = 1; len <= 10; ++len) {
    std::vector<std::uint8_t> msg(len, len);
    ASSERT_TRUE(ring.try_push(msg.data(), msg.size()));
  }
  for (std::uint8_t len = 1; len <= 10; ++len) {
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out.size(), len);
    for (auto b : out) EXPECT_EQ(b, len);
  }
}

TEST(SpscRing, ZeroLengthFrames) {
  SpscRing ring(4, 16);
  EXPECT_TRUE(ring.try_push(nullptr, 0));
  std::vector<std::uint8_t> out{1, 2};
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(out.empty());
}

TEST(SpscRing, ReserveCommitInPlace) {
  SpscRing ring(4, 32);
  std::uint8_t* slot = ring.try_reserve(5);
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(ring.empty_approx());  // invisible until commit
  for (int i = 0; i < 5; ++i) slot[i] = static_cast<std::uint8_t>(10 + i);
  ring.commit(5);
  EXPECT_EQ(ring.size_approx(), 1u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{10, 11, 12, 13, 14}));
}

TEST(SpscRing, CommitMayShrinkReservation) {
  SpscRing ring(4, 64);
  std::uint8_t* slot = ring.try_reserve(64);
  ASSERT_NE(slot, nullptr);
  slot[0] = 0xAB;
  ring.commit(1);  // serialized frame came out shorter than the bound
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0xAB);
}

TEST(SpscRing, ReserveCommitWrapsAround) {
  SpscRing ring(4, 16);
  // Many laps around a tiny ring: every slot gets reused with fresh
  // lengths, and FIFO order survives the index wrap at each lap.
  std::uint32_t produced = 0, consumed = 0;
  for (int lap = 0; lap < 10; ++lap) {
    while (true) {
      std::uint8_t* slot = ring.try_reserve(8);
      if (slot == nullptr) break;
      std::memcpy(slot, &produced, 4);
      ring.commit(4 + (produced % 5));
      ++produced;
    }
    EXPECT_EQ(ring.size_approx(), 4u);
    while (ring.try_consume([&](const std::uint8_t* p, std::size_t n) {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      EXPECT_EQ(v, consumed);
      EXPECT_EQ(n, 4 + (v % 5));
      ++consumed;
    })) {
    }
  }
  EXPECT_EQ(produced, consumed);
  EXPECT_EQ(produced, 40u);
}

TEST(SpscRing, BatchConsumeAcrossWrapBoundary) {
  SpscRing ring(8, 16);
  std::uint32_t next_in = 0, next_out = 0;
  // Offset the indices mid-ring so a full batch of 8 straddles the
  // physical end of the slot array.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_push(&next_in, 4));
    ++next_in;
  }
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    ++next_out;
  }
  next_out = 5;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_push(&next_in, 4));
    ++next_in;
  }
  std::size_t got = ring.try_consume_batch(
      8, [&](const std::uint8_t* p, std::size_t n) {
        ASSERT_EQ(n, 4u);
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        EXPECT_EQ(v, next_out);
        ++next_out;
      });
  EXPECT_EQ(got, 8u);
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, BatchConsumeHonorsMax) {
  SpscRing ring(8, 16);
  std::uint8_t b = 9;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.try_push(&b, 1));
  std::size_t seen = 0;
  EXPECT_EQ(ring.try_consume_batch(4, [&](const std::uint8_t*, std::size_t) {
              ++seen;
            }),
            4u);
  EXPECT_EQ(seen, 4u);
  EXPECT_EQ(ring.size_approx(), 2u);
}

TEST(SpscRing, FullEmptyNearIndexWraparound) {
  // Monotonic mod-2^64 indices: start both just below the wrap so every
  // full/empty comparison in this test crosses UINT64_MAX.
  SpscRing ring(4, 16, /*start_index=*/UINT64_MAX - 1);
  std::uint32_t v = 0;
  for (; v < 4; ++v) ASSERT_TRUE(ring.try_push(&v, 4));
  EXPECT_FALSE(ring.try_push(&v, 4));  // full across the wrap
  EXPECT_EQ(ring.size_approx(), 4u);
  std::uint32_t expect = 0;
  std::size_t got = ring.try_consume_batch(
      4, [&](const std::uint8_t* p, std::size_t n) {
        ASSERT_EQ(n, 4u);
        std::uint32_t u;
        std::memcpy(&u, p, 4);
        EXPECT_EQ(u, expect);
        ++expect;
      });
  EXPECT_EQ(got, 4u);
  EXPECT_TRUE(ring.empty_approx());
  ASSERT_TRUE(ring.try_push(&v, 4));  // reusable after the wrap
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(ring.try_pop(out));
}

TEST(SpscRing, NewRingIsEmptyWhateverMemoryItGot) {
  // Each ring is built where a destroyed ring of the same geometry may
  // have lived, and every one dies with frames unconsumed, so its slots
  // hold the very stamps a new ring's first lap expects. A ring whose
  // memory were recycled rather than zeroed would hand those frames out:
  // not necessarily at slot 0, whose first bytes an allocator's free-list
  // bookkeeping may overwrite, but right after it.
  const std::uint8_t frame[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto nop = [](const std::uint8_t*, std::size_t) {};
  for (int round = 0; round < 64; ++round) {
    SpscRing ring(8, 64);
    EXPECT_EQ(ring.try_consume_batch(8, nop), 0u) << "round " << round;
    ASSERT_TRUE(ring.try_push(frame, sizeof frame));
    EXPECT_EQ(ring.try_consume_batch(8, nop), 1u) << "round " << round;
    // Leave 0..7 frames behind for the next round's memory.
    for (int i = 0; i < round % 8; ++i)
      ASSERT_TRUE(ring.try_push(frame, sizeof frame));
  }
}

TEST(SpscRingDeathTest, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(SpscRing(3, 16), "power of two");
}

TEST(SpscRingDeathTest, RejectsOversizedFrame) {
  SpscRing ring(4, 8);
  std::uint8_t msg[16] = {};
  EXPECT_DEATH((void)ring.try_push(msg, 16), "exceeds slot");
}

// Cross-thread stress: a producer pushes checksummed random frames, a
// consumer verifies content and order.
class SpscRingStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpscRingStress, TwoThreadIntegrity) {
  const std::size_t slots = GetParam();
  SpscRing ring(slots, 256);
  const int kFrames = 20000;
  std::thread producer([&] {
    Xoshiro256 rng(42);
    for (int i = 0; i < kFrames; ++i) {
      std::uint8_t msg[256];
      std::size_t len = 4 + rng.below(200);
      std::memcpy(msg, &i, 4);
      for (std::size_t k = 4; k < len; ++k)
        msg[k] = static_cast<std::uint8_t>(i + k);
      while (!ring.try_push(msg, len)) std::this_thread::yield();
    }
  });
  int next = 0;
  std::vector<std::uint8_t> out;
  while (next < kFrames) {
    if (!ring.try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    int seq;
    ASSERT_GE(out.size(), 4u);
    std::memcpy(&seq, out.data(), 4);
    ASSERT_EQ(seq, next);
    for (std::size_t k = 4; k < out.size(); ++k)
      ASSERT_EQ(out[k], static_cast<std::uint8_t>(seq + k));
    ++next;
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpscRingStress, ::testing::Values(2, 8, 64));

// Same stress through the zero-copy API: the producer serializes in place
// via reserve/commit, the consumer drains via try_consume_batch. This is
// the pairing the endpoint hot path uses, and the pairing the TSan CI job
// watches for ordering bugs (a missing release/acquire edge between commit
// and batch-consume shows up here as a data race or a torn frame).
class SpscRingBatchStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpscRingBatchStress, ReserveCommitBatchConsumeIntegrity) {
  const std::size_t slots = GetParam();
  SpscRing ring(slots, 256, /*start_index=*/UINT64_MAX - 1000);
  const int kFrames = 20000;
  std::thread producer([&] {
    Xoshiro256 rng(7);
    for (int i = 0; i < kFrames; ++i) {
      const std::size_t len = 4 + rng.below(200);
      std::uint8_t* slot;
      while ((slot = ring.try_reserve(len)) == nullptr)
        std::this_thread::yield();
      std::memcpy(slot, &i, 4);
      for (std::size_t k = 4; k < len; ++k)
        slot[k] = static_cast<std::uint8_t>(i + k);
      ring.commit(len);
    }
  });
  int next = 0;
  while (next < kFrames) {
    const std::size_t got = ring.try_consume_batch(
        16, [&](const std::uint8_t* p, std::size_t n) {
          int seq;
          ASSERT_GE(n, 4u);
          std::memcpy(&seq, p, 4);
          ASSERT_EQ(seq, next);
          for (std::size_t k = 4; k < n; ++k)
            ASSERT_EQ(p[k], static_cast<std::uint8_t>(seq + k));
          ++next;
        });
    if (got == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpscRingBatchStress,
                         ::testing::Values(2, 8, 64));

// Single-threaded, the three size views must agree exactly: size_approx's
// raciness and producer_size/consumer_size's one-sided staleness only show
// up while the other side moves (model-checked in tests/chk).
TEST(SpscRingSize, RoleViewsAreExactSingleThreaded) {
  SpscRing ring(4, 16);
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_EQ(ring.producer_size(), 0u);
  EXPECT_EQ(ring.consumer_size(), 0u);

  std::uint32_t v = 0;
  for (std::size_t n = 1; n <= 4; ++n) {
    ASSERT_TRUE(ring.try_push(&v, 4));
    EXPECT_EQ(ring.size_approx(), n);
    EXPECT_EQ(ring.producer_size(), n);
    EXPECT_EQ(ring.consumer_size(), n);
  }
  EXPECT_FALSE(ring.try_push(&v, 4));  // full

  for (std::size_t n = 4; n > 0; --n) {
    ASSERT_TRUE(ring.try_consume([](const std::uint8_t*, std::size_t) {}));
    EXPECT_EQ(ring.size_approx(), n - 1);
    EXPECT_EQ(ring.producer_size(), n - 1);
    EXPECT_EQ(ring.consumer_size(), n - 1);
  }
}

TEST(SpscRingSize, ViewsTrackAcrossIndexWraparound) {
  // Mod-2^64 index wrap must not disturb any of the size views.
  SpscRing ring(4, 16, /*start_index=*/UINT64_MAX - 1);
  std::uint32_t v = 0;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(&v, 4));
  EXPECT_EQ(ring.size_approx(), 3u);
  EXPECT_EQ(ring.producer_size(), 3u);
  EXPECT_EQ(ring.consumer_size(), 3u);
  ASSERT_TRUE(ring.try_consume([](const std::uint8_t*, std::size_t) {}));
  EXPECT_EQ(ring.size_approx(), 2u);
  EXPECT_EQ(ring.producer_size(), 2u);
  EXPECT_EQ(ring.consumer_size(), 2u);
}

// The clamp contract: whatever interleaving the head load and the stamp
// count land on, the reported value never escapes [0, capacity]. Concurrent readers
// hammer size_approx() through a full producer/consumer run; the exhaustive
// interleaving-level version of this check lives in tests/chk (FM-Check).
TEST(SpscRingSize, SizeApproxStaysClampedUnderConcurrency) {
  SpscRing ring(8, 16);
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t sz = ring.size_approx();
      ASSERT_LE(sz, ring.capacity());
    }
  });
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < 20000; ++i)
      while (!ring.try_push(&i, 4)) std::this_thread::yield();
  });
  int seen = 0;
  while (seen < 20000) {
    if (ring.try_consume([](const std::uint8_t*, std::size_t) {}))
      ++seen;
    else
      std::this_thread::yield();
  }
  producer.join();
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_TRUE(ring.empty_approx());
}

}  // namespace
}  // namespace fm::shm
