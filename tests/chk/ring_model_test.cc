// Exhaustive model checking of the real SpscRing (src/shm/spsc_ring.h,
// compiled here with FM_CHK_MODEL so every index access, publish stamp and
// slot copy is a scheduler decision point). Small capacities, few
// messages: the whole interleaving space — including delayed relaxed/plain
// stores — is explored, and FIFO delivery with uncorrupted frames must
// hold on every schedule.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "chk/model.h"
#include "chk/shim.h"
#include "gtest/gtest.h"
#include "shm/spsc_ring.h"

namespace fm::chk {
namespace {

// Producer streams `msgs` distinct 4-byte frames through a `slots`-slot
// ring via reserve/commit; consumer drains them in batches of `batch`.
// The final check asserts exact FIFO content.
Episode ring_episode(std::size_t slots, std::uint32_t msgs,
                     std::size_t batch) {
  auto ring = std::make_shared<shm::SpscRing>(slots, 8);
  auto seen = std::make_shared<std::vector<std::uint32_t>>();
  Episode ep;
  ep.threads.push_back([ring, msgs] {
    ring->assert_producer();
    for (std::uint32_t v = 1; v <= msgs; ++v) {
      for (;;) {
        std::uint8_t* dst = ring->try_reserve(4);
        if (dst != nullptr) {
          const std::uint32_t val = 0xA0000000u | v;
          shared_write(dst, &val, 4);
          ring->commit(4);
          break;
        }
        yield();  // full: wait for the consumer to free a slot
      }
    }
  });
  ep.threads.push_back([ring, seen, msgs, batch] {
    ring->assert_consumer();
    std::uint32_t got = 0;
    while (got < msgs) {
      const std::size_t n =
          ring->try_consume_batch(batch, [&](const std::uint8_t* p,
                                             std::size_t len) {
            require(len == 4, "frame length prefix corrupted");
            std::uint32_t v = 0;
            shared_read(&v, p, 4);
            require((v & 0xFF000000u) == 0xA0000000u,
                    "frame payload torn or stale");
            seen->push_back(v & 0x00FFFFFFu);
          });
      got += static_cast<std::uint32_t>(n);
      if (n == 0) yield();  // empty: wait for the producer to publish
    }
  });
  ep.finally = [seen, msgs] {
    require(seen->size() == msgs, "frame count mismatch");
    for (std::uint32_t i = 0; i < msgs; ++i)
      require((*seen)[i] == i + 1, "FIFO order violated");
  };
  return ep;
}

TEST(ChkRing, Capacity2ReserveCommitConsume) {
  ModelOptions opts;
  opts.name = "ring-cap2";
  const ModelResult res =
      explore(opts, [] { return ring_episode(2, 3, 1); });
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.schedules_explored, 1u);
  std::printf("[fm-chk] ring-cap2: explored %llu schedules\n",
              static_cast<unsigned long long>(res.schedules_explored));
}

TEST(ChkRing, Capacity4BatchedConsume) {
  ModelOptions opts;
  opts.name = "ring-cap4";
  const ModelResult res =
      explore(opts, [] { return ring_episode(4, 3, 2); });
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.schedules_explored, 1u);
  std::printf("[fm-chk] ring-cap4: explored %llu schedules\n",
              static_cast<unsigned long long>(res.schedules_explored));
}

// Third thread hammers size_approx() while producer and consumer run: the
// snapshot is racy by contract (the head load and the stamp count that
// follows it are independent), so the only assertable property is the
// clamp to [0, capacity] — which an unbounded count would violate on the
// interleaving where the producer reuses a counted slot for its next lap
// before the count reaches it again.
TEST(ChkRing, SizeApproxObserverStaysClamped) {
  ModelOptions opts;
  opts.name = "ring-size-approx";
  opts.max_preemptions = 2;
  const ModelResult res = explore(opts, [] {
    auto ring = std::make_shared<shm::SpscRing>(2, 8);
    Episode ep;
    // One producer/consumer handoff is enough to interleave the observer's
    // head load and stamp count with a publish and a retire.
    ep.threads.push_back([ring] {
      ring->assert_producer();
      const std::uint32_t v = 1;
      while (!ring->try_push(&v, 4)) yield();
    });
    ep.threads.push_back([ring] {
      ring->assert_consumer();
      while (!ring->try_consume([](const std::uint8_t*, std::size_t) {}))
        yield();
    });
    ep.threads.push_back([ring] {
      for (int i = 0; i < 2; ++i) {
        const std::size_t sz = ring->size_approx();
        require(sz <= ring->capacity(),
                "size_approx escaped its [0, capacity] clamp");
      }
    });
    return ep;
  });
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.schedules_explored, 1u);
  std::printf("[fm-chk] ring-size-approx: explored %llu schedules\n",
              static_cast<unsigned long long>(res.schedules_explored));
}

}  // namespace
}  // namespace fm::chk
