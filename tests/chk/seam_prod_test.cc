// Production-mode seam checks: this binary compiles the SAME headers as
// the model-checking tests but WITHOUT FM_CHK_MODEL, proving the seam is
// free: chk::atomic<T> and chk::atomic_ref<T> are literally std::atomic<T>
// and std::atomic_ref<T> (type aliases — zero ABI or codegen difference),
// the shared-copy helpers are memcpy, and the instrumented structures
// behave identically.
#include <atomic>
#include <cstring>
#include <type_traits>

#include "chk/shim.h"
#include "gtest/gtest.h"
#include "shm/spsc_ring.h"

namespace fm::chk {
namespace {

// The tentpole's zero-overhead claim, enforced at compile time: in a
// production build the seam type IS the std type, not a wrapper.
static_assert(std::is_same_v<atomic<std::uint64_t>, std::atomic<std::uint64_t>>,
              "production chk::atomic must be std::atomic itself");
static_assert(std::is_same_v<atomic<int>, std::atomic<int>>,
              "production chk::atomic must be std::atomic itself");
// The ring's in-slot publish stamps go through the same seam.
static_assert(std::is_same_v<atomic_ref<std::uint64_t>,
                             std::atomic_ref<std::uint64_t>>,
              "production chk::atomic_ref must be std::atomic_ref itself");

TEST(ChkSeamProd, SharedCopyHelpersAreMemcpy) {
  std::uint8_t src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint8_t dst[8] = {0};
  shared_write(dst, src, sizeof(src));
  EXPECT_EQ(std::memcmp(dst, src, sizeof(src)), 0);
  std::uint8_t back[8] = {0};
  shared_read(back, dst, sizeof(back));
  EXPECT_EQ(std::memcmp(back, src, sizeof(back)), 0);
  yield();  // must be a no-op
}

TEST(ChkSeamProd, RingWorksUninstrumented) {
  shm::SpscRing ring(4, 16);
  ring.assert_producer();
  ring.assert_consumer();
  for (std::uint32_t v = 1; v <= 3; ++v)
    ASSERT_TRUE(ring.try_push(&v, sizeof(v)));
  EXPECT_EQ(ring.size_approx(), 3u);
  EXPECT_EQ(ring.producer_size(), 3u);
  EXPECT_EQ(ring.consumer_size(), 3u);
  std::uint32_t expect = 1;
  while (expect <= 3) {
    ASSERT_TRUE(ring.try_consume([&](const std::uint8_t* p, std::size_t n) {
      ASSERT_EQ(n, sizeof(std::uint32_t));
      std::uint32_t v = 0;
      std::memcpy(&v, p, n);
      EXPECT_EQ(v, expect);
    }));
    ++expect;
  }
  EXPECT_TRUE(ring.empty_approx());
  EXPECT_EQ(ring.producer_size(), 0u);
  EXPECT_EQ(ring.consumer_size(), 0u);
}

}  // namespace
}  // namespace fm::chk
