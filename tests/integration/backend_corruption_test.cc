// Backend-parameterized corruption run without CRC: the engine's rule for
// a frame that decodes but names an unregistered handler.
//
// Without the CRC trailer FM delivers corrupted frames by design (§4.5:
// fault tolerance belongs to a higher layer), so a flipped bit in the
// handler field yields a well-formed frame for a handler no node
// registered. The engine drops such a frame and counts it in
// malformed_frames — FM-R's retransmission re-sources the intact copy —
// and stops with FM_CHECK only on a lossless wire with no fault injector,
// where it can only be a protocol bug. Exactly-once is deliberately not
// asserted: a corrupted payload or sequence number is delivered as is.
#include <gtest/gtest.h>

#include <cstdint>

#include "support/backends.h"

namespace fm {
namespace {

template <class B>
class BackendCorruption : public ::testing::Test {};

TYPED_TEST_SUITE(BackendCorruption, testing::BothBackends,
                 testing::BackendNames);

TYPED_TEST(BackendCorruption, UnregisteredHandlerFramesAreDroppedAndCounted) {
  using Endpoint = typename TypeParam::Endpoint;
  constexpr std::uint32_t kMessages = 5000;
  FmConfig cfg;
  cfg.reliability = true;
  cfg.crc_frames = false;
  hw::FaultParams faults;
  faults.corrupt_rate = 0.05;
  auto cluster = TypeParam::make_as_is(2, cfg, faults);
  const HandlerId h = cluster->register_handler(
      [](Endpoint&, NodeId, const void*, std::size_t) {});
  RunReport r = TypeParam::run(*cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (std::uint32_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(ok(ep.send4(1, h, i, i, i, i)));
      ep.drain();
    }
    barrier_serviced(*cluster, ep);
  });
  EXPECT_TRUE(r.all_clean());
  EXPECT_GT(r.sum_counter("malformed_frames"), 0.0)
      << "5% corruption without CRC should have produced malformed frames";
}

}  // namespace
}  // namespace fm
