// fm::Engine over an in-memory wire with a hand-advanced clock.
//
// The engine is the one copy of the FM protocol; shm::Endpoint and
// net::Endpoint are wire adapters over it. This test supplies a third
// adapter — two endpoints joined by in-memory queues, a clock that moves
// only when the test says so, and a switch that makes the wire eat one
// direction's data frames — so FM-R's liveness rule can be checked by
// counters and fake time alone: no threads, no sockets, no sleeps. The
// same wire drives the nonblocking core's send step by hand, one frame at
// a time, to check what a shut window or credit gate does mid-message.
//
// The rule (docs/PROTOCOL.md §7): a frame whose retry budget runs out
// against a peer heard from within one detection horizon is re-armed, and
// the peer is not declared dead; only a horizon of silence kills it. Once
// it is dead, the verdict is final: frames still arriving from it are
// discarded, never delivered a second time. A wait on a peer with nothing
// in flight to it probes the peer once it falls silent, so the same rule
// still reaches a verdict.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fm/engine.h"
#include "fm/frame.h"
#include "obs/counters.h"
#include "obs/registry.h"

namespace fm {
namespace {

/// The shared medium: one inbox per node, the clock, and the loss switch.
struct FakeWire {
  std::uint64_t now_ns = 1;  // 0 reads as "never heard"
  std::array<std::deque<std::vector<std::uint8_t>>, 2> inbox;
  /// When set, every data frame node 0 sends to node 1 is lost. Acks and
  /// node 1's own traffic still flow, so node 1 stays audibly alive.
  bool drop_data_0_to_1 = false;
  /// When set, every frame is held in the network instead of arriving;
  /// release() stops holding and lets the held frames through.
  bool hold = false;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> held;
  /// Runs on every idle pause: the test's way of letting time pass (and
  /// the peer act) while an engine waits.
  std::function<void()> on_idle;

  void release() {
    hold = false;
    for (auto& [dest, frame] : held) inbox[dest].push_back(std::move(frame));
    held.clear();
  }
};

class FakeEndpoint : public Engine<FakeEndpoint> {
 public:
  FakeEndpoint(FakeWire& wire, NodeId id, const FmConfig& cfg)
      : Engine(id, 2, cfg, hw::FaultParams(), scope(id)),
        medium_(wire),
        registry_(scope(id)) {
    registry_.assert_owner();
    register_metrics(registry_);
  }

  // The nonblocking core's send, driven frame by frame by the tests.
  using Engine::Outgoing;
  using Engine::send_step;
  using Engine::start_send;

 private:
  friend class Engine<FakeEndpoint>;
  static constexpr bool kLosslessWire = false;

  static std::string scope(NodeId id) {
    return "sim.fake" + std::to_string(id);
  }

  WireStatus wire_push(NodeId dest, const std::uint8_t* frame,
                       std::size_t len) {
    const auto hdr = decode_header(frame, len);
    if (medium_.drop_data_0_to_1 && id() == 0 && dest == 1 &&
        hdr.has_value() && hdr->type == FrameType::kData)
      return WireStatus::kSent;  // the wire ate it
    if (medium_.hold)
      medium_.held.emplace_back(dest,
                                std::vector<std::uint8_t>(frame, frame + len));
    else
      medium_.inbox[dest].emplace_back(frame, frame + len);
    return WireStatus::kSent;
  }

  std::size_t wire_receive() {
    const NodeId peer = 1 - id();
    std::size_t n = 0;
    auto& q = medium_.inbox[id()];
    while (!q.empty()) {
      const std::vector<std::uint8_t> frame = std::move(q.front());
      q.pop_front();
      receive(peer, frame.data(), frame.size());
      heard_from(peer);
      flush_deferred_tx();
      ++n;
    }
    return n;
  }

  std::size_t wire_flush() { return 0; }
  void wire_idle() {
    if (medium_.on_idle) medium_.on_idle();
  }
  std::uint64_t wire_clock_ns() const { return medium_.now_ns; }

  FakeWire& medium_;
  obs::Registry registry_;
};

class EngineLiveness : public ::testing::Test {
 protected:
  // 1 ms timeout, 3 retries: one budget is 1 + 2 + 4 + 8 = 15 ms.
  static FmConfig config() {
    FmConfig cfg;
    cfg.reliability = true;
    cfg.retransmit_timeout_ns = 1'000'000;
    cfg.max_retries = 3;
    return cfg;
  }
  // Every backoff deadline is a multiple of the step, so timers fire
  // exactly on time and the fake clock adds no slack to the bounds below.
  static constexpr std::uint64_t kStep = 125'000;

  EngineLiveness() : a_(wire_, 0, config()), b_(wire_, 1, config()) {
    auto noop = [](FakeEndpoint&, NodeId, const void*, std::size_t) {};
    h_ = a_.register_handler(noop);
    EXPECT_EQ(b_.register_handler(noop), h_);
    wire_.drop_data_0_to_1 = true;
  }

  std::uint64_t horizon() const {
    const FmConfig cfg = config();
    return RetransmitTimer::detection_horizon_ns(cfg.retransmit_timeout_ns,
                                                 cfg.max_retries);
  }

  // One tick of fake time: node 1 talks (when asked to) and services its
  // endpoint, then node 0 services its own.
  void step(bool b_talks) {
    wire_.now_ns += kStep;
    if (b_talks) {
      ASSERT_TRUE(ok(b_.send4(0, h_, 1, 2, 3, 4)));
      b_.extract();
    }
    a_.extract();
  }

  FakeWire wire_;
  FakeEndpoint a_;
  FakeEndpoint b_;
  HandlerId h_ = 0;
};

TEST_F(EngineLiveness, PeerThatKeepsTalkingIsNeverDeclaredDead) {
  // Node 0's one data frame never reaches node 1, so its retry budget runs
  // out over and over — while node 1's own frames keep arriving.
  ASSERT_TRUE(ok(a_.send4(1, h_, 9, 9, 9, 9)));
  const std::uint64_t end = wire_.now_ns + 10 * horizon();
  while (wire_.now_ns < end) step(/*b_talks=*/true);

  const std::uint64_t budget = config().max_retries + 1;
  EXPECT_GE(a_.stats().retransmit_timeouts, 8 * budget)
      << "the retry budget should have run out many times";
  EXPECT_EQ(a_.stats().peers_dead, 0u);
  EXPECT_FALSE(a_.peer_dead(1));
  EXPECT_EQ(a_.unacked(), 1u) << "the frame stays retained and re-armed";
  EXPECT_EQ(b_.stats().messages_delivered, 0u);
  EXPECT_GT(a_.stats().messages_delivered, 0u);
  EXPECT_EQ(b_.stats().peers_dead, 0u);
}

TEST_F(EngineLiveness, SilentPeerIsDeclaredDeadWithinTwoHorizons) {
  ASSERT_TRUE(ok(a_.send4(1, h_, 9, 9, 9, 9)));
  // Chatter long enough that at least one budget ran out against the live
  // peer and was re-armed instead of killing it.
  const std::uint64_t chatter_end = wire_.now_ns + 3 * horizon();
  while (wire_.now_ns < chatter_end) step(/*b_talks=*/true);
  ASSERT_GT(a_.stats().retransmit_timeouts, config().max_retries + 1);
  ASSERT_FALSE(a_.peer_dead(1));
  const std::uint64_t last_heard = wire_.now_ns;
  const std::uint64_t heard_frames = a_.stats().frames_received;

  // Node 1 goes silent (a killed rank: it neither sends nor services).
  while (!a_.peer_dead(1) && wire_.now_ns < last_heard + 4 * horizon())
    step(/*b_talks=*/false);

  ASSERT_EQ(a_.stats().frames_received, heard_frames)
      << "node 1 must really have gone silent";
  ASSERT_TRUE(a_.peer_dead(1)) << "a silent peer must be declared dead";
  EXPECT_EQ(a_.stats().peers_dead, 1u);
  EXPECT_LE(wire_.now_ns - last_heard, 2 * horizon())
      << "detected " << (wire_.now_ns - last_heard) << " ns after silence; "
      << "horizon " << horizon() << " ns";
  // The purge released the frame and failed further sends fast.
  EXPECT_EQ(a_.unacked(), 0u);
  EXPECT_EQ(a_.stats().frames_discarded_dead, 1u);
  EXPECT_EQ(a_.send4(1, h_, 0, 0, 0, 0), Status::kPeerDead);
}

TEST_F(EngineLiveness, FramesFromAPeerDeclaredDeadAreDiscarded) {
  // Both nodes send, and node 1 delivers node 0's message. Then the
  // network holds every frame — retransmissions included — until each
  // node has declared the other dead, and finally lets them all through.
  // The verdict purged node 0's dedup state at node 1, so a retransmission
  // of the delivered message must be discarded, not delivered again.
  wire_.drop_data_0_to_1 = false;
  ASSERT_TRUE(ok(a_.send4(1, h_, 9, 9, 9, 9)));
  wire_.hold = true;
  ASSERT_TRUE(ok(b_.send4(0, h_, 7, 7, 7, 7)));
  b_.extract();
  ASSERT_EQ(b_.stats().messages_delivered, 1u);

  const std::uint64_t end = wire_.now_ns + 4 * horizon();
  while (!(a_.peer_dead(1) && b_.peer_dead(0)) && wire_.now_ns < end) {
    step(/*b_talks=*/false);
    b_.extract();
  }
  ASSERT_TRUE(a_.peer_dead(1));
  ASSERT_TRUE(b_.peer_dead(0));
  ASSERT_GT(a_.stats().retransmit_timeouts, 0u);

  wire_.release();
  const std::uint64_t discarded = b_.stats().frames_discarded_dead;
  a_.extract();
  b_.extract();
  EXPECT_EQ(b_.stats().messages_delivered, 1u)
      << "a retransmission from a peer declared dead was delivered again";
  EXPECT_GT(b_.stats().frames_discarded_dead, discarded);
  EXPECT_EQ(a_.stats().messages_delivered, 0u);
}

TEST_F(EngineLiveness, WaitOnAPeerThatAckedEverythingEndsPeerDead) {
  // Node 1 delivers and acks node 0's message, then stops for good (a
  // killed rank): nothing of node 0's is left in flight to time out, so
  // only the wait's probe can reach a verdict.
  wire_.drop_data_0_to_1 = false;
  ASSERT_TRUE(ok(a_.send4(1, h_, 9, 9, 9, 9)));
  b_.extract();
  b_.drain();  // flushes the ack, short of the batch threshold
  a_.extract();
  ASSERT_EQ(a_.unacked(), 0u);
  ASSERT_EQ(b_.stats().messages_delivered, 1u);
  const std::uint64_t last_heard = wire_.now_ns;

  wire_.on_idle = [this] { wire_.now_ns += kStep; };
  const std::uint64_t give_up = last_heard + 4 * horizon();
  EXPECT_EQ(a_.extract_until(1, [&] { return wire_.now_ns >= give_up; }),
            Status::kPeerDead);
  EXPECT_TRUE(a_.peer_dead(1));
  EXPECT_LE(wire_.now_ns - last_heard, 2 * horizon())
      << "detected " << (wire_.now_ns - last_heard) << " ns after silence; "
      << "horizon " << horizon() << " ns";
  EXPECT_GE(a_.stats().probes_sent, 1u);
  // A probe is not a message: the books balance with the peer dead.
  obs::Conservation c;
  c.add(a_.stats());
  c.add(b_.stats());
  EXPECT_TRUE(c.balanced()) << "imbalance " << c.imbalance();
}

TEST_F(EngineLiveness, QuietPeerThatKeepsExtractingAnswersEveryProbe) {
  // Node 1 never sends anything, but it services its endpoint on every
  // tick, so each probe is acked within one step.
  wire_.drop_data_0_to_1 = false;
  wire_.on_idle = [this] {
    wire_.now_ns += kStep;
    b_.extract();
  };
  const std::uint64_t end = wire_.now_ns + 10 * horizon();
  EXPECT_EQ(a_.extract_until(1, [&] { return wire_.now_ns >= end; }),
            Status::kOk);
  EXPECT_FALSE(a_.peer_dead(1));
  EXPECT_GE(a_.stats().probes_sent, 10u) << "at least one probe a horizon";
  EXPECT_EQ(a_.stats().retransmissions, 0u) << "an answered probe is acked "
                                               "before its timer fires";
  EXPECT_EQ(a_.unacked(), 0u);
  EXPECT_EQ(b_.stats().frames_received, a_.stats().probes_sent);
  EXPECT_EQ(b_.stats().messages_delivered, 0u) << "a probe was dispatched";
  EXPECT_EQ(b_.stats().malformed_frames, 0u);
  EXPECT_EQ(a_.stats().messages_sent, 0u);
}

TEST(EngineProbe, NothingIsSentWithoutReliability) {
  FakeWire wire;
  const FmConfig cfg;  // FM-R off
  FakeEndpoint a(wire, 0, cfg);
  FakeEndpoint b(wire, 1, cfg);
  wire.on_idle = [&] {
    wire.now_ns += 125'000;
    b.extract();
  };
  const std::uint64_t end = wire.now_ns + 150'000'000;
  EXPECT_EQ(a.extract_until(1, [&] { return wire.now_ns >= end; }),
            Status::kOk);
  EXPECT_EQ(a.stats().probes_sent, 0u);
  EXPECT_EQ(a.stats().frames_sent, 0u);
  EXPECT_EQ(b.stats().frames_received, 0u);
}

// The nonblocking core's send step over the same wire: a message longer
// than the gate admits stops with kAgain mid-message, pushes nothing more
// while the gate stays shut, and resumes at the next fragment once an ack
// reopens it.
class EngineSendStep : public ::testing::TestWithParam<bool> {
 protected:
  // Frames of 16 payload bytes, so kLen is 4 fragments against a gate of 2
  // frames: the pending window, or (window mode) the per-peer credits.
  static constexpr std::size_t kLen = 64;

  static FmConfig config(bool window_mode) {
    FmConfig cfg;
    cfg.frame_payload = 16;
    cfg.window_mode = window_mode;
    if (window_mode)
      cfg.window_per_peer = 2;
    else
      cfg.pending_window = 2;
    return cfg;
  }

  EngineSendStep()
      : a_(wire_, 0, config(GetParam())), b_(wire_, 1, config(GetParam())) {
    auto drop = [](FakeEndpoint&, NodeId, const void*, std::size_t) {};
    h_ = a_.register_handler(drop);
    EXPECT_EQ(b_.register_handler(
                  [this](FakeEndpoint&, NodeId src, const void* data,
                         std::size_t len) {
                    EXPECT_EQ(src, 0u);
                    const auto* p = static_cast<const std::uint8_t*>(data);
                    delivered_.emplace_back(p, p + len);
                  }),
              h_);
  }

  // The fragment index of the newest frame in flight to node 1.
  std::uint16_t last_frag_to_b() const {
    const auto& q = wire_.inbox[1];
    const auto h = decode_header(q.back().data(), q.back().size());
    EXPECT_TRUE(h.has_value() && h->fragmented());
    return h.has_value() ? h->frag_index : 0xffff;
  }

  FakeWire wire_;
  FakeEndpoint a_;
  FakeEndpoint b_;
  HandlerId h_ = 0;
  std::vector<std::vector<std::uint8_t>> delivered_;
};

TEST_P(EngineSendStep, ShutGateReturnsAgainAndResumesAtTheNextFragment) {
  std::vector<std::uint8_t> msg(kLen);
  for (std::size_t i = 0; i < kLen; ++i)
    msg[i] = static_cast<std::uint8_t>(i * 7 + 1);
  FakeEndpoint::Outgoing m;
  ASSERT_EQ(a_.start_send(m, 1, h_, msg.data(), msg.size()), Status::kOk);
  ASSERT_EQ(m.frags, 4u);

  // Two frames fill the gate; the third step would block.
  ASSERT_EQ(a_.send_step(m), Status::kOk);
  ASSERT_EQ(a_.send_step(m), Status::kOk);
  ASSERT_EQ(a_.send_step(m), Status::kAgain);
  ASSERT_EQ(a_.send_step(m), Status::kAgain);
  EXPECT_FALSE(m.done());
  EXPECT_EQ(m.next, 2u);
  EXPECT_EQ(wire_.inbox[1].size(), 2u) << "a shut gate must push nothing";
  EXPECT_EQ(a_.stats().frames_sent, 2u);
  EXPECT_EQ(last_frag_to_b(), 1u);

  // Node 1 takes both fragments and acks them (its ack threshold is 1 at
  // this gate size); node 0's extract() reads the ack and reopens the gate.
  EXPECT_EQ(b_.extract(), 2u);
  EXPECT_TRUE(delivered_.empty()) << "half a message must not be delivered";
  EXPECT_EQ(a_.extract(), 1u);
  EXPECT_EQ(a_.unacked(), 0u);

  ASSERT_EQ(a_.send_step(m), Status::kOk);
  EXPECT_EQ(last_frag_to_b(), 2u) << "the send resumes at the next fragment";
  ASSERT_EQ(a_.send_step(m), Status::kOk);
  EXPECT_EQ(last_frag_to_b(), 3u);
  EXPECT_TRUE(m.done());
  EXPECT_EQ(wire_.inbox[1].size(), 2u);

  b_.extract();
  a_.drain();
  b_.drain();
  ASSERT_EQ(delivered_.size(), 1u) << "delivered exactly once";
  EXPECT_EQ(delivered_[0], msg) << "delivered intact";
  EXPECT_EQ(a_.stats().frames_sent, 4u);
  obs::Conservation c;
  c.add(a_.stats());
  c.add(b_.stats());
  EXPECT_EQ(c.sent, 1u);
  EXPECT_TRUE(c.balanced()) << "imbalance " << c.imbalance();
}

INSTANTIATE_TEST_SUITE_P(Gates, EngineSendStep, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CreditGate" : "WindowGate";
                         });

}  // namespace
}  // namespace fm
