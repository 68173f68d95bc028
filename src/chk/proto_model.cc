#include "chk/proto_model.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "fm/engine.h"
#include "fm/frame.h"
#include "fm/protocol.h"
#include "obs/registry.h"

namespace fm::chk {
namespace {

// The adversary only ever distinguishes the first few in-flight frames:
// delivering frame 0..kDeliverWindow-1 out of order covers reordering
// without exploding the branching factor.
constexpr std::size_t kDeliverWindow = 2;
// Adversarial timer expiries per prefix (the fair suffix ticks freely).
constexpr std::size_t kMaxAdversarialTicks = 2;
// Fair-suffix rounds before the model declares the run stuck.
constexpr std::size_t kFairRounds = 50;
// Deliveries and extracts one settle() may take before it gives up.
constexpr std::size_t kSettleSteps = 1000;

using Bytes = std::vector<std::uint8_t>;

/// What lies between the two engines: the in-flight frames the adversary
/// controls, each rank's inbox of delivered frames, and the model clock.
struct World {
  struct InFlight {
    NodeId dest = 0;
    Bytes bytes;
  };
  Explorer& ex;
  const ProtoParams& p;
  std::vector<InFlight> net;
  std::array<std::vector<Bytes>, 2> inbox;  // delivered, not yet extracted
  std::uint64_t now = 1;                    // 0 reads as "never heard"
};

/// One rank: a real fm::Engine over the model wire. The adapter only moves
/// frames between its engine and the world.
class ModelRank : public Engine<ModelRank> {
 public:
  ModelRank(World& world, NodeId id)
      : Engine(id, 2, world.p.cfg, hw::FaultParams(), scope(id)),
        world_(world),
        registry_(scope(id)) {
    register_metrics(registry_);
  }

  /// True when the engine owes its peer acks (its own "acks.due" gauge).
  bool owes_acks() {
    registry_.assert_owner();
    for (const obs::Sample& s : registry_.snapshot())
      if (s.name == registry_.scope() + ".acks.due") return s.value > 0;
    return false;
  }

 private:
  friend class Engine<ModelRank>;
  // The model wire drops and duplicates frames, so it is not lossless. It
  // never corrupts them: the final checks fail any malformed frame.
  static constexpr bool kLosslessWire = false;

  static std::string scope(NodeId id) {
    return "chk.rank" + std::to_string(id);
  }

  WireStatus wire_push(NodeId dest, const std::uint8_t* frame,
                       std::size_t len) {
    const auto h = decode_header(frame, len);
    // With an audible peer the adversary owns only rank 0's data frames;
    // everything else reaches its destination's next extract untouched.
    if (world_.p.audible_peer &&
        !(id() == 0 && h.has_value() && h->type == FrameType::kData))
      world_.inbox[dest].emplace_back(frame, frame + len);
    else
      world_.net.push_back({dest, Bytes(frame, frame + len)});
    return WireStatus::kSent;
  }

  std::size_t wire_receive() {
    const std::vector<Bytes> frames = std::exchange(world_.inbox[id()], {});
    for (const Bytes& f : frames) {
      receive(1 - id(), f.data(), f.size());
      flush_deferred_tx();
    }
    if (!frames.empty()) heard_from(1 - id());
    return frames.size();
  }

  std::size_t wire_flush() { return 0; }

  // Nothing else runs while an engine waits, so it would wait forever:
  // the model only calls what cannot block.
  void wire_idle() {
    world_.ex.fail("rank " + std::to_string(id()) + " waited in the model");
  }

  std::uint64_t wire_clock_ns() const { return world_.now; }

  World& world_;
  obs::Registry registry_;
};

/// The world, the two ranks in it, and the oracle over them.
class ProtoModel : World {
 public:
  ProtoModel(Explorer& ex, const ProtoParams& p)
      : World{ex, p, {}, {}},
        faults_left_(p.fault_budget),
        rank0_(*this, 0),
        rank1_(*this, 1) {
    auto handler = [this](ModelRank&, NodeId src, const void* data,
                          std::size_t len) { on_deliver(src, data, len); };
    handler_ = rank0_.register_handler(handler);
    FM_CHECK(rank1_.register_handler(handler) == handler_);
  }

  ProtoStats run() {
    adversarial_prefix();
    fair_suffix();
    final_checks();
    return {rank0_.stats(), rank1_.stats()};
  }

 private:
  ModelRank& rank(NodeId r) { return r == 0 ? rank0_ : rank1_; }
  // A silent peer falls quiet for good once it has delivered every message
  // and owes no acks.
  bool live(NodeId r) {
    silenced_ = silenced_ || (p.silent_peer && !rank1_.owes_acks() &&
                              rank1_.stats().messages_delivered == p.msgs);
    return r == 0 || (!p.kill_node1 && !silenced_);
  }

  // ---- the oracle --------------------------------------------------------

  void on_deliver(NodeId src, const void* data, std::size_t len) {
    std::uint32_t id = 0;
    std::memcpy(&id, data, std::min(len, sizeof id));
    ex.check(delivered_.insert((std::uint64_t{src} << 32) | id).second,
             "exactly-once violated: message delivered twice");
  }

  // ---- the world ---------------------------------------------------------

  bool can_send(NodeId r) {
    return (r == 0 || p.both_send) && next_msg_[r] < p.msgs &&
           !rank(r).peer_dead(1 - r) &&
           rank(r).unacked() + p.frags <= p.cfg.pending_window;
  }

  // A message is `frags` full frames, each word its id.
  void send_next(NodeId r) {
    const std::vector<std::uint32_t> words(
        p.frags * p.cfg.frame_payload / sizeof(std::uint32_t), next_msg_[r]++);
    ex.check(ok(rank(r).send(1 - r, handler_, words.data(),
                             words.size() * sizeof(std::uint32_t))),
             "send refused");
  }

  // drain() returns at once only with nothing in flight; otherwise it
  // would wait for acks, which inside the model is a bug.
  bool can_drain(NodeId r) {
    return live(r) && rank(r).unacked() == 0 &&
           rank(r).reject_queue_depth() == 0 && rank(r).owes_acks();
  }

  void deliver(std::size_t i) {
    InFlight f = std::move(net[i]);
    net.erase(net.begin() + static_cast<long>(i));
    if (!live(f.dest)) return;  // a dead rank processes nothing
    inbox[f.dest].push_back(std::move(f.bytes));
    rank(f.dest).extract();
  }

  // One tick is one detection horizon: every armed deadline passes, and a
  // peer not heard from since the last tick has been silent a full horizon.
  void tick() {
    ++ticks_;
    now += RetransmitTimer::detection_horizon_ns(p.cfg.retransmit_timeout_ns,
                                                 p.cfg.max_retries);
    // An audible peer speaks first, so rank 0 hears it in the very extract
    // whose timer tick may run a retry budget out against it.
    if (p.audible_peer && rank0_.unacked() > 0 &&
        rank1_.unacked() < p.cfg.pending_window)
      send_next(1);
    for (NodeId r = 0; r < 2; ++r)
      if (live(r)) rank(r).extract();
    if (p.probe) rank0_.probe(1);
  }

  void adversarial_prefix() {
    for (std::size_t step = 0; step < p.depth; ++step) {
      std::vector<std::function<void()>> moves;
      for (NodeId r = 0; r < 2; ++r)
        if (can_send(r)) moves.push_back([this, r] { send_next(r); });
      for (std::size_t i = 0; i < std::min(net.size(), kDeliverWindow); ++i)
        moves.push_back([this, i] { deliver(i); });
      if (faults_left_ > 0 && !net.empty()) {
        moves.push_back([this] {  // drop
          --faults_left_;
          net.erase(net.begin());
        });
        moves.push_back([this] {  // duplicate
          --faults_left_;
          net.push_back(net.front());
        });
      }
      for (NodeId r = 0; r < 2; ++r)
        if (can_drain(r)) moves.push_back([this, r] { rank(r).drain(); });
      // With probes on, a tick is worth taking even with nothing in flight:
      // it sends a probe the adversary can then lose or hold.
      if (ticks_ < kMaxAdversarialTicks &&
          (p.probe || rank0_.unacked() + rank1_.unacked() > 0))
        moves.push_back([this] { tick(); });
      // An extract with no new arrival still re-injects parked rejects.
      for (NodeId r = 0; r < 2; ++r)
        if (live(r) && (!inbox[r].empty() || rank(r).reject_queue_depth() > 0))
          moves.push_back([this, r] { rank(r).extract(); });
      if (moves.empty()) break;
      moves[ex.choose(moves.size())]();
    }
  }

  // Delivers every in-flight frame in order, lets each rank process what
  // reached it and drains owed acks, until the wire is quiet.
  void settle() {
    for (std::size_t step = 0; step < kSettleSteps; ++step) {
      if (!net.empty()) {
        deliver(0);
        continue;
      }
      bool acted = false;
      for (NodeId r = 0; r < 2; ++r) {
        if (live(r) && !inbox[r].empty()) {
          rank(r).extract();
          acted = true;
        } else if (can_drain(r)) {
          rank(r).drain();
          acted = true;
        }
      }
      if (!acted) return;
    }
    ex.fail("fair phase never settled: frames keep flowing");
  }

  bool quiescent() {
    if (!net.empty()) return false;
    // Rank 0 waits on a silent peer until it is declared dead.
    if (p.silent_peer && !rank0_.peer_dead(1)) return false;
    for (NodeId r = 0; r < 2; ++r)
      if (live(r) && (!inbox[r].empty() || rank(r).unacked() > 0 ||
                      rank(r).reject_queue_depth() > 0 || can_send(r)))
        return false;
    return true;
  }

  void fair_suffix() {
    for (std::size_t round = 0; round < kFairRounds && !quiescent(); ++round) {
      for (NodeId r = 0; r < 2; ++r)
        while (can_send(r)) send_next(r);
      settle();
      tick();  // every rank extracts: parked rejects re-inject, timers fire
      settle();
    }
    ex.check(quiescent(), "no quiescence within fair-phase bound");
  }

  void final_checks() {
    obs::Conservation c;
    for (NodeId r = 0; r < 2; ++r) {
      ex.check(rank(r).stats().malformed_frames == 0,
               "malformed frame on a wire that never corrupts");
      c.add(rank(r).stats());
    }
    // Strict balance needs every peer alive (see obs::Conservation).
    ex.check(c.peers_dead == 0 ? c.balanced() : c.no_spontaneous_messages(),
             "conservation violated: sent vs delivered + abandoned");
    const obs::EndpointCounters& s0 = rank0_.stats();
    if (p.kill_node1) {
      ex.check(delivered_.empty(), "dead receiver delivered a message");
      ex.check(s0.frames_received == 0, "dead receiver produced an ack");
      ex.check(s0.peers_dead == 1 || s0.frames_sent == 0,
               "silent peer never declared dead");
      ex.check(s0.frames_discarded_dead == s0.frames_sent,
               "dead-peer convergence: some frames never purged");
    } else if (p.silent_peer) {
      ex.check(s0.peers_dead == 1, "silent peer never declared dead");
      ex.check(c.balanced(), "conservation violated: a probe was counted");
    } else if (!p.both_send) {
      ex.check(c.peers_dead == 0, "live peer declared dead");
      ex.check(rank1_.stats().messages_delivered == p.msgs,
               "liveness violated: message lost despite live receiver");
    }
  }

  std::size_t faults_left_;
  std::size_t ticks_ = 0;
  bool silenced_ = false;
  std::array<std::uint32_t, 2> next_msg_{};
  std::set<std::uint64_t> delivered_;  // oracle: (src << 32) | message id
  ModelRank rank0_;
  ModelRank rank1_;
  HandlerId handler_ = 0;
};

}  // namespace

ProtoStats run_proto_model(Explorer& ex, const ProtoParams& p) {
  return ProtoModel(ex, p).run();
}

}  // namespace fm::chk
