// Exhaustive protocol-state-space exploration: every fault schedule the
// bounded 2-rank model admits (chk/proto_model.h), two real fm::Engines
// over a model wire, with the FM-R invariants — exactly-once, sent ==
// delivered + abandoned conservation, quiescence, dead-peer convergence,
// congestion-is-not-death, a silent peer found by the liveness probe —
// checked on every path.
#include <algorithm>
#include <cstdio>
#include <string>

#include "chk/explore.h"
#include "chk/proto_model.h"
#include "gtest/gtest.h"

namespace fm::chk {
namespace {

struct Aggregate {
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t dead_paths = 0;
  std::uint64_t max_timeouts = 0;  // most timer firings one rank took
  std::uint64_t probes = 0;

  void add(const ProtoStats& s) {
    for (const obs::EndpointCounters& c : s) {
      delivered += c.messages_delivered;
      rejected += c.rejects_issued;
      retransmits += c.retransmit_timeouts;
      abandoned += c.frames_discarded_dead;
      max_timeouts = std::max(max_timeouts, c.retransmit_timeouts);
      probes += c.probes_sent;
    }
    dead_paths += s[0].peers_dead + s[1].peers_dead > 0 ? 1 : 0;
  }
};

Explorer::Result enumerate(const char* name, const ProtoParams& p,
                           Aggregate* agg) {
  Explorer::Options opts;
  opts.name = name;
  const Explorer::Result res = Explorer::run_all(
      opts, [&](Explorer& ex) { agg->add(run_proto_model(ex, p)); });
  std::printf("[fm-chk] %s: explored %llu schedules\n", name,
              static_cast<unsigned long long>(res.paths_explored));
  return res;
}

TEST(ChkProto, SingleMessageAllFaultSchedules) {
  ProtoParams p;
  p.msgs = 1;
  p.frags = 1;
  p.fault_budget = 1;
  p.depth = 5;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-basic", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  // Somewhere in the tree a drop or a timer expiry forced a retransmission
  // — the dedup/exactly-once machinery was actually exercised.
  EXPECT_GT(agg.retransmits, 0u);
  EXPECT_GT(agg.delivered, 0u);
}

TEST(ChkProto, TwoMessagesWindowPressure) {
  ProtoParams p;
  p.msgs = 2;
  p.frags = 1;
  p.cfg.pending_window = 2;
  p.fault_budget = 1;
  p.depth = 5;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-window", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  EXPECT_GT(agg.delivered, 0u);
}

TEST(ChkProto, FragmentedRejectPath) {
  // One reassembly slot, two interleavable fragmented messages: schedules
  // where msg 1's first fragment lands while msg 0 still holds the slot
  // must bounce it (return-to-sender) and later re-inject and deliver it.
  // The window must admit both messages' fragments at once, or msg 1 can
  // never be in flight while msg 0 is half-assembled.
  ProtoParams p;
  p.msgs = 2;
  p.frags = 2;
  p.cfg.pending_window = 4;
  p.cfg.reassembly_slots = 1;
  p.fault_budget = 0;  // rejections come from slot pressure, not faults
  p.depth = 6;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-reject", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  EXPECT_GT(agg.rejected, 0u)
      << "no explored schedule exercised the return-to-sender path";
  EXPECT_GT(agg.delivered, 0u);
}

TEST(ChkProto, DeadPeerConvergence) {
  ProtoParams p;
  p.msgs = 1;
  p.frags = 1;
  p.fault_budget = 0;
  p.depth = 4;
  p.kill_node1 = true;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-dead-peer", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  // Every path that sent anything must have declared the peer dead and
  // abandoned the frames (the per-path invariants enforce the rest).
  EXPECT_EQ(agg.delivered, 0u);
  EXPECT_GT(agg.dead_paths, 0u);
  EXPECT_GT(agg.abandoned, 0u);
}

TEST(ChkProto, BothWaysStayExactlyOnceAcrossDeadVerdicts) {
  // Both ranks send, and the adversary may hold any frame across enough
  // ticks to run a retry budget out, so either side may declare the other
  // dead. A dead verdict forgets the peer's dedup state: a retransmission
  // released after it must be discarded, not delivered a second time.
  ProtoParams p;
  p.cfg.max_retries = 1;
  p.both_send = true;
  p.msgs = 1;
  p.fault_budget = 1;
  p.depth = 6;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-both-ways", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  EXPECT_GT(agg.dead_paths, 0u) << "no explored schedule declared a peer dead";
  EXPECT_GT(agg.delivered, 0u);
}

TEST(ChkProto, AudiblePeerIsNeverDeclaredDead) {
  // The alive-grace rule: rank 1 talks on every tick while rank 0 has
  // frames in flight, and the adversary may lose or hold every one of rank
  // 0's data frames for a whole retry budget. Running the budget out
  // against a peer heard this horizon is congestion: re-arm, not death.
  ProtoParams p;
  p.cfg.max_retries = 1;
  p.audible_peer = true;
  p.fault_budget = p.cfg.max_retries + 1;
  p.depth = 6;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-audible-peer", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  EXPECT_GT(agg.max_timeouts, p.cfg.max_retries)
      << "no explored schedule ran a retry budget out against rank 1";
  EXPECT_EQ(agg.dead_paths, 0u);
}

TEST(ChkProto, SilentPeerIsDeclaredDeadByTheProbe) {
  // Rank 1 delivers and acks rank 0's message, then goes quiet: nothing of
  // rank 0's is left in flight for FM-R to time out, on any schedule where
  // the ack got through. Rank 0's probes must still reach a verdict, and a
  // probe is not a message, so the books balance with rank 1 dead.
  ProtoParams p;
  p.silent_peer = true;
  p.probe = true;
  p.fault_budget = 1;
  p.depth = 5;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-silent-peer", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  EXPECT_EQ(agg.dead_paths, res.paths_explored);
  EXPECT_GT(agg.probes, 0u);
}

TEST(ChkProto, SilentPeerIsNeverFoundWithoutTheProbe) {
  // The same model with the probe switched off: FM-R alone cannot judge a
  // peer it has nothing in flight to, so some schedule never ends.
  ProtoParams p;
  p.silent_peer = true;
  p.fault_budget = 1;
  p.depth = 5;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-silent-peer-unprobed", p, &agg);
  EXPECT_TRUE(res.violation);
}

TEST(ChkProto, AudiblePeerIsNeverDeclaredDeadByProbes) {
  // Probes are data frames the adversary may lose or hold too: a peer that
  // keeps talking is still never declared dead.
  ProtoParams p;
  p.cfg.max_retries = 1;
  p.audible_peer = true;
  p.probe = true;
  p.fault_budget = p.cfg.max_retries + 1;
  p.depth = 6;
  Aggregate agg;
  const Explorer::Result res = enumerate("proto-audible-probed", p, &agg);
  EXPECT_FALSE(res.violation) << res.message << "\n  replay: " << res.schedule;
  EXPECT_GT(res.paths_explored, 1u);
  EXPECT_GT(agg.probes, 0u);
  EXPECT_EQ(agg.dead_paths, 0u);
}

}  // namespace
}  // namespace fm::chk
