#include "fm/protocol.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace fm {
namespace {

TEST(SendWindow, TracksAndAcks) {
  SendWindow w(4);
  EXPECT_FALSE(w.full());
  auto s1 = w.next_seq(1);
  auto s2 = w.next_seq(2);
  // Sequences are per destination: both peers see a stream starting at 1.
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 1u);
  const std::uint8_t f1[] = {1, 2, 3};
  const std::uint8_t f2[] = {4, 5};
  w.track(1, s1, f1, sizeof f1);
  w.track(2, s2, f2, sizeof f2);
  EXPECT_EQ(w.in_flight(), 2u);
  EXPECT_TRUE(w.ack(1, s1));
  EXPECT_FALSE(w.ack(1, s1));  // duplicate ack is harmless
  EXPECT_EQ(w.in_flight(), 1u);
  ASSERT_NE(w.find(2, s2).data, nullptr);
  EXPECT_EQ(w.find(2, s2).len, 2u);
  EXPECT_EQ(w.find(2, s2).data[0], 4);
  EXPECT_EQ(w.find(1, s1).data, nullptr);
}

TEST(SendWindow, PerDestinationSequencesAreDense) {
  SendWindow w(8);
  EXPECT_EQ(w.next_seq(5), 1u);
  EXPECT_EQ(w.next_seq(9), 1u);
  EXPECT_EQ(w.next_seq(5), 2u);
  EXPECT_EQ(w.next_seq(5), 3u);
  EXPECT_EQ(w.next_seq(9), 2u);
}

TEST(SendWindow, DropDestFreesOnlyThatPeer) {
  SendWindow w(8);
  const std::uint8_t b1 = 1, b2 = 2, b3 = 3;
  w.track(1, w.next_seq(1), &b1, 1);
  w.track(1, w.next_seq(1), &b2, 1);
  w.track(2, w.next_seq(2), &b3, 1);
  EXPECT_EQ(w.drop_dest(1), 2u);
  EXPECT_EQ(w.in_flight(), 1u);
  ASSERT_NE(w.find(2, 1).data, nullptr);
}

TEST(SendWindow, FullGatesInjection) {
  SendWindow w(2);
  w.track(0, w.next_seq(0), nullptr, 0);
  w.track(0, w.next_seq(0), nullptr, 0);
  EXPECT_TRUE(w.full());
  EXPECT_EQ(w.space(), 0u);
}

TEST(SendWindowDeathTest, OverflowAborts) {
  SendWindow w(1);
  w.track(0, w.next_seq(0), nullptr, 0);
  EXPECT_DEATH(w.track(0, w.next_seq(0), nullptr, 0), "overflow");
}

TEST(RetransmitTimer, FiresAfterDeadlineWithBackoff) {
  RetransmitTimer t(100, 3);
  t.arm(1, 7, 1000);
  EXPECT_EQ(t.armed(), 1u);
  std::vector<RetransmitTimer::Due> due;
  t.expired_into(1099, due);
  EXPECT_TRUE(due.empty());  // deadline is now + 100
  t.expired_into(1100, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].dest, 1u);
  EXPECT_EQ(due[0].seq, 7u);
  EXPECT_EQ(due[0].retries, 1u);
  EXPECT_FALSE(due[0].exhausted);
  // Re-armed with exponential backoff: next deadline 1100 + 100*2.
  t.expired_into(1299, due);
  EXPECT_TRUE(due.empty());
  t.expired_into(1300, due);
  EXPECT_EQ(due.size(), 1u);
}

TEST(RetransmitTimer, ExhaustsAfterMaxRetries) {
  RetransmitTimer t(10, 2);
  t.arm(3, 1, 0);
  std::uint64_t now = 0;
  std::size_t fired = 0;
  bool exhausted = false;
  std::vector<RetransmitTimer::Due> due;
  // March time far enough forward each step to beat any backoff.
  for (int i = 0; i < 10 && !exhausted; ++i) {
    now += 100000;
    t.expired_into(now, due);
    for (const auto& d : due) {
      ++fired;
      exhausted = d.exhausted;
    }
  }
  EXPECT_TRUE(exhausted);
  EXPECT_EQ(fired, 3u);  // 2 retries + the exhausted report
  EXPECT_EQ(t.armed(), 0u);  // exhausted entry forgotten
}

TEST(RetransmitTimer, DisarmCancelsAndRearmResetsRetries) {
  RetransmitTimer t(10, 2);
  t.arm(1, 1, 0);
  t.arm(1, 2, 0);
  t.arm(2, 1, 0);
  t.disarm(1, 1);
  EXPECT_EQ(t.armed(), 2u);
  t.disarm_all(1);
  EXPECT_EQ(t.armed(), 1u);
  // Burn a retry, then re-arm: the retry count starts over.
  std::vector<RetransmitTimer::Due> due;
  t.expired_into(100, due);
  EXPECT_EQ(due.size(), 1u);
  t.arm(2, 1, 100);
  t.expired_into(100000, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].retries, 1u);
}

TEST(DedupFilter, ExactMembershipInAnyOrder) {
  DedupFilter d;
  EXPECT_FALSE(d.seen(1, 1));
  d.mark(1, 1);
  EXPECT_TRUE(d.seen(1, 1));
  // Out-of-order acceptance: 3 before 2.
  d.mark(1, 3);
  EXPECT_TRUE(d.seen(1, 3));
  EXPECT_FALSE(d.seen(1, 2));
  d.mark(1, 2);
  EXPECT_TRUE(d.seen(1, 2));
  // The gap filled, so the cutoff advanced and the ahead-set drained.
  EXPECT_EQ(d.pending_gaps(1), 0u);
  // Peers are independent.
  EXPECT_FALSE(d.seen(2, 1));
}

TEST(DedupFilter, CutoffStaysExactOverLongStream) {
  DedupFilter d;
  Xoshiro256 rng(123);
  std::vector<std::uint32_t> seqs(500);
  for (std::uint32_t i = 0; i < 500; ++i) seqs[i] = i + 1;
  for (std::size_t i = 500; i > 1; --i)
    std::swap(seqs[i - 1], seqs[rng.below(i)]);
  for (auto s : seqs) {
    EXPECT_FALSE(d.seen(4, s));
    d.mark(4, s);
    EXPECT_TRUE(d.seen(4, s));
  }
  EXPECT_EQ(d.pending_gaps(4), 0u);
  EXPECT_FALSE(d.seen(4, 501));
  d.forget(4);
  EXPECT_FALSE(d.seen(4, 1));
}

TEST(RejectQueue, IgnoresAlreadyParkedSeq) {
  RejectQueue q;
  q.add(1, 100, {1});
  q.add(1, 100, {1});  // a timeout copy bounced too — parked only once
  q.add(1, 101, {2});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.drop_dest(1), 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(AckTracker, AccumulatesAndTakes) {
  AckTracker t;
  t.note(1, 10);
  t.note(1, 11);
  t.note(2, 20);
  EXPECT_EQ(t.due(1), 2u);
  EXPECT_EQ(t.due(2), 1u);
  EXPECT_EQ(t.total_due(), 3u);
  std::uint32_t taken[5];
  ASSERT_EQ(t.take_into(1, 1, taken), 1u);
  EXPECT_EQ(taken[0], 10u);  // oldest first
  EXPECT_EQ(t.due(1), 1u);
  EXPECT_EQ(t.take_into(3, 5, taken), 0u);
}

TEST(AckTracker, PeersOverThreshold) {
  AckTracker t;
  for (int i = 0; i < 5; ++i) t.note(7, i);
  t.note(8, 1);
  std::vector<NodeId> over;
  t.peers_over_into(3, over);
  ASSERT_EQ(over.size(), 1u);
  EXPECT_EQ(over[0], 7u);
  std::vector<NodeId> peers;
  t.peers_into(peers);
  EXPECT_EQ(peers.size(), 2u);
}

FrameHeader frag_header(std::uint32_t msg, std::uint16_t idx,
                        std::uint16_t count, std::uint16_t len) {
  FrameHeader h;
  h.flags = FrameHeader::kFlagFragmented;
  h.msg_id = msg;
  h.frag_index = idx;
  h.frag_count = count;
  h.payload_len = len;
  return h;
}

TEST(Reassembler, AssemblesInOrder) {
  Reassembler r(4);
  std::uint8_t a[4] = {1, 2, 3, 4}, b[4] = {5, 6, 7, 8};
  std::vector<std::uint8_t> out;
  EXPECT_EQ(r.feed(0, frag_header(1, 0, 2, 4), a, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.active(), 1u);
  EXPECT_EQ(r.feed(0, frag_header(1, 1, 2, 4), b, &out),
            Reassembler::Feed::kComplete);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r.active(), 0u);
}

TEST(Reassembler, AssemblesOutOfOrder) {
  Reassembler r(4);
  std::uint8_t a[2] = {1, 2}, b[2] = {3, 4}, c[1] = {5};
  std::vector<std::uint8_t> out;
  EXPECT_EQ(r.feed(3, frag_header(9, 2, 3, 1), c, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(3, frag_header(9, 0, 3, 2), a, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(3, frag_header(9, 1, 3, 2), b, &out),
            Reassembler::Feed::kComplete);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Reassembler, InterleavedSourcesAndMessages) {
  Reassembler r(4);
  std::vector<std::uint8_t> out;
  std::uint8_t x[1] = {0xA}, y[1] = {0xB};
  EXPECT_EQ(r.feed(0, frag_header(1, 0, 2, 1), x, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(1, frag_header(1, 0, 2, 1), y, &out),
            Reassembler::Feed::kAccepted);  // same msg_id, different source
  EXPECT_EQ(r.active(), 2u);
  EXPECT_EQ(r.feed(1, frag_header(1, 1, 2, 1), y, &out),
            Reassembler::Feed::kComplete);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xB, 0xB}));
  EXPECT_EQ(r.feed(0, frag_header(1, 1, 2, 1), x, &out),
            Reassembler::Feed::kComplete);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xA, 0xA}));
}

TEST(Reassembler, RejectsWhenPoolExhausted) {
  Reassembler r(2);
  std::vector<std::uint8_t> out;
  std::uint8_t p[1] = {0};
  EXPECT_EQ(r.feed(0, frag_header(1, 0, 2, 1), p, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(0, frag_header(2, 0, 2, 1), p, &out),
            Reassembler::Feed::kAccepted);
  // Third concurrent reassembly: no slot — return-to-sender fires.
  EXPECT_EQ(r.feed(0, frag_header(3, 0, 2, 1), p, &out),
            Reassembler::Feed::kRejected);
  // Fragments of ACTIVE reassemblies are still accepted.
  EXPECT_EQ(r.feed(0, frag_header(1, 1, 2, 1), p, &out),
            Reassembler::Feed::kComplete);
  // A slot freed: the rejected message can now be accepted on retry.
  EXPECT_EQ(r.feed(0, frag_header(3, 0, 2, 1), p, &out),
            Reassembler::Feed::kAccepted);
}

TEST(Reassembler, RandomizedFragmentOrderProperty) {
  Xoshiro256 rng(77);
  for (int iter = 0; iter < 50; ++iter) {
    Reassembler r(8);
    std::size_t total = rng.between(1, 2000);
    std::size_t per = rng.between(1, 128);
    std::size_t frags = (total + per - 1) / per;
    if (frags > 0xffff) continue;
    std::vector<std::uint8_t> message(total);
    for (auto& b : message) b = static_cast<std::uint8_t>(rng());
    std::vector<std::size_t> order(frags);
    for (std::size_t i = 0; i < frags; ++i) order[i] = i;
    for (std::size_t i = frags; i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    std::vector<std::uint8_t> out;
    bool completed = false;
    for (std::size_t k = 0; k < frags; ++k) {
      std::size_t i = order[k];
      std::size_t off = i * per;
      std::size_t n = std::min(per, total - off);
      auto h = frag_header(42, static_cast<std::uint16_t>(i),
                           static_cast<std::uint16_t>(frags),
                           static_cast<std::uint16_t>(n));
      auto res = r.feed(1, h, message.data() + off, &out);
      if (k + 1 < frags) {
        ASSERT_EQ(res, Reassembler::Feed::kAccepted);
      } else {
        ASSERT_EQ(res, Reassembler::Feed::kComplete);
        completed = true;
      }
    }
    ASSERT_TRUE(completed);
    EXPECT_EQ(out, message);
  }
}

TEST(Reassembler, ExpiresAbandonedSlots) {
  Reassembler r(2);
  std::vector<std::uint8_t> out;
  std::uint8_t p[1] = {0};
  // Two half-assembled messages fed at t=1000 and t=5000.
  EXPECT_EQ(r.feed(0, frag_header(1, 0, 2, 1), p, &out, 1000),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(0, frag_header(2, 0, 2, 1), p, &out, 5000),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.active(), 2u);
  // Expiry frees only the stale one; the fresh slot survives and the pool
  // can accept new work again (the slot-leak regression).
  EXPECT_EQ(r.expire_older_than(2000), 1u);
  EXPECT_EQ(r.active(), 1u);
  EXPECT_EQ(r.feed(0, frag_header(3, 0, 2, 1), p, &out, 6000),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(0, frag_header(2, 1, 2, 1), p, &out, 6000),
            Reassembler::Feed::kComplete);
}

TEST(Reassembler, SlotLeakRecoveredByExpiry) {
  // Regression: a peer that starts a fragmented message and never finishes
  // it must not pin receive-pool slots forever. Without expiry the pool
  // rejects everything once poisoned; expiry reclaims it.
  Reassembler r(2);
  std::vector<std::uint8_t> out;
  std::uint8_t p[1] = {0};
  EXPECT_EQ(r.feed(7, frag_header(1, 0, 2, 1), p, &out, 10),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(7, frag_header(2, 0, 2, 1), p, &out, 10),
            Reassembler::Feed::kAccepted);
  // Pool poisoned: new messages bounce indefinitely.
  EXPECT_EQ(r.feed(8, frag_header(3, 0, 2, 1), p, &out, 20),
            Reassembler::Feed::kRejected);
  EXPECT_EQ(r.feed(8, frag_header(3, 0, 2, 1), p, &out, 30),
            Reassembler::Feed::kRejected);
  EXPECT_EQ(r.expire_older_than(100), 2u);
  EXPECT_EQ(r.feed(8, frag_header(3, 0, 2, 1), p, &out, 110),
            Reassembler::Feed::kAccepted);
}

TEST(Reassembler, AbortDropsOneSourceOnly) {
  Reassembler r(4);
  std::vector<std::uint8_t> out;
  std::uint8_t p[1] = {9};
  EXPECT_EQ(r.feed(1, frag_header(1, 0, 2, 1), p, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(1, frag_header(2, 0, 2, 1), p, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.feed(2, frag_header(1, 0, 2, 1), p, &out),
            Reassembler::Feed::kAccepted);
  EXPECT_EQ(r.abort(1), 2u);
  EXPECT_EQ(r.active(), 1u);
  EXPECT_EQ(r.feed(2, frag_header(1, 1, 2, 1), p, &out),
            Reassembler::Feed::kComplete);
}

TEST(RejectQueue, BackoffAging) {
  RejectQueue q;
  q.add(1, 100, {1});
  q.add(2, 101, {2});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.tick(2).empty());  // age 1 < 2
  auto ready = q.tick(2);          // age 2 == 2
  EXPECT_EQ(ready.size(), 2u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(ready[0].dest, 1u);
  EXPECT_EQ(ready[0].seq, 100u);
}

TEST(RejectQueue, ImmediateRetryWithDelayOne) {
  RejectQueue q;
  q.add(3, 7, {});
  auto ready = q.tick(1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].dest, 3u);
}

}  // namespace
}  // namespace fm
