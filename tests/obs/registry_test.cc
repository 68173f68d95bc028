#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/counters.h"
#include "obs/dump.h"

namespace fm::obs {
namespace {

const Sample* find(const std::vector<Sample>& v, const std::string& name) {
  for (const auto& s : v)
    if (s.name == name) return &s;
  return nullptr;
}

TEST(Registry, CountersReadTheLiveCell) {
  std::uint64_t cell = 0;
  Registry r("t");
  r.counter("hits", &cell);
  cell = 41;
  ++cell;
  auto snap = r.snapshot();
  const Sample* s = find(snap, "t.hits");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 42.0);
  EXPECT_TRUE(s->monotonic);
}

TEST(Registry, GaugesSampleLazily) {
  int depth = 0;
  Registry r("q");
  r.gauge("depth", [&] { return static_cast<double>(depth); });
  depth = 7;
  auto snap = r.snapshot();
  const Sample* s = find(snap, "q.depth");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 7.0);
  EXPECT_FALSE(s->monotonic);
  depth = 9;
  EXPECT_DOUBLE_EQ(find(r.snapshot(), "q.depth")->value, 9.0);
}

TEST(Registry, NamesAreScopeQualified) {
  std::uint64_t cell = 1;
  Registry r("shm.node0");
  r.counter("frames_sent", &cell);
  auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "shm.node0.frames_sent");
}

TEST(Registry, SnapshotAllSeesLiveRegistries) {
  std::uint64_t cell = 5;
  Registry r("snapall");
  r.counter("c", &cell);
  EXPECT_NE(find(Registry::snapshot_all(), "snapall.c"), nullptr);
}

TEST(Registry, SnapshotAllForgetsDestroyedRegistries) {
  {
    std::uint64_t cell = 5;
    Registry r("ephemeral");
    r.counter("c", &cell);
  }
  EXPECT_EQ(find(Registry::snapshot_all(), "ephemeral.c"), nullptr);
}

TEST(Registry, EndpointCountersRegisterEveryField) {
  EndpointCounters c;
  c.frames_sent = 3;
  c.messages_abandoned = 2;
  Registry r("ep");
  c.register_into(r);
  auto snap = r.snapshot();
  EXPECT_EQ(snap.size(), 18u);
  EXPECT_DOUBLE_EQ(find(snap, "ep.frames_sent")->value, 3.0);
  EXPECT_DOUBLE_EQ(find(snap, "ep.messages_abandoned")->value, 2.0);
  EXPECT_DOUBLE_EQ(find(snap, "ep.crc_drops")->value, 0.0);
  EXPECT_DOUBLE_EQ(find(snap, "ep.probes_sent")->value, 0.0);
}

TEST(Conservation, BalancedWhenEveryMessageAccounted) {
  EndpointCounters a, b;
  a.messages_sent = 10;
  b.messages_delivered = 8;
  a.messages_abandoned = 2;
  Conservation k;
  k.add(a);
  k.add(b);
  EXPECT_TRUE(k.balanced());
  EXPECT_TRUE(k.no_spontaneous_messages());
  EXPECT_EQ(k.imbalance(), 0);
}

TEST(Conservation, ImbalanceSignalsLoss) {
  EndpointCounters a, b;
  a.messages_sent = 10;
  b.messages_delivered = 7;
  Conservation k;
  k.add(a);
  k.add(b);
  EXPECT_FALSE(k.balanced());
  EXPECT_TRUE(k.no_spontaneous_messages());
  EXPECT_EQ(k.imbalance(), 3);
}

TEST(DumpCapture, DestructorArchivesSnapshotWhileArmed) {
  begin_capture();
  {
    std::uint64_t cell = 11;
    Registry r("archived");
    r.counter("c", &cell);
  }  // destructor runs with capture armed
  auto archived = drain_archived_samples();
  end_capture();
  EXPECT_NE(find(archived, "archived.c"), nullptr);
}

TEST(DumpCapture, NothingArchivedWhenDisarmed) {
  {
    std::uint64_t cell = 11;
    Registry r("unarchived");
    r.counter("c", &cell);
  }
  begin_capture();  // arming clears any stale archive
  auto archived = drain_archived_samples();
  end_capture();
  EXPECT_EQ(find(archived, "unarchived.c"), nullptr);
}

}  // namespace
}  // namespace fm::obs
