// rma-shm: FM-RMA over shm. Rank 0 puts into regions rank 1 exposed.
//
//   lat     8 B eager-put ping-pong, each side polling its own
//           exposed cell; half of each round trip              -> lat_p50/p99_us
//   ops     epochs of 256 eager 64 B puts, each closed by
//           epoch_close; puts per second inside the epochs     -> ops_per_s
//   bulk    epochs of 4 puts of 64 KiB (the shm direct path)   -> mb_per_s
//   loaded  open loop of 64 B eager puts at a seeded Poisson
//           rate into a slot ring, timed from the scheduled
//           put to the moment the target sees the bytes        -> loaded_p50/p90_us
//
// The target verifies every region after each fence (and every ring slot
// as it appears); a mismatch counts as a failed operation. Once per round
// the two ranks measure the bare host (HostRef), and the end-to-end
// figures are reported scaled to its nominal speed.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "rma/engine.h"
#include "shm/cluster.h"

namespace fmb {
namespace {

using E = fm::shm::Endpoint;
using Engine = fm::rma::Engine<E>;
using fm::Status;

enum Region : std::uint32_t { kCellR = 1, kCtlR, kSlotsR, kBulkR, kRingR };
constexpr std::size_t kSlotBytes = 64;
constexpr std::size_t kOpsPuts = 256;  // eager puts per ops epoch
constexpr std::size_t kBulkPut = 64 * 1024;
constexpr std::size_t kBulkPuts = 4;   // direct puts per bulk epoch
constexpr std::size_t kRingSlots = 16384;
constexpr double kLoadedRate = 500'000;
constexpr std::uint64_t kStop = ~0ull;
constexpr std::uint64_t kLast = 1ull << 63;  // ctl flag: the loaded phase's final count

struct alignas(64) RmaRank {
  std::unique_ptr<Tracer> tracer;
  Tracer* tr = nullptr;
  Rng gaps{0};  // open-loop inter-arrival gaps (origin)
  // Epochs so far in the run, counted alike on both ranks: the key of the
  // seeded contents, so no epoch's data can pass for another's.
  std::uint64_t epoch = 0;
  std::uint64_t cell = 0, ctl = 0;
  std::vector<std::uint8_t> slots_mem = std::vector<std::uint8_t>(kOpsPuts * kSlotBytes);
  std::vector<std::uint8_t> bulk_mem = std::vector<std::uint8_t>(kBulkPuts * kBulkPut);
  std::vector<std::uint8_t> ring_mem = std::vector<std::uint8_t>(kRingSlots * kSlotBytes);
  std::vector<PassStats> passes;  // one per pass of the plan
  PassStats* cur = nullptr;       // the current pass's
  std::uint64_t bad = 0, attempted = 0;
};

struct RmaBench {
  const Options& o;
  const Plan plan;
  const Pool pool;
  HostRef ref;

  explicit RmaBench(const Options& opt) : o(opt), plan(Plan::of(opt)), pool(opt.seed) {}

  const std::uint8_t* body(Phase p, std::uint64_t epoch, std::uint64_t j,
                           std::size_t n) const {
    return pool.at(static_cast<std::uint64_t>(p) << 56 ^ epoch << 20 ^ j, n);
  }

  /// One set-up sample: cluster and engines to the first completed put
  /// round trip, in seconds; negative on failure.
  double setup_once() {
    const std::uint64_t t0 = now_ns();
    fm::shm::Cluster cluster(2);
    double setup = -1;
    fm::RunReport rep = cluster.run([&](E& ep) {
      pin_or_die(o.cpus[ep.id()]);
      Engine eng(ep);
      std::uint64_t cell = 0;
      eng.expose(kCellR, &cell, sizeof cell);
      if (eng.epoch_open() != Status::kOk) return;
      const std::uint64_t one = 1;
      const fm::NodeId peer = ep.id() == 0 ? 1 : 0;
      if (ep.id() == 0) {
        if (eng.put(peer, kCellR, 0, &one, sizeof one) != Status::kOk) return;
        ep.extract_until([&] { return cell == 1; });
        setup = static_cast<double>(now_ns() - t0) / 1e9;
      } else {
        ep.extract_until([&] { return cell == 1; });
        if (eng.put(peer, kCellR, 0, &one, sizeof one) != Status::kOk) return;
      }
      (void)eng.epoch_close();
      ep.drain();
    });
    return rep.all_clean() ? setup : -1;
  }

  void run(Result& res) {
    SetupSamples setup;
    const auto once = [this] { return setup_once(); };

    std::vector<std::unique_ptr<fm::shm::Cluster>> clusters;
    for (int c = 0; c < kPlacements; ++c) clusters.push_back(std::make_unique<fm::shm::Cluster>(2));
    std::vector<RmaRank> ranks(2);
    for (RmaRank& r : ranks) {
      r.passes.resize(plan.passes);
      r.gaps = Rng(o.seed ^ 0x6a9);
      if (o.trace) r.tracer = std::make_unique<Tracer>();
    }
    // Round k runs on cluster k % kPlacements, with engines of its own.
    std::vector<fm::RunReport> last(clusters.size());
    for (int k = 0; k < Sliced::kSlices; ++k) {
      if (!o.trace && !setup.sample(once)) return res.fail("set-up put round trip failed");
      fm::shm::Cluster& cluster = *clusters[k % clusters.size()];
      fm::RunReport& rep = last[k % clusters.size()];
      rep = cluster.run([&](E& ep) {
        RmaRank& st = ranks[ep.id()];
        pin_or_die(o.cpus[ep.id()]);
        Engine eng(ep);
        eng.expose(kCellR, &st.cell, sizeof st.cell);
        eng.expose(kCtlR, &st.ctl, sizeof st.ctl);
        eng.expose(kSlotsR, st.slots_mem.data(), st.slots_mem.size());
        eng.expose(kBulkR, st.bulk_mem.data(), st.bulk_mem.size());
        eng.expose(kRingR, st.ring_mem.data(), st.ring_mem.size());
        ref.round(static_cast<int>(ep.id()));
        for (int pass = 0; pass < plan.passes; ++pass) {
          st.cur = &st.passes[pass];
          st.tr = plan.traced(pass) ? st.tracer.get() : nullptr;
          for (int p = 0; p < kPhases; ++p) {
            const auto phase = static_cast<Phase>(p);
            if (st.tr != nullptr) st.tr->set_phase(phase);
            st.cur->slice(k);
            st.ctl = 0;
            st.cell = 0;
            if (ep.id() == 0)
              origin(ep, eng, st, phase);
            else
              target(ep, eng, st, phase);
          }
        }
        ep.drain();
        cluster.barrier([&] { ep.extract(); });
        cluster.publish(eng.registry());
      });
      if (!rep.all_clean()) return res.fail("a rank did not exit cleanly");
      if (!rep.conservation().balanced()) return res.fail("message conservation violated");
    }
    // The origin measured lat, ops and bulk, the target the loaded phase.
    for (int id = 0; id < 2; ++id) {
      const RmaRank& st = ranks[id];
      for (int pass = 0; pass < plan.passes; ++pass)
        st.passes[pass].report([&, pre = plan.prefix(pass)](const char* name, double v) {
          res.metrics[pre + name] = v;
        });
      if (o.trace)
        (void)st.tracer->write_tsv(o.trace_dir + "/rma-shm.rank" + std::to_string(id) + ".tsv");
    }
    // Counters are cumulative per endpoint, and every round published its
    // engine's: each cluster's last report holds them all.
    fm::RunReport rep;
    for (const fm::RunReport& r : last)
      rep.samples.insert(rep.samples.end(), r.samples.begin(), r.samples.end());
    for (const RmaRank& r : ranks) {
      res.attempted += r.attempted;
      res.failed += r.bad;
    }
    if (o.trace) layers(rep, ranks[0], res);
    ref.apply(res.metrics);
    if (ref.bad() > 0) res.fail("the host reference ring delivered slots out of order");
    if (!o.trace) res.metrics["setup_s"] = setup.median_s();
  }

  /// Counts a failed call; true when the call succeeded.
  static bool ok(RmaRank& st, Status s) {
    ++st.attempted;
    if (s == Status::kOk) return true;
    ++st.bad;
    return false;
  }

  void origin(E& ep, Engine& eng, RmaRank& st, Phase phase) {
    if (!ok(st, eng.epoch_open())) return;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t warm_end = t0 + plan.warm_ns, end = t0 + plan.slice_ns;
    if (phase == kLat) {
      for (std::uint64_t r = 1;; ++r) {
        const std::uint64_t t = now_ns();
        if (t >= end) break;
        {
          Span span(st.tr, kPut, r);
          if (!ok(st, eng.put(1, kCellR, 0, &r, sizeof r))) break;
        }
        ep.extract_until([&] { return st.cell == r; });
        if (t >= warm_end) st.cur->lat.add_latency((now_ns() - t) / 2);
      }
      (void)ok(st, eng.put(1, kCellR, 0, &kStop, sizeof kStop));
      (void)ok(st, eng.epoch_close());
      return;
    }
    if (phase == kLoaded) {
      double next = static_cast<double>(t0);
      const std::uint64_t epoch = ++st.epoch;
      std::uint64_t seq = 0;
      std::uint8_t buf[kSlotBytes];
      for (;;) {
        const std::uint64_t t = now_ns();
        if (t >= end) break;
        if (static_cast<double>(t) < next) {
          ep.extract();
          continue;
        }
        const std::uint64_t sched =
            next >= static_cast<double>(warm_end) ? static_cast<std::uint64_t>(next) : 0;
        if (sched != 0) st.cur->late.add_latency(t - sched);
        next += st.gaps.exp_gap_ns(kLoadedRate);
        const std::uint64_t h[2] = {++seq, sched};
        std::memcpy(buf, h, sizeof h);
        std::memcpy(buf + 16, body(kLoaded, epoch, seq, kSlotBytes - 16), kSlotBytes - 16);
        Span span(st.tr, kPut, seq);
        if (!ok(st, eng.put(1, kRingR, (seq % kRingSlots) * kSlotBytes, buf, kSlotBytes)))
          break;
      }
      const std::uint64_t last = seq | kLast;
      (void)ok(st, eng.put(1, kCtlR, 0, &last, sizeof last));
      (void)ok(st, eng.epoch_close());
      return;
    }
    // ops / bulk: one epoch per batch; the last put of each tells the
    // target whether another epoch follows.
    const bool bulk = phase == kBulk;
    const std::size_t n = bulk ? kBulkPuts : kOpsPuts;
    const std::size_t len = bulk ? kBulkPut : kSlotBytes;
    for (std::uint64_t e = 1;; ++e) {
      if (e > 1 && !ok(st, eng.epoch_open())) return;
      const std::uint64_t epoch = ++st.epoch;
      const std::uint64_t ta = now_ns();
      for (std::size_t j = 0; j < n; ++j) {
        Span span(st.tr, kPut, epoch << 20 | j);
        (void)ok(st, eng.put(1, bulk ? kBulkR : kSlotsR, j * len, body(phase, epoch, j, len), len));
      }
      const std::uint64_t more = now_ns() < end ? e : kStop;
      (void)ok(st, eng.put(1, kCtlR, 0, &more, sizeof more));
      {
        Span span(st.tr, kFence, e);
        (void)ok(st, eng.epoch_close());
      }
      // Rated per second inside the epochs: the target's checks between
      // epochs are the benchmark's work, not FM's.
      if (ta >= warm_end)
        (bulk ? st.cur->bulk : st.cur->ops).add_work(bulk ? n * len : n, now_ns() - ta);
      if (more == kStop) break;
    }
  }

  void target(E& ep, Engine& eng, RmaRank& st, Phase phase) {
    if (!ok(st, eng.epoch_open())) return;
    if (phase == kLat) {
      for (std::uint64_t last = 0;;) {
        ep.extract_until([&] { return st.cell != last; });
        const std::uint64_t v = st.cell;
        if (v == kStop) break;
        if (v != last + 1) ++st.bad;
        last = v;
        if (!ok(st, eng.put(0, kCellR, 0, &v, sizeof v))) break;
      }
      (void)ok(st, eng.epoch_close());
      return;
    }
    if (phase == kLoaded) {
      const std::uint64_t epoch = ++st.epoch;
      std::uint64_t next = 1;
      const auto scan = [&] {
        for (;;) {
          const std::uint8_t* s = st.ring_mem.data() + (next % kRingSlots) * kSlotBytes;
          std::uint64_t h[2];
          std::memcpy(h, s, sizeof h);
          if (h[0] < next) break;  // not written yet
          if (h[0] > next) {         // lapped: overwritten before it was seen
            ++st.bad;
            next = h[0];
          }
          if (h[1] != 0) st.cur->loaded.add_latency(now_ns() - h[1]);
          if (std::memcmp(s + 16, body(kLoaded, epoch, next, kSlotBytes - 16), kSlotBytes - 16) != 0)
            ++st.bad;
          ++next;
        }
        return (st.ctl & kLast) != 0 && next > (st.ctl & ~kLast);
      };
      ep.extract_until(scan);
      (void)ok(st, eng.epoch_close());
      std::memset(st.ring_mem.data(), 0, st.ring_mem.size());
      return;
    }
    const bool bulk = phase == kBulk;
    const std::size_t n = bulk ? kBulkPuts : kOpsPuts;
    const std::size_t len = bulk ? kBulkPut : kSlotBytes;
    const std::uint8_t* region = bulk ? st.bulk_mem.data() : st.slots_mem.data();
    for (std::uint64_t e = 1;; ++e) {
      if (e > 1 && !ok(st, eng.epoch_open())) return;
      const std::uint64_t epoch = ++st.epoch;
      if (!ok(st, eng.epoch_close())) return;
      for (std::size_t j = 0; j < n; ++j)
        if (std::memcmp(region + j * len, body(phase, epoch, j, len), len) != 0) ++st.bad;
      if (st.ctl == kStop) break;
      if (st.ctl != e) ++st.bad;
    }
  }

  void layers(const fm::RunReport& rep, const RmaRank& origin, Result& res) {
    auto& m = res.metrics;
    const Tracer& t = *origin.tracer;
    m["rma.put_ns"] = t.hist(kOps, kPut).quantile(0.5);
    m["rma.put_64k_ns"] = t.hist(kBulk, kPut).quantile(0.5);
    m["rma.fence_us"] = t.hist(kBulk, kFence).quantile(0.5) / 1e3;
    const double puts = rep.sum_counter("puts_issued");
    m["rma.msgs_per_put"] = puts ? rep.sum_counter("messages_sent") / puts : 0;
    m["loadgen.late_p90_us"] = origin.passes.back().late.latency(0.9) / 1e3;
    add_fm_counter_layers(rep, res, false);
  }
};

}  // namespace

Result run_rma(const Options& o) {
  Result res;
  RmaBench b(o);
  b.run(res);
  return res;
}

}  // namespace fmb
