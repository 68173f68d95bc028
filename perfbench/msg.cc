// shm-msg and net-msg: the FM message path, two ranks, four phases (each
// run as short slices that take turns, see Sliced).
//
//   lat     FM_send_4 ping-pong; half of each round trip      -> lat_p50/p99_us
//   ops     one-way stream of single-frame sends, seeded
//           sizes of 16..128 B                                 -> ops_per_s
//   bulk    one-way stream of 4 KiB (32-frame) messages        -> mb_per_s
//   loaded  open loop of 64 B sends at a seeded Poisson rate,
//           timed from the scheduled send to the handler       -> loaded_p50/p90_us
//
// Rank 0 sends, rank 1 receives and checks every message exactly once
// (OnceWindow) against the seeded pool. The same code runs over shm (two
// pinned threads) and net (two pinned forked processes, FM-R on); every
// rank-side result crosses back through Cluster::report(). On shm the two
// threads also measure the bare host (HostRef) once per round, and the
// end-to-end figures are reported scaled to its nominal speed; net-msg's
// are raw, as its ranks share no memory for the reference.
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "net/cluster.h"
#include "shm/cluster.h"

namespace fmb {
namespace {

using fm::HandlerId;
using fm::NodeId;
using fm::Status;

constexpr std::size_t kHdr = 16;  // [id u64][scheduled send time u64, 0 = unmeasured]
constexpr std::size_t kSizeTable = 4096;
constexpr std::size_t kOpsMin = 16, kOpsMax = 128;
constexpr std::size_t kBulkBytes = 4096;
constexpr std::size_t kLoadedBytes = 64;
constexpr std::uint64_t kNone = ~0ull;
// Open-loop offered rates. On shm one the host still serves with room when
// it is slow: at 1 M msg/s, 12 of 60 runs in one slow stretch saturated and
// loaded p90 reached 35-900 us. On net a rate below the 50 K msg/s where
// p90 turned bimodal.
constexpr double kShmLoadedRate = 250'000;
constexpr double kNetLoadedRate = 20'000;

/// One rank's state, on its own cache lines. Allocated before
/// Cluster::run(); threads (shm) index their own slot, forked ranks (net)
/// use their own copy.
struct alignas(64) Rank {
  Tracer* tr = nullptr;  // set during the traced pass only
  std::unique_ptr<Tracer> tracer;
  Phase phase = kLat;
  OnceWindow once;
  std::vector<PassStats> passes;  // one per pass of the plan
  PassStats* cur = nullptr;       // the current pass's
  Rng gaps{0};                    // open-loop inter-arrival gaps (rank 0)
  std::uint64_t got = 0;          // messages delivered this slice
  std::uint64_t expect = kNone;   // count announced by the slice's end marker
  std::uint64_t pong = 0;         // last round echoed back (rank 0)
  std::uint64_t bad = 0;          // content, size, order or status violations
  std::uint64_t attempted = 0;    // operations issued over the whole run
  std::uint64_t sends = 0, window_full = 0;  // bulk sends seen / at a full window
  void new_slice(Phase p, int k) {
    phase = p;
    once.reset();
    got = 0;
    expect = kNone;
    pong = 0;
    cur->slice(k);
    if (tr != nullptr) tr->set_phase(p);
  }
};

struct Inputs {
  explicit Inputs(std::uint64_t seed) : pool(seed), sizes(kSizeTable) {
    Rng r(seed ^ 0x5123);
    for (auto& s : sizes)
      s = static_cast<std::uint16_t>(kOpsMin + r.below(kOpsMax - kOpsMin + 1));
  }
  std::size_t len(Phase p, std::uint64_t id) const {
    return p == kOps ? sizes[id % kSizeTable] : p == kBulk ? kBulkBytes : kLoadedBytes;
  }
  const std::uint8_t* body(Phase p, std::uint64_t id, std::size_t n) const {
    return pool.at((static_cast<std::uint64_t>(p) << 56) ^ id, n);
  }
  Pool pool;
  std::vector<std::uint16_t> sizes;
};

/// The four words a lat-phase round carries: the round, then seeded bytes.
void ping_words(const Inputs& in, std::uint64_t round, std::uint32_t w[4]) {
  w[0] = static_cast<std::uint32_t>(round);
  std::memcpy(w + 1, in.body(kLat, round, 12), 12);
}

/// One extract() per iteration until `pred` holds. Untraced, this is the
/// endpoint's own extract_until (yield on shm, poll() park on net). Traced,
/// each extract() is a span, and an idle one is followed by one pass of
/// extract_until so the backend still parks exactly as it would untraced.
template <class E, class Pred>
void wait_until(E& ep, Tracer* tr, Pred&& pred) {
  if (tr == nullptr) {
    ep.extract_until(pred);
    return;
  }
  while (!pred()) {
    std::size_t n;
    {
      Span s(tr, kExtract);
      n = ep.extract();
      s.result(static_cast<std::int64_t>(n));
    }
    if (n == 0) {
      bool again = false;
      ep.extract_until([&] { return std::exchange(again, true); });
    }
  }
}

template <class C>
struct MsgBench {
  using E = typename C::EndpointType;

  const Options& o;
  const Plan plan;
  const bool net;
  const Inputs in;
  fm::FmConfig cfg;
  fm::net::NetConfig ncfg;
  HostRef ref;  // shm only

  explicit MsgBench(const Options& opt)
      : o(opt), plan(Plan::of(opt)), net(std::is_same_v<C, fm::net::Cluster>),
        in(opt.seed) {
    cfg.reliability = net;  // the net backend requires FM-R
    ncfg.run_timeout_ns = 150'000'000'000ull;
  }

  std::unique_ptr<C> make_cluster() {
    if constexpr (std::is_same_v<C, fm::net::Cluster>)
      return std::make_unique<C>(2, cfg, ncfg);
    else
      return std::make_unique<C>(2, cfg);
  }

  /// One set-up sample: cluster construction to the first completed round
  /// trip, in seconds; negative on failure.
  double setup_once() {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<C> cluster = make_cluster();
    std::uint64_t pings = 0, pongs = 0;  // each touched by one rank only
    const HandlerId hpong = cluster->register_handler(
        [&](E&, NodeId, const void*, std::size_t) { ++pongs; });
    const HandlerId hping = cluster->register_handler(
        [&](E& ep, NodeId src, const void*, std::size_t) {
          ++pings;
          ep.post_send4(src, hpong, 1, 2, 3, 4);
        });
    fm::RunReport rep = cluster->run([&](E& ep) {
      pin_or_die(o.cpus[ep.id()]);
      if (ep.id() == 0) {
        if (ep.send4(1, hping, 1, 2, 3, 4) == Status::kOk) {
          ep.extract_until([&] { return pongs == 1; });
          cluster->report("setup_ns", static_cast<double>(now_ns() - t0));
        }
      } else {
        ep.extract_until([&] { return pings == 1; });
      }
      ep.drain();
      fm::barrier_serviced(*cluster, ep);
    });
    const auto it = rep.metrics.find("setup_ns");
    if (!rep.all_clean() || it == rep.metrics.end()) return -1;
    return it->second / 1e9;
  }

  void run(Result& res) {
    SetupSamples setup;
    const auto once = [this] { return setup_once(); };

    std::vector<Rank> ranks(2);
    for (Rank& r : ranks) {
      r.passes.resize(plan.passes);
      r.gaps = Rng(o.seed ^ 0x6a9);
      if (o.trace) r.tracer = std::make_unique<Tracer>();
    }
    // The same four handlers, registered on every cluster in the same order.
    // shm rotates its rounds over kPlacements clusters; net-msg keeps one,
    // as its ranks are processes that run() forks.
    std::vector<std::unique_ptr<C>> clusters;
    HandlerId hpong = 0, hping = 0, hdata = 0, hend = 0;
    const auto add_handlers = [&](C& cluster) {
      const HandlerId pong = cluster.register_handler(
          [&](E& ep, NodeId, const void* p, std::size_t len) {
            Rank& st = ranks[ep.id()];
            std::uint32_t w[4], want[4];
            if (len != sizeof w) return void(++st.bad);
            std::memcpy(w, p, sizeof w);
            ping_words(in, st.pong + 1, want);
            if (std::memcmp(w, want, sizeof w) != 0) ++st.bad;
            st.pong = w[0];
          });
      const HandlerId ping = cluster.register_handler(
          [&](E& ep, NodeId src, const void* p, std::size_t len) {
            Rank& st = ranks[ep.id()];
            Span s(st.tr, kHandler, st.got + 1);
            std::uint32_t w[4], want[4];
            if (len != sizeof w) return void(++st.bad);
            std::memcpy(w, p, sizeof w);
            ping_words(in, st.got + 1, want);
            if (std::memcmp(w, want, sizeof w) != 0) ++st.bad;
            ++st.got;
            ep.post_send4(src, hpong, w[0], w[1], w[2], w[3]);
          });
      const HandlerId data = cluster.register_handler(
          [&](E& ep, NodeId, const void* p, std::size_t len) {
            const std::uint64_t t = now_ns();
            Rank& st = ranks[ep.id()];
            std::uint64_t h[2] = {0, 0};
            if (len >= kHdr) std::memcpy(h, p, kHdr);
            Span s(st.tr, kHandler, h[0]);
            if (h[1] != 0) st.cur->loaded.add_latency(t - h[1]);
            ++st.got;
            if (len < kHdr || !st.once.mark(h[0]) || len != in.len(st.phase, h[0]) ||
                std::memcmp(static_cast<const std::uint8_t*>(p) + kHdr,
                            in.body(st.phase, h[0], len - kHdr), len - kHdr) != 0)
              ++st.bad;
          });
      const HandlerId end = cluster.register_handler(
          [&](E& ep, NodeId, const void* p, std::size_t len) {
            Rank& st = ranks[ep.id()];
            if (len != sizeof st.expect) return void(++st.bad);
            std::memcpy(&st.expect, p, len);
          });
      const bool same = clusters.size() == 1 ||
                        (pong == hpong && ping == hping && data == hdata && end == hend);
      hpong = pong, hping = ping, hdata = data, hend = end;
      return same;
    };
    for (int c = 0; c < (net ? 1 : kPlacements); ++c) {
      clusters.push_back(make_cluster());
      if (!add_handlers(*clusters.back())) return res.fail("handler ids differ between clusters");
    }

    // Round k of every pass: the four phases, each one slice.
    const auto play = [&](C& cluster, E& ep, int k) {
      const NodeId me = ep.id();
      Rank& st = ranks[me];
      for (int pass = 0; pass < plan.passes; ++pass) {
        st.cur = &st.passes[pass];
        st.tr = plan.traced(pass) ? st.tracer.get() : nullptr;
        for (int p = 0; p < kPhases; ++p) {
          st.new_slice(static_cast<Phase>(p), k);
          fm::barrier_serviced(cluster, ep);
          if (me == 0)
            send_slice(ep, st, hping, hdata, hend);
          else
            recv_slice(ep, st);
          ep.drain();
          fm::barrier_serviced(cluster, ep);
        }
      }
    };
    // Every rank hands its results to the cluster.
    const auto finish = [&](C& cluster, E& ep) {
      const NodeId me = ep.id();
      Rank& st = ranks[me];
      // Rank 0 measured lat, ops and bulk, rank 1 the loaded phase.
      for (int pass = 0; pass < plan.passes; ++pass)
        st.passes[pass].report([&, pre = plan.prefix(pass)](const char* name, double v) {
          cluster.report(pre + name, v);
        });
      const std::string r = std::to_string(me);
      if (o.trace) {
        report_layers(cluster, ep, st);
        (void)st.tracer->write_tsv(o.trace_dir + "/" + o.workload + ".rank" + r + ".tsv");
      }
      cluster.report("bad.r" + r, static_cast<double>(st.bad));
      cluster.report("attempted.r" + r, static_cast<double>(st.attempted));
    };
    const auto clean = [&](const fm::RunReport& rep) {
      if (!rep.all_clean()) res.fail("a rank did not exit cleanly");
      if (rep.timed_out) res.fail("the run timed out");
      if (!rep.conservation().balanced()) res.fail("message conservation violated");
      return res.correct;
    };

    fm::RunReport rep;
    if (net) {
      // The rounds share one run(), so the set-up samples all come first.
      for (int k = 0; k < Sliced::kSlices && !o.trace; ++k)
        if (!setup.sample(once)) return res.fail("set-up round trip failed");
      rep = clusters[0]->run([&](E& ep) {
        pin_or_die(o.cpus[ep.id()]);
        for (int k = 0; k < Sliced::kSlices; ++k) play(*clusters[0], ep, k);
        finish(*clusters[0], ep);
      });
      if (!clean(rep)) return;
    } else {
      // Round k runs on cluster k % kPlacements; the host reference opens it.
      std::vector<fm::RunReport> last(clusters.size());
      for (int k = 0; k < Sliced::kSlices; ++k) {
        if (!o.trace && !setup.sample(once)) return res.fail("set-up round trip failed");
        C& cluster = *clusters[k % clusters.size()];
        fm::RunReport& r = last[k % clusters.size()];
        r = cluster.run([&](E& ep) {
          pin_or_die(o.cpus[ep.id()]);
          ref.round(static_cast<int>(ep.id()));
          play(cluster, ep, k);
        });
        if (!clean(r)) return;
      }
      rep = clusters[0]->run([&](E& ep) { finish(*clusters[0], ep); });
      if (!clean(rep)) return;
      // Counters are cumulative per endpoint: each cluster's last report.
      for (std::size_t c = 1; c < clusters.size(); ++c)
        rep.samples.insert(rep.samples.end(), last[c].samples.begin(), last[c].samples.end());
    }
    for (int r = 0; r < 2; ++r) {
      const std::string k = std::to_string(r);
      if (rep.metrics.count("attempted.r" + k) == 0) {
        res.fail("rank " + k + " reported nothing");
        continue;
      }
      res.attempted += static_cast<std::uint64_t>(rep.metrics["attempted.r" + k]);
      res.failed += static_cast<std::uint64_t>(rep.metrics["bad.r" + k]);
    }
    for (const auto& [k, v] : rep.metrics)
      if (k.rfind("bad.", 0) != 0 && k.rfind("attempted.", 0) != 0) res.metrics[k] = v;
    if (o.trace) add_fm_counter_layers(rep, res, net);
    if (!net) {
      ref.apply(res.metrics);
      if (ref.bad() > 0) res.fail("the host reference ring delivered slots out of order");
    }
    if (!o.trace) res.metrics["setup_s"] = setup.median_s();
  }

  void send_slice(E& ep, Rank& st, HandlerId hping, HandlerId hdata, HandlerId hend) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t warm_end = t0 + plan.warm_ns, end = t0 + plan.slice_ns;
    std::uint64_t n = 0;
    if (st.phase == kLat) {
      std::uint32_t w[4];
      for (;;) {
        const std::uint64_t t = now_ns();
        if (t >= end) break;
        ping_words(in, ++n, w);
        Status s;
        {
          Span sp(st.tr, kSend, n);
          s = ep.send4(1, hping, w[0], w[1], w[2], w[3]);
        }
        ++st.attempted;
        if (s != Status::kOk) {
          ++st.bad;
          break;
        }
        wait_until(ep, st.tr, [&] { return st.pong == n; });
        if (t >= warm_end) st.cur->lat.add_latency((now_ns() - t) / 2);
      }
    } else {
      std::uint8_t buf[kBulkBytes];
      const double rate = net ? kNetLoadedRate : kShmLoadedRate;
      double next = static_cast<double>(t0);
      // Streams are rated between their first clock check after warm-up
      // and their last one.
      std::uint64_t t_first = 0, n_first = 0, t_last = 0, n_last = 0;
      for (;;) {
        std::uint64_t sched = 0;
        if (st.phase == kLoaded) {
          const std::uint64_t t = now_ns();
          if (t >= end) break;
          if (static_cast<double>(t) < next) {
            ep.extract();  // take acks while waiting for the next arrival
            continue;
          }
          if (next >= static_cast<double>(warm_end)) {
            sched = static_cast<std::uint64_t>(next);
            st.cur->late.add_latency(t - sched);
          }
          next += st.gaps.exp_gap_ns(rate);
        } else if ((n & 15) == 0) {
          const std::uint64_t t = now_ns();
          if (t_first == 0 && t >= warm_end) t_first = t, n_first = n;
          t_last = t, n_last = n;
          if (t >= end) break;
        }
        const std::size_t len = in.len(st.phase, n);
        const std::uint64_t h[2] = {n, sched};
        std::memcpy(buf, h, kHdr);
        std::memcpy(buf + kHdr, in.body(st.phase, n, len - kHdr), len - kHdr);
        if (st.tr != nullptr && st.phase == kBulk) {
          ++st.sends;
          if (ep.unacked() >= cfg.pending_window) ++st.window_full;
        }
        Status s;
        {
          Span sp(st.tr, kSend, n);
          s = ep.send(1, hdata, buf, len);
        }
        ++n;
        ++st.attempted;
        if (s != Status::kOk) {
          ++st.bad;
          break;
        }
        if (st.phase != kLoaded && (n & 31) == 0) ep.extract();
      }
      // The end marker goes out before drain(): the receiver flushes the
      // acks it still owes only once it has seen the whole slice.
      if (ep.send(1, hend, &n, sizeof n) != Status::kOk) ++st.bad;
      ep.drain();
      if (st.phase == kOps && t_last > t_first && t_first != 0)
        st.cur->ops.add_work(n_last - n_first, t_last - t_first);
      if (st.phase == kBulk && t_last > t_first && t_first != 0)
        st.cur->bulk.add_work((n_last - n_first) * kBulkBytes, t_last - t_first);
      return;
    }
    if (ep.send(1, hend, &n, sizeof n) != Status::kOk) ++st.bad;
  }

  void recv_slice(E& ep, Rank& st) {
    wait_until(ep, st.tr, [&] { return st.expect != kNone && st.got >= st.expect; });
    if (st.got != st.expect || (st.phase != kLat && st.once.contiguous() != st.expect))
      ++st.bad;
  }

  /// Per-layer numbers of the traced pass that come from the spans.
  void report_layers(C& cluster, E& ep, Rank& st) {
    const Tracer& t = *st.tracer;
    if (ep.id() == 0) {
      cluster.report("fm.send_ns", t.hist(kOps, kSend).quantile(0.5));
      cluster.report("fm.window_full_frac",
                     st.sends ? static_cast<double>(st.window_full) / st.sends : 0);
      cluster.report("loadgen.late_p90_us", st.passes.back().late.latency(0.9) / 1e3);
    } else {
      const Tracer::Agg& busy = t.agg(kOps, kExtract, true);
      cluster.report("fm.extract_ns_per_msg",
                     busy.children ? static_cast<double>(busy.self_ns) / busy.children : 0);
      const Tracer::Agg& idle = t.agg(kLoaded, kExtract, false);
      const Tracer::Agg& work = t.agg(kLoaded, kExtract, true);
      const double calls = static_cast<double>(idle.count + work.count);
      cluster.report("fm.idle_poll_frac", calls ? idle.count / calls : 0);
    }
  }
};

}  // namespace

void add_fm_counter_layers(const fm::RunReport& rep, Result& res, bool net) {
  const auto c = [&](const char* n) { return rep.sum_counter(n); };
  const double sent = c("messages_sent"), dlv = c("messages_delivered");
  auto& m = res.metrics;
  m["fm.frames_per_msg"] = sent ? c("frames_sent") / sent : 0;
  m["fm.standalone_acks_per_kmsg"] = dlv ? 1e3 * c("acks_standalone") / dlv : 0;
  m["fm.rejects_per_kmsg"] = sent ? 1e3 * c("rejects_received") / sent : 0;
  m["fm.retx_per_kmsg"] = sent ? 1e3 * c("retransmissions") / sent : 0;
  m["fm.dups_per_kmsg"] = dlv ? 1e3 * c("duplicates_suppressed") / dlv : 0;
  if (!net) return;
  const double dgrams = c("datagrams_tx");
  m["net.syscalls_per_kframe"] = dgrams ? 1e3 * c("batch_syscalls") / dgrams : 0;
  m["net.datagrams_per_msg"] = sent ? dgrams / sent : 0;
  m["net.wouldblock_per_kmsg"] = sent ? 1e3 * c("ewouldblock_stalls") / sent : 0;
  m["net.kernel_drops"] = c("kernel_drops");
}

Result run_msg(const Options& o, bool net) {
  Result res;
  if (net) {
    MsgBench<fm::net::Cluster> b(o);
    b.run(res);
  } else {
    MsgBench<fm::shm::Cluster> b(o);
    b.run(res);
  }
  return res;
}

}  // namespace fmb
