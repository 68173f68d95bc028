// serve-shm: FM-Serve over shm. Ranks 0 and 1 are shards (serve::Server),
// rank 2 is the client (serve::Client) spreading 256 seeded-uniform
// sessions over them. Four phases, all driven by the client:
//
//   lat     1 call in flight, 16 B echo; call to completion  -> lat_p50/p99_us
//   ops     32 calls in flight, 16 B echo                     -> ops_per_s
//   bulk    1 call in flight, answered with a 16 KiB body
//           (above eager_max_bytes: chunked and pulled)       -> mb_per_s
//   loaded  open loop at a seeded Poisson 100 K req/s, timed
//           from each call's scheduled time to completion     -> loaded_p50/p90_us
//
// The client checks that every completion arrives in per-session order,
// with status kOk and the exact seeded bytes. A call the client refuses
// before sending (kOverload from call(), nothing sent) is retried, as the
// Client contract asks. A shard sheds (kOverload completion) only when its
// send window to the client passes the overload mark, which the closed
// loops stay below: there a shed counts as failed. In the open loop a
// stalled shard can come back to more queued requests than that, so a shed
// arrival is issued again with its scheduled time; refusals and sheds are
// reported as serve.shed_per_kreq and per phase.
//
// The traced pass splits each echo call into two legs with clock stamps
// that ride in the messages: the request carries its call time, and the
// method answers with the time it replies in its place. The shard takes the
// request leg (call to method entry), the client the response leg (reply to
// completion). Spans are off in the lat phase, so there the legs add up to
// the latency the untraced pass measures plus the stamps' cost.
//
// Once per round the client and shard 0 measure the bare host (HostRef)
// between their CPUs, and the end-to-end figures are reported scaled to its
// nominal speed.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shm/cluster.h"

namespace fmb {
namespace {

using E = fm::shm::Endpoint;
using Server = fm::serve::Server<E>;
using Client = fm::serve::Client<E>;
using fm::Status;

constexpr std::uint32_t kShards = 2;
constexpr fm::NodeId kClientRank = 2;
constexpr std::size_t kSessions = 256;
// [session u32][seq u32][key u32][stamp u32]: 16 B, so that a request or
// an echo fits one 64 B ring slot with the frame and serve headers. The
// stamp is 0, or the low bits of a clock reading in the traced pass.
constexpr std::size_t kReqBytes = 16;
constexpr std::size_t kStampAt = 12;
constexpr std::size_t kBulkBytes = 16 * 1024;
// Open-loop offered rate. At 250 K req/s, 3 runs in 36 saturated (loaded p90
// 15-134 us): a client stall of a few hundred us let the shards' windows
// fill, they shed, and the reissued calls kept the client behind.
constexpr double kLoadedRate = 100'000;
// Calls in flight per phase (0: open loop). Bulk keeps one: with
// ServeConfig defaults a 16 KiB response streams up to 4 credited chunks
// (about 36 frames) through a 64-frame send window, so a request that meets
// a second stream on its shard can cross the 75 % overload mark and be shed.
constexpr std::size_t kInflight[kPhases] = {1, 32, 1, 0};
constexpr std::size_t kSlots = 64;  // per-session call records, by seq % kSlots
constexpr std::uint16_t kEchoMethod = 0, kBulkMethod = 1;
// Shed arrivals waiting to go again were calls in flight, and no new arrival
// goes out while any waits, so the client's in-flight cap bounds them.
constexpr std::size_t kRetryCap = fm::serve::ServeConfig{}.client_inflight_cap;
// Every call's deadline. ServeConfig's 50 ms default fails calls whose
// replies are already on their way when a shared host deschedules a rank
// that long; 10 s still fails a lost call.
constexpr std::uint64_t kDeadlineNs = 10'000'000'000;

std::size_t slot_of(std::uint32_t local, std::uint32_t seq) {
  return local * kSlots + seq % kSlots;
}

/// A clock reading as a nonzero stamp. Legs are differences of two stamps
/// modulo 2^32, right for any leg below 4 s.
std::uint32_t stamp_of(std::uint64_t ns) { return static_cast<std::uint32_t>(ns) | 1; }

/// State every rank can see (the ranks are threads of this process): the
/// client publishes the pass and phase.
struct alignas(64) Shared {
  std::atomic<bool> done{false};
  std::atomic<bool> traced{false};
  std::atomic<int> phase{kLat};
  std::atomic<std::uint64_t> ref_rounds{0};  // host reference rounds the client began
};

struct alignas(64) ShardState {
  std::unique_ptr<Tracer> tracer;
  Hist req_leg[kPhases];
  std::uint64_t ref_rounds = 0;  // host reference rounds joined (shard 0)
};

struct alignas(64) ClientState {
  std::unique_ptr<Tracer> tracer;
  Tracer* tr = nullptr;           // spans: the traced pass, outside the lat phase
  bool legs = false;              // stamped echo calls: the traced pass
  std::vector<PassStats> passes;  // one per pass of the plan
  PassStats* cur = nullptr;       // the current pass's
  Rng pick{0}, gaps{0};           // sessions of the calls, open-loop gaps
  Hist resp_leg[kPhases];
  std::vector<std::uint32_t> issued_of = std::vector<std::uint32_t>(kSessions, 0);
  std::vector<std::uint32_t> released_of = std::vector<std::uint32_t>(kSessions, 0);
  std::vector<std::uint64_t> issue_t = std::vector<std::uint64_t>(kSessions * kSlots, 0);
  std::vector<std::uint8_t> measured = std::vector<std::uint8_t>(kSessions * kSlots, 0);
  std::uint64_t completed = 0, bytes = 0;  // measured, in the current slice
  std::uint64_t attempted = 0, bad = 0;
  std::string first_bad;  // the cause of the first failed operation
  // By phase, over the whole run: calls the client refused before sending,
  // and calls a shard shed.
  std::uint64_t refused[kPhases] = {}, shed_remote[kPhases] = {};
  // Scheduled times of open-loop arrivals a shard shed, oldest first (a
  // ring; every slice ends with it empty).
  std::vector<std::uint64_t> retry = std::vector<std::uint64_t>(kRetryCap, 0);
  std::size_t retry_head = 0, retry_n = 0;

  /// Counts a failed operation, keeping the first one's cause.
  void fail(const char* what, Status st = Status::kOk) {
    if (bad++ != 0) return;
    first_bad = what;
    if (st != Status::kOk) first_bad += " " + std::string(fm::to_string(st));
  }
};

struct ServeBench {
  const Options& o;
  const Plan plan;
  const Pool pool;
  HostRef ref;  // client (role 0) and shard 0 (role 1)

  explicit ServeBench(const Options& opt) : o(opt), plan(Plan::of(opt)), pool(opt.seed) {}

  std::uint32_t key_of(std::uint32_t local, std::uint32_t seq) const {
    return static_cast<std::uint32_t>(mix64(o.seed ^ (std::uint64_t{local} << 32 | seq)));
  }
  /// The seeded request of call `seq` on session `local`, unstamped.
  void request(std::uint32_t local, std::uint32_t seq, std::uint8_t* out) const {
    const std::uint32_t w[4] = {local, seq, key_of(local, seq), 0};
    std::memcpy(out, w, kReqBytes);
  }

  /// Registers the two methods identically on every shard: echo, and a
  /// 16 KiB seeded body keyed by the request. `sh` and `st` are null when
  /// the shard only serves set-up calls.
  void add_methods(Server& srv, Shared* sh, ShardState* st, Tracer** tr) const {
    (void)srv.register_method([=](fm::NodeId, std::uint64_t, const void* data,
                                  std::size_t len, Server::ResponseWriter& w) {
      Span span(*tr, kMethod);
      const auto* in = static_cast<const std::uint8_t*>(data);
      std::uint32_t call_t = 0;
      if (len == kReqBytes) std::memcpy(&call_t, in + kStampAt, 4);
      if (call_t == 0) return w.reply(data, len);
      // A stamped call: its request leg ends here, and the reply carries
      // the stamp its response leg starts from.
      std::uint8_t out[kReqBytes];
      const std::uint32_t t = stamp_of(now_ns());
      std::memcpy(out, data, kStampAt);
      std::memcpy(out + kStampAt, &t, 4);
      w.reply(out, sizeof out);
      st->req_leg[sh->phase.load(std::memory_order_relaxed)].add(t - call_t);
    });
    (void)srv.register_method([=, this](fm::NodeId, std::uint64_t, const void* data,
                                        std::size_t len, Server::ResponseWriter& w) {
      Span span(*tr, kMethod);
      std::uint32_t k = 0;
      if (len == kReqBytes) std::memcpy(&k, static_cast<const std::uint8_t*>(data) + 8, 4);
      w.reply(pool.at(k, kBulkBytes), kBulkBytes);
    });
  }

  /// One set-up sample: cluster, shard and client engines to the first
  /// completed call, in seconds; negative on failure.
  double setup_once() {
    const std::uint64_t t0 = now_ns();
    fm::shm::Cluster cluster(kShards + 1);
    std::atomic<bool> done{false};
    double setup = -1;
    fm::RunReport rep = cluster.run([&](E& ep) {
      pin_or_die(o.cpus[ep.id()]);
      if (ep.id() < kShards) {
        Server srv(ep);
        Tracer* none = nullptr;  // untraced: the methods touch no stamps
        add_methods(srv, nullptr, nullptr, &none);
        while (!done.load(std::memory_order_acquire)) srv.poll();
        quiesce(cluster, ep);
        return;
      }
      Client cli(ep, kShards);
      bool finished = false;
      cli.set_completion([&](const fm::serve::CallResult& r) {
        finished = r.status == Status::kOk;
      });
      std::uint8_t req[kReqBytes];
      request(0, 0, req);
      if (cli.call(static_cast<std::uint64_t>(kClientRank) << 32, kEchoMethod, req,
                   sizeof req, 0, kDeadlineNs) == Status::kOk) {
        while (cli.inflight() > 0) cli.poll();
        if (finished) setup = static_cast<double>(now_ns() - t0) / 1e9;
      }
      done.store(true, std::memory_order_release);
      quiesce(cluster, ep);
    });
    return rep.all_clean() ? setup : -1;
  }

  void run(Result& res) {
    SetupSamples setup;
    const auto once = [this] { return setup_once(); };

    std::vector<std::unique_ptr<fm::shm::Cluster>> clusters;
    for (int c = 0; c < kPlacements; ++c)
      clusters.push_back(std::make_unique<fm::shm::Cluster>(kShards + 1));
    auto sh = std::make_unique<Shared>();
    std::vector<ShardState> shards(kShards);
    ClientState cs;
    cs.passes.resize(plan.passes);
    cs.pick = Rng(o.seed ^ 0x5e55);
    cs.gaps = Rng(o.seed ^ 0x6a9);
    if (o.trace) {
      for (ShardState& s : shards) s.tracer = std::make_unique<Tracer>();
      cs.tracer = std::make_unique<Tracer>();
    }
    // Round k runs on cluster k % kPlacements, with engines of its own.
    std::vector<fm::RunReport> last(clusters.size());
    for (int k = 0; k < Sliced::kSlices; ++k) {
      if (!o.trace && !setup.sample(once)) return res.fail("set-up call failed");
      fm::shm::Cluster& cluster = *clusters[k % clusters.size()];
      fm::RunReport& rep = last[k % clusters.size()];
      sh->done.store(false, std::memory_order_relaxed);
      rep = cluster.run([&](E& ep) {
        pin_or_die(o.cpus[ep.id()]);
        if (ep.id() < kShards)
          shard_round(cluster, ep, *sh, shards[ep.id()]);
        else
          client_round(cluster, ep, *sh, cs, k);
      });
      if (!rep.all_clean()) return res.fail("a rank did not exit cleanly");
      if (!rep.conservation().balanced()) return res.fail("message conservation violated");
    }
    for (fm::NodeId id = 0; id <= kShards && o.trace; ++id) {
      const Tracer& t = id < kShards ? *shards[id].tracer : *cs.tracer;
      (void)t.write_tsv(o.trace_dir + "/serve-shm.rank" + std::to_string(id) + ".tsv");
    }
    for (int pass = 0; pass < plan.passes; ++pass)
      cs.passes[pass].report([&, pre = plan.prefix(pass)](const char* name, double v) {
        res.metrics[pre + name] = v;
      });
    std::printf("serve refused/shed by phase:");
    for (int p = 0; p < kPhases; ++p)
      std::printf(" %s %llu/%llu", kPhaseName[p], static_cast<unsigned long long>(cs.refused[p]),
                  static_cast<unsigned long long>(cs.shed_remote[p]));
    std::printf("\n");
    // Counters are cumulative per endpoint: each cluster's last report.
    fm::RunReport rep;
    for (const fm::RunReport& r : last)
      rep.samples.insert(rep.samples.end(), r.samples.begin(), r.samples.end());
    res.attempted += cs.attempted;
    res.failed += cs.bad;
    if (cs.bad > 0) res.fail("serve: first failed operation: " + cs.first_bad);
    if (o.trace) layers(rep, shards, cs, res);
    ref.apply(res.metrics);
    if (ref.bad() > 0) res.fail("the host reference ring delivered slots out of order");
    if (!o.trace) res.metrics["setup_s"] = setup.median_s();
  }

  /// End of a rank: keeps serving while every rank drains, so no engine is
  /// destroyed with traffic still owed to it.
  static void quiesce(fm::shm::Cluster& cluster, E& ep) {
    cluster.barrier([&] { ep.extract(); });
    ep.drain();
    cluster.barrier([&] { ep.extract(); });
  }

  /// A round on a shard: a fresh Server serves until the client ends it.
  void shard_round(fm::shm::Cluster& cluster, E& ep, Shared& sh, ShardState& st) {
    Server srv(ep);
    Tracer* tr = nullptr;
    add_methods(srv, &sh, &st, &tr);
    while (!sh.done.load(std::memory_order_acquire)) {
      if (ep.id() == 0 && sh.ref_rounds.load(std::memory_order_acquire) != st.ref_rounds) {
        ++st.ref_rounds;
        ref.round(1);  // the client has every call completed
        continue;
      }
      const auto ph = static_cast<Phase>(sh.phase.load(std::memory_order_relaxed));
      tr = sh.traced.load(std::memory_order_relaxed) && ph != kLat ? st.tracer.get() : nullptr;
      if (tr != nullptr) tr->set_phase(ph);
      Span span(tr, kServerPoll);
      span.result(static_cast<std::int64_t>(srv.poll()));
    }
    quiesce(cluster, ep);
  }

  /// Round k on the client: a fresh Client plays every pass's four phases,
  /// then the round ends on every rank.
  void client_round(fm::shm::Cluster& cluster, E& ep, Shared& sh, ClientState& cs, int k) {
    Client cli(ep, kShards);
    Phase phase = kLat;
    std::uint64_t slice_end = 0;
    cli.set_completion([&](const fm::serve::CallResult& r) {
      const auto local = static_cast<std::uint32_t>(r.session & 0xffffffffu);
      const std::uint64_t t = now_ns();
      if (local >= kSessions || r.cookie != cs.released_of[local])
        return cs.fail("completion out of session order");
      const auto seq = cs.released_of[local]++;
      const std::size_t s = slot_of(local, seq);
      if (r.status == Status::kOverload) {
        ++cs.shed_remote[phase];
        if (phase != kLoaded || cs.retry_n == kRetryCap) return cs.fail("call shed by a shard");
        cs.retry[(cs.retry_head + cs.retry_n++) % kRetryCap] = cs.issue_t[s];
        return;
      }
      if (r.status != Status::kOk) return cs.fail("call completed with status", r.status);
      std::uint8_t req[kReqBytes];
      request(local, seq, req);
      const bool ok = phase == kBulk
                          ? r.len == kBulkBytes &&
                                std::memcmp(r.data, pool.at(key_of(local, seq), kBulkBytes),
                                            kBulkBytes) == 0
                          : r.len == kReqBytes && std::memcmp(r.data, req, kStampAt) == 0;
      if (!ok) return cs.fail("wrong response");
      if (cs.measured[s]) {
        if (phase == kLat) cs.cur->lat.add_latency(t - cs.issue_t[s]);
        if (phase == kLoaded) cs.cur->loaded.add_latency(t - cs.issue_t[s]);
        if (t < slice_end) {
          ++cs.completed;
          cs.bytes += r.len;
        }
      }
      if (cs.legs && phase != kBulk) {
        std::uint32_t reply_t;
        std::memcpy(&reply_t, static_cast<const std::uint8_t*>(r.data) + kStampAt, 4);
        cs.resp_leg[phase].add(stamp_of(t) - reply_t);
      }
    });
    // Issues one call on a seeded session, timed from `at` (0: from the
    // call itself). A call the client refuses (kOverload: nothing was sent)
    // is retried by the caller after a poll, as the Client contract asks.
    const auto issue = [&](std::uint64_t at, bool measured) {
      const auto local = static_cast<std::uint32_t>(cs.pick.below(kSessions));
      const std::uint32_t seq = cs.issued_of[local];
      const std::size_t s = slot_of(local, seq);
      const bool bulk = phase == kBulk;
      std::uint8_t req[kReqBytes];
      request(local, seq, req);
      const std::uint64_t call_t = now_ns();
      if (cs.legs && !bulk) {
        const std::uint32_t stamp = stamp_of(call_t);
        std::memcpy(req + kStampAt, &stamp, 4);
      }
      cs.issue_t[s] = at != 0 ? at : call_t;
      cs.measured[s] = measured;
      Status st;
      {
        Span span(cs.tr, kCall, static_cast<std::uint64_t>(local) << 32 | seq);
        st = cli.call(static_cast<std::uint64_t>(kClientRank) << 32 | local,
                      bulk ? kBulkMethod : kEchoMethod, req, sizeof req, seq, kDeadlineNs);
      }
      ++cs.attempted;
      if (st == Status::kOk) {
        ++cs.issued_of[local];
        return true;
      }
      if (st != Status::kOverload) cs.fail("call() returned", st);
      return false;
    };
    sh.ref_rounds.fetch_add(1, std::memory_order_release);
    ref.round(0);
    for (int pass = 0; pass < plan.passes; ++pass) {
      cs.cur = &cs.passes[pass];
      cs.legs = plan.traced(pass);
      sh.traced.store(cs.legs, std::memory_order_relaxed);
      for (int p = 0; p < kPhases; ++p) {
        phase = static_cast<Phase>(p);
        sh.phase.store(p, std::memory_order_relaxed);
        cs.tr = cs.legs && phase != kLat ? cs.tracer.get() : nullptr;
        if (cs.tr != nullptr) cs.tr->set_phase(phase);
        cs.cur->slice(k);
        // One slice: closed loop at the phase's in-flight count, or open
        // loop at kLoadedRate; then every call is let complete.
        const std::uint64_t t0 = now_ns(), warm_end = t0 + plan.warm_ns;
        slice_end = t0 + plan.slice_ns;
        cs.completed = cs.bytes = 0;
        double next = static_cast<double>(t0);
        bool refused = false;  // the pending arrival was refused once
        // Issues the oldest shed arrival again, unless the client refuses.
        const auto reissue = [&] {
          const std::uint64_t at = cs.retry[cs.retry_head];
          if (!issue(at, at >= warm_end)) return;
          cs.retry_head = (cs.retry_head + 1) % kRetryCap;
          --cs.retry_n;
        };
        for (;;) {
          const std::uint64_t t = now_ns();
          if (t >= slice_end) break;
          // One poll follows every arrival, so a generator catching up
          // after a stall still takes the shards' replies in between.
          if (kInflight[p] == 0) {
            if (cs.retry_n > 0) {
              reissue();
            } else if (static_cast<double>(t) >= next) {
              const auto at = static_cast<std::uint64_t>(next);
              if (!refused && at >= warm_end) cs.cur->late.add_latency(t - at);
              if (issue(at, at >= warm_end)) {
                next += cs.gaps.exp_gap_ns(kLoadedRate);
                refused = false;
              } else {
                cs.refused[p] += !refused;
                refused = true;
              }
            }
          } else {
            while (cli.inflight() < kInflight[p])
              if (!issue(0, t >= warm_end)) {
                ++cs.refused[p];
                break;
              }
          }
          Span span(cs.tr, kClientPoll);
          span.result(static_cast<std::int64_t>(cli.poll()));
        }
        while (!cli.quiesced() || cs.retry_n > 0) {
          if (cs.retry_n > 0) reissue();
          cli.poll();
        }
        if (phase == kOps) {
          cs.cur->ops.add_work(cs.completed, slice_end - warm_end);
          if (cs.tr != nullptr) ops_completed_traced += cs.completed;
        }
        if (phase == kBulk) cs.cur->bulk.add_work(cs.bytes, slice_end - warm_end);
      }
    }
    sh.done.store(true, std::memory_order_release);
    quiesce(cluster, ep);
  }

  std::uint64_t ops_completed_traced = 0;

  void layers(const fm::RunReport& rep, const std::vector<ShardState>& shards,
              const ClientState& cs, Result& res) {
    auto& m = res.metrics;
    const Tracer& ct = *cs.tracer;
    m["serve.call_ns"] = ct.hist(kOps, kCall).quantile(0.5);
    const double ops = static_cast<double>(ops_completed_traced);
    const double poll_ns = static_cast<double>(ct.agg(kOps, kClientPoll, true).dur_ns +
                                               ct.agg(kOps, kClientPoll, false).dur_ns);
    m["serve.client_poll_ns_per_req"] = ops ? poll_ns / ops : 0;
    double busy_ns = 0, served = 0, idle = 0, polls = 0;
    Hist req_lat, req_loaded;
    for (const ShardState& s : shards) {
      const Tracer& t = *s.tracer;
      busy_ns += static_cast<double>(t.agg(kOps, kServerPoll, true).dur_ns);
      served += static_cast<double>(t.agg(kOps, kMethod, true).count);
      idle += static_cast<double>(t.agg(kLoaded, kServerPoll, false).count);
      polls += static_cast<double>(t.agg(kLoaded, kServerPoll, false).count +
                                   t.agg(kLoaded, kServerPoll, true).count);
      req_lat.merge(s.req_leg[kLat]);
      req_loaded.merge(s.req_leg[kLoaded]);
    }
    m["serve.server_busy_ns_per_req"] = served ? busy_ns / served : 0;
    m["serve.server_idle_poll_frac"] = polls ? idle / polls : 0;
    m["serve.request_leg_us"] = req_lat.quantile(0.5) / 1e3;
    m["serve.response_leg_us"] = cs.resp_leg[kLat].quantile(0.5) / 1e3;
    m["serve.request_leg_p90_us"] = req_loaded.quantile(0.9) / 1e3;
    m["serve.response_leg_p90_us"] = cs.resp_leg[kLoaded].quantile(0.9) / 1e3;
    // The legs of the lat phase against the call-to-completion latency.
    const double legs = m["serve.request_leg_us"] + m["serve.response_leg_us"];
    for (const char* pass : {"u.", "t."}) {
      const double lat = m[std::string(pass) + "lat_p50_us"];
      const double ratio = lat > 0 ? legs / lat : 0;
      std::printf("serve legs: request + response %.4g us = %.3f x lat_p50 of the %s pass "
                  "(within 10 %%: %s)\n",
                  legs, ratio, *pass == 'u' ? "untraced" : "traced",
                  ratio >= 0.9 && ratio <= 1.1 ? "yes" : "no");
    }
    std::uint64_t refused = 0, shed = 0;
    for (int p = 0; p < kPhases; ++p) refused += cs.refused[p], shed += cs.shed_remote[p];
    m["serve.shed_per_kreq"] =
        cs.attempted ? 1e3 * static_cast<double>(refused + shed) / cs.attempted : 0;
    const double calls = static_cast<double>(cs.attempted - refused);
    m["serve.frames_per_req"] = calls ? rep.sum_counter("frames_sent") / calls : 0;
    m["loadgen.late_p90_us"] = cs.passes.back().late.latency(0.9) / 1e3;
    add_fm_counter_layers(rep, res, false);
  }
};

}  // namespace

Result run_serve(const Options& o) {
  Result res;
  ServeBench b(o);
  b.run(res);
  return res;
}

}  // namespace fmb
