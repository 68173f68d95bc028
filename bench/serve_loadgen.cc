// FM-Serve load generator: closed- and open-loop driving of the sharded
// serving plane (src/serve) over either real transport.
//
// Legs (all 16-byte echo requests, per-session FIFO asserted on the fly):
//
//   closed/1shard/uniform   single-endpoint serving baseline
//   closed/Nshard/uniform   the scaling headline (vs the 1-shard leg)
//   closed/Nshard/zipf      zipfian session skew (hot sessions, hot shard)
//   open/Nshard/uniform 2x  offered load at twice the measured closed-loop
//                           capacity: the admission-control story — excess
//                           degrades into kOverload sheds, never deadlock
//   open/Nshard/burst       on/off burst arrivals at ~1.5x capacity
//
// Reporting: p50/p99/p999 via fm::LatencyHistogram, goodput (completed/s),
// offered rate, and shed rate, into schema-2 results/BENCH_serve.json with
// the serve.*/shm.* (or net.*) counter snapshots of the open-loop leg
// embedded. Single-core hosts can't exhibit shard scaling (every shard
// timeshares one core), so the JSON carries effective_cores and
// single_core_host for the trajectory consumer — same honesty rule as
// bench/net_hotpath's busy-poll leg.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "net/cluster.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shm/cluster.h"

namespace {

using namespace fm;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPUs this process may actually run on (the scheduler's truth, not the
/// machine's spec sheet).
int effective_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

enum class Loop { kClosed, kOpen };
enum class Mix { kUniform, kZipf, kBurst };

struct LegSpec {
  const char* name = "";
  Loop loop = Loop::kClosed;
  Mix mix = Mix::kUniform;
  std::size_t shards = 4;
  std::size_t clients = 1;
  std::size_t sessions = 256;      // logical sessions per client
  std::size_t target_inflight = 32;  // closed loop: outstanding calls
  double offered_rate = 0;         // open loop: requests/s
  std::uint64_t duration_ns = 0;
  std::size_t payload = 16;
};

struct LegResult {
  double goodput = 0;       // completed/s
  double offered = 0;       // issued + locally shed, /s
  double shed_rate = 0;     // (remote+local sheds) / offered
  double p50_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::vector<obs::Sample> samples;  // RunReport counter snapshots
  bool clean = false;
};

/// xorshift64* — deterministic per-client stream.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2685821657736338717ull + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 2685821657736338717ull;
  }
  double uniform01() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
};

/// Zipf(theta) sampler over [0, n) via inverse-CDF binary search.
struct ZipfPicker {
  std::vector<double> cdf;
  ZipfPicker(std::size_t n, double theta) {
    cdf.resize(n);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i)
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta) / sum;
      cdf[i] = acc;
    }
  }
  std::size_t pick(double u) const {
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
};

/// One serving-plane run on cluster backend C. Ranks [0, shards) serve,
/// ranks [shards, shards+clients) generate load.
template <class C>
LegResult run_leg(const LegSpec& spec) {
  using E = typename C::EndpointType;
  const std::size_t n = spec.shards + spec.clients;
  FmConfig fcfg;
  // The net backend mandates FM-R; the shm legs keep the default config so
  // the closed-loop headline stays comparable to bench/shm_hotpath.
  if (std::is_same_v<C, net::Cluster>) fcfg.reliability = true;
  C cluster(n, fcfg);
  // Out-of-band halt channel: each finished client pokes every shard.
  // (Per-endpoint slots: in the process backend each child only sees its
  // own, in the thread backend each endpoint only bumps its own.)
  auto done = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) done[i].store(0);
  HandlerId halt = cluster.register_handler(
      [&](E& ep, NodeId, const void*, std::size_t) {
        done[ep.id()].fetch_add(1);
      });

  serve::ServeConfig scfg;

  RunReport rep = cluster.run([&](E& ep) {
    if (ep.id() < spec.shards) {
      // ---- shard rank ----
      serve::Server<E> srv(ep, scfg);
      (void)srv.register_method([](NodeId, std::uint64_t, const void* data,
                                   std::size_t len,
                                   serve::Server<E>::ResponseWriter& w) {
        w.reply(data, len);  // echo
      });
      // Idle when a pass found nothing, so spare shards yield their core
      // to the ranks that have work (shm's idle is a yield, net's a park).
      while (done[ep.id()].load() < spec.clients)
        if (srv.poll() == 0) ep.idle_pause();
      cluster.barrier([&] { ep.extract(); });
      ep.drain();
      cluster.publish(srv.registry());
      cluster.barrier([&] { ep.extract(); });
      return;
    }
    // ---- client rank ----
    const NodeId rank = ep.id();
    serve::Client<E> cli(ep, static_cast<std::uint32_t>(spec.shards), scfg);
    (void)cli;  // engine registers its handler even if a rank issues nothing
    LatencyHistogram hist;
    std::uint64_t completed = 0, shed_remote = 0, deadline = 0, other = 0;
    // Per-session completion-order assertion: cookies are per-session issue
    // counters; ordered release must hand them back monotonically.
    std::vector<std::uint64_t> issued_of(spec.sessions, 0);
    std::vector<std::uint64_t> released_of(spec.sessions, 0);
    cli.set_completion([&](const serve::CallResult& r) {
      const auto local = static_cast<std::size_t>(r.session & 0xffffffffu);
      FM_CHECK_MSG(r.cookie == released_of[local],
                   "per-session completion order violated");
      ++released_of[local];
      switch (r.status) {
        case Status::kOk:
          ++completed;
          hist.add(now_ns() - r.issue_ns);
          break;
        case Status::kOverload: ++shed_remote; break;
        case Status::kDeadline: ++deadline; break;
        default: ++other; break;
      }
    });
    Rng rng(0x5eed0000ull + rank);
    ZipfPicker zipf(spec.sessions, /*theta=*/1.1);
    std::vector<std::uint8_t> payload(spec.payload, 0x5A);
    auto pick_session = [&]() -> std::uint64_t {
      const std::size_t local = spec.mix == Mix::kZipf
                                    ? zipf.pick(rng.uniform01())
                                    : static_cast<std::size_t>(
                                          rng.next() % spec.sessions);
      return (static_cast<std::uint64_t>(rank) << 32) | local;
    };
    auto issue = [&](std::uint64_t sess) -> bool {
      const auto local = static_cast<std::size_t>(sess & 0xffffffffu);
      const Status st = cli.call(sess, /*method=*/0, payload.data(),
                                 payload.size(), issued_of[local]);
      if (st == Status::kOk) {
        ++issued_of[local];
        return true;
      }
      return false;
    };

    const std::uint64_t t0 = now_ns();
    const std::uint64_t t_end = t0 + spec.duration_ns;
    if (spec.loop == Loop::kClosed) {
      while (now_ns() < t_end) {
        while (cli.inflight() < spec.target_inflight) {
          if (!issue(pick_session())) break;  // shed: service and retry
        }
        cli.poll();
      }
    } else {
      // Open loop: arrivals on a fixed schedule, issued regardless of
      // completions. A locally shed arrival is *not* retried — shedding
      // under overload is the measured behavior.
      const double rate = spec.offered_rate;
      const auto interval =
          static_cast<std::uint64_t>(1e9 / (rate > 1 ? rate : 1));
      // Burst mix: 5 ms at 4x rate, 15 ms idle (same average rate).
      const std::uint64_t burst_period = 20'000'000, burst_on = 5'000'000;
      std::uint64_t next_arrival = t0;
      while (true) {
        const std::uint64_t t = now_ns();
        if (t >= t_end) break;
        if (spec.mix == Mix::kBurst) {
          const std::uint64_t phase = (t - t0) % burst_period;
          if (phase >= burst_on) {
            // Off phase: fast-forward the schedule to the next burst.
            const std::uint64_t next_on = t + (burst_period - phase);
            if (next_arrival < next_on) next_arrival = next_on;
            cli.poll();
            continue;
          }
        }
        const std::uint64_t burst_mul = spec.mix == Mix::kBurst ? 4 : 1;
        while (next_arrival <= t) {
          (void)issue(pick_session());
          next_arrival += interval / burst_mul;
        }
        cli.poll();
      }
    }
    // Let stragglers resolve (deadlines bound this).
    const std::uint64_t t_quiesce = now_ns() + 2 * scfg.default_deadline_ns;
    while (!cli.quiesced() && now_ns() < t_quiesce) cli.poll();
    const double elapsed =
        static_cast<double>(now_ns() - t0) / 1e9;

    // Tell every shard this client is done (retrying past full windows).
    std::uint8_t bye = 1;
    for (std::size_t s = 0; s < spec.shards; ++s) {
      while (ep.send(static_cast<NodeId>(s), halt, &bye, 1) != Status::kOk)
        ep.extract();
    }
    const serve::ClientCounters& cc = cli.counters();
    const std::string p = "c" + std::to_string(rank) + ".";
    cluster.report(p + "completed", static_cast<double>(completed));
    cluster.report(p + "shed_remote", static_cast<double>(shed_remote));
    cluster.report(p + "shed_local", static_cast<double>(cc.calls_shed_local));
    cluster.report(p + "deadline", static_cast<double>(deadline));
    cluster.report(p + "other", static_cast<double>(other));
    cluster.report(p + "issued", static_cast<double>(cc.calls_issued));
    cluster.report(p + "elapsed_s", elapsed);
    cluster.report(p + "p50_ns", static_cast<double>(hist.quantile(0.50)));
    cluster.report(p + "p99_ns", static_cast<double>(hist.quantile(0.99)));
    cluster.report(p + "p999_ns", static_cast<double>(hist.quantile(0.999)));
    cluster.barrier([&] { ep.extract(); });
    ep.drain();
    cluster.publish(cli.registry());
    cluster.barrier([&] { ep.extract(); });
  });

  LegResult r;
  r.clean = rep.all_clean();
  r.samples = std::move(rep.samples);
  double issued = 0, shed_local = 0, elapsed = 0;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    const std::string p = "c" + std::to_string(spec.shards + c) + ".";
    auto get = [&](const char* k) {
      auto it = rep.metrics.find(p + k);
      return it == rep.metrics.end() ? 0.0 : it->second;
    };
    r.completed += static_cast<std::uint64_t>(get("completed"));
    r.shed += static_cast<std::uint64_t>(get("shed_remote")) +
              static_cast<std::uint64_t>(get("shed_local"));
    r.deadline += static_cast<std::uint64_t>(get("deadline"));
    issued += get("issued");
    shed_local += get("shed_local");
    elapsed = std::max(elapsed, get("elapsed_s"));
    // Tail quantiles across clients: take the worst (conservative).
    r.p50_us = std::max(r.p50_us, get("p50_ns") / 1e3);
    r.p99_us = std::max(r.p99_us, get("p99_ns") / 1e3);
    r.p999_us = std::max(r.p999_us, get("p999_ns") / 1e3);
  }
  if (elapsed > 0) {
    r.goodput = static_cast<double>(r.completed) / elapsed;
    r.offered = (issued + shed_local) / elapsed;
  }
  const double attempts = issued + shed_local;
  if (attempts > 0)
    r.shed_rate = (static_cast<double>(r.shed)) / attempts;
  return r;
}

struct Options {
  std::size_t shards = 4;
  std::size_t clients = 1;
  double seconds = 1.0;
  std::string backend = "shm";
  std::string json = "results/BENCH_serve.json";
  bool quick = false;
};

void print_leg(const char* name, const LegResult& r) {
  std::printf(
      "%-22s: %9.0f done/s  offered %9.0f/s  shed %5.1f%%  "
      "p50 %7.1f us  p99 %8.1f us  p999 %8.1f us%s\n",
      name, r.goodput, r.offered, r.shed_rate * 100.0, r.p50_us, r.p99_us,
      r.p999_us, r.clean ? "" : "  [UNCLEAN RUN]");
}

template <class C>
int run_all(const Options& opt) {
  const int cores = effective_cores();
  const std::uint64_t dur =
      static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<fm::bench::JsonMetric> metrics;
  metrics.push_back({"effective_cores", static_cast<double>(cores)});
  metrics.push_back({"single_core_host", cores == 1 ? 1.0 : 0.0});
  metrics.push_back({"shards", static_cast<double>(opt.shards)});
  metrics.push_back({"clients", static_cast<double>(opt.clients)});
  if (cores == 1) {
    std::printf(
        "NOTE: single-core host — all shards timeshare one CPU, so the "
        "N-shard scaling leg\nmeasures scheduling overhead, not "
        "parallelism. Numbers are honest, annotated, and\nnot comparable "
        "to multi-core runs (see single_core_host in the JSON).\n\n");
  }
  bool ok = true;

  LegSpec leg;
  leg.clients = opt.clients;
  leg.duration_ns = dur;

  // 1. closed / 1 shard / uniform — the single-endpoint serving baseline.
  leg.name = "closed_1shard";
  leg.shards = 1;
  const LegResult base = run_leg<C>(leg);
  print_leg(leg.name, base);
  ok = ok && base.clean;
  metrics.push_back({"closed_1shard_msgs_per_sec", base.goodput});
  metrics.push_back({"closed_1shard_p50_us", base.p50_us});
  metrics.push_back({"closed_1shard_p99_us", base.p99_us});
  metrics.push_back({"closed_1shard_p999_us", base.p999_us});

  // 2. closed / N shards / uniform — the scaling headline.
  leg.name = "closed_Nshard";
  leg.shards = opt.shards;
  const LegResult wide = run_leg<C>(leg);
  print_leg(leg.name, wide);
  ok = ok && wide.clean;
  metrics.push_back({"closed_Nshard_msgs_per_sec", wide.goodput});
  metrics.push_back({"closed_Nshard_p50_us", wide.p50_us});
  metrics.push_back({"closed_Nshard_p99_us", wide.p99_us});
  metrics.push_back({"closed_Nshard_p999_us", wide.p999_us});
  const double scaling = base.goodput > 0 ? wide.goodput / base.goodput : 0;
  metrics.push_back({"closed_scaling_x", scaling});
  std::printf("%-22s: %.2fx over 1 shard (%d effective core%s)\n",
              "shard scaling", scaling, cores, cores == 1 ? "" : "s");

  // 3. closed / N shards / zipf — skewed sessions concentrate load.
  leg.name = "closed_zipf";
  leg.mix = Mix::kZipf;
  const LegResult skew = run_leg<C>(leg);
  print_leg(leg.name, skew);
  ok = ok && skew.clean;
  metrics.push_back({"closed_zipf_msgs_per_sec", skew.goodput});
  metrics.push_back({"closed_zipf_p99_us", skew.p99_us});

  // 4. open / N shards / burst — on/off arrivals around 1.5x capacity.
  leg.name = "open_burst";
  leg.loop = Loop::kOpen;
  leg.mix = Mix::kBurst;
  leg.offered_rate = std::max(wide.goodput * 1.5, 2000.0);
  const LegResult burst = run_leg<C>(leg);
  print_leg(leg.name, burst);
  ok = ok && burst.clean;
  metrics.push_back({"open_burst_offered_msgs_per_sec", burst.offered});
  metrics.push_back({"open_burst_goodput_msgs_per_sec", burst.goodput});
  metrics.push_back({"open_burst_shed_rate", burst.shed_rate});
  metrics.push_back({"open_burst_p999_us", burst.p999_us});

  // 5. open / N shards / uniform at 2x capacity — overload degrades into
  // sheds with a bounded tail for what *is* served; nothing deadlocks.
  leg.name = "open_2x";
  leg.mix = Mix::kUniform;
  leg.offered_rate = std::max(wide.goodput * 2.0, 2000.0);
  const LegResult over = run_leg<C>(leg);
  print_leg(leg.name, over);
  ok = ok && over.clean;
  metrics.push_back({"open_2x_offered_msgs_per_sec", over.offered});
  metrics.push_back({"open_2x_goodput_msgs_per_sec", over.goodput});
  metrics.push_back({"open_2x_shed_rate", over.shed_rate});
  metrics.push_back({"open_2x_p50_us", over.p50_us});
  metrics.push_back({"open_2x_p999_us", over.p999_us});

  fm::bench::write_bench_json(opt.json, "serve_loadgen", metrics,
                              over.samples);
  std::printf("\nJSON written to %s\n", opt.json.c_str());
  if (!ok) {
    std::fprintf(stderr, "one or more legs had unclean ranks\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shards=", 9) == 0) {
      opt.shards = std::strtoull(arg + 9, nullptr, 10);
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      opt.clients = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
      opt.seconds = std::strtod(arg + 10, nullptr);
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      opt.backend = arg + 10;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opt.json = arg + 7;
    } else if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
      opt.seconds = 0.2;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: serve_loadgen [--shards=N] [--clients=N] [--seconds=S] "
          "[--backend=shm|net] [--json=PATH] [--quick]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }
  FM_CHECK_MSG(opt.shards >= 1 && opt.shards <= 64, "1..64 shards");
  FM_CHECK_MSG(opt.clients >= 1, "need a client rank");
  std::printf("==== serve loadgen (%zu shards, %zu clients, %s, %.2fs/leg) "
              "====\n",
              opt.shards, opt.clients, opt.backend.c_str(), opt.seconds);
  if (opt.backend == "shm") return run_all<shm::Cluster>(opt);
  if (opt.backend == "net") return run_all<net::Cluster>(opt);
  std::fprintf(stderr, "unknown backend: %s\n", opt.backend.c_str());
  return 2;
}
