// Extension study: latency *distribution*, not just the mean.
//
// The paper reports single latency numbers; a production messaging layer
// also cares about tails. Two structural effects are visible here:
//   * FM's data path has no background work, so its spread is tiny and
//     comes from protocol state alone (the first round trip, whose request
//     carries no piggybacked ack yet, is the fast one). The verdict printed
//     below is read off the measured row.
//   * The Myricom API's continuous automatic network remapping (Table 3)
//     periodically steals the LANai, so some messages stall behind mapping
//     work: a visible tail. "may be convenient for users but can hurt the
//     messaging layer's performance."
#include <algorithm>

#include "api/myri_api.h"
#include "bench/bench_common.h"
#include "fm/sim_endpoint.h"
#include "hw/cluster.h"

namespace {

using namespace fm;

struct Dist {
  double min_us, p50_us, p99_us, max_us;
};

Dist summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    return samples[std::min(samples.size() - 1,
                            static_cast<std::size_t>(q * samples.size()))];
  };
  return {samples.front(), at(0.50), at(0.99), samples.back()};
}

// Per-round one-way latencies for FM ping-pong.
std::vector<double> fm_rounds(std::size_t bytes, std::size_t rounds) {
  hw::Cluster c(2);
  FmConfig cfg;
  cfg.frame_payload = std::max<std::size_t>(bytes, 16);
  SimEndpoint a(c.node(0), cfg), b(c.node(1), cfg);
  std::size_t pongs = 0;
  HandlerId ha = a.register_handler(
      [&](SimEndpoint&, NodeId, const void*, std::size_t) { ++pongs; });
  HandlerId hb = b.register_handler(
      [](SimEndpoint& ep, NodeId src, const void* d, std::size_t n) {
        ep.post_send(src, 1, d, n);
      });
  FM_CHECK(ha == hb);
  a.start();
  b.start();
  std::vector<double> samples;
  auto ping = [](hw::Cluster& c, SimEndpoint& a, std::size_t bytes,
                 std::size_t rounds, std::size_t* pongs,
                 std::vector<double>* out) -> sim::Task {
    std::vector<std::uint8_t> buf(bytes, 0x5A);
    for (std::size_t r = 0; r < rounds; ++r) {
      sim::Time t0 = c.sim().now();
      FM_CHECK(ok(co_await a.send(1, 1, buf.data(), buf.size())));
      std::size_t before = *pongs;
      while (*pongs == before) (void)co_await a.extract_blocking();
      out->push_back(sim::to_us(c.sim().now() - t0) / 2.0);
    }
  };
  auto pong = [](SimEndpoint& b) -> sim::Task {
    for (;;) (void)co_await b.extract_blocking();
  };
  c.sim().spawn(ping(c, a, bytes, rounds, &pongs, &samples));
  c.sim().spawn(pong(b));
  c.sim().run_while_pending([&] { return pongs >= rounds; });
  a.shutdown();
  b.shutdown();
  c.sim().run();
  return samples;
}

std::vector<double> api_rounds(std::size_t bytes, std::size_t rounds) {
  hw::Cluster c(2);
  api::MyriApi a(c.node(0)), b(c.node(1));
  a.start();
  b.start();
  std::size_t pongs = 0;
  std::vector<double> samples;
  auto ping = [](hw::Cluster& c, api::MyriApi& a, std::size_t bytes,
                 std::size_t rounds, std::size_t* pongs,
                 std::vector<double>* out) -> sim::Task {
    std::vector<std::uint8_t> buf(bytes, 0x5A);
    for (std::size_t r = 0; r < rounds; ++r) {
      sim::Time t0 = c.sim().now();
      FM_CHECK(ok(co_await a.send_imm(1, buf.data(), buf.size())));
      (void)co_await a.receive_blocking();
      ++*pongs;
      out->push_back(sim::to_us(c.sim().now() - t0) / 2.0);
    }
  };
  auto pong = [](api::MyriApi& b) -> sim::Task {
    for (;;) {
      api::Message m = co_await b.receive_blocking();
      FM_CHECK(ok(co_await b.send_imm(m.src, m.data.data(), m.data.size())));
    }
  };
  c.sim().spawn(ping(c, a, bytes, rounds, &pongs, &samples));
  c.sim().spawn(pong(b));
  c.sim().run_while_pending([&] { return pongs >= rounds; });
  a.shutdown();
  b.shutdown();
  c.sim().run();
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = fm::bench::parse_args(argc, argv, "ext_jitter");
  const std::size_t rounds = std::max<std::size_t>(args.opts.pingpong_rounds,
                                                   200);
  fm::metrics::print_heading(
      stdout, "Extension: one-way latency distribution (jitter)");
  std::printf("\n%-22s %10s %10s %10s %10s %12s\n", "layer (128 B)", "min",
              "p50", "p99", "max", "max-min");
  auto row = [](const char* name, std::vector<double> samples) {
    const Dist d = summarize(samples);
    std::printf("%-22s %10.2f %10.2f %10.2f %10.2f %12.2f\n", name, d.min_us,
                d.p50_us, d.p99_us, d.max_us, d.max_us - d.min_us);
    return d;
  };
  const Dist fm = row("Fast Messages", fm_rounds(128, rounds));
  row("Myrinet API", api_rounds(128, rounds));
  if (fm.max_us == fm.min_us)
    std::printf("\nFM's path is deterministic: zero jitter.");
  else
    std::printf("\nFM's one-way latency spreads %.2f us (max - min).",
                fm.max_us - fm.min_us);
  std::printf(
      " The API's tail is its\n"
      "continuous automatic remapping stealing the LANai mid-message\n"
      "(Table 3's reconfiguration row, visible as p99/max inflation).\n");
  return 0;
}
