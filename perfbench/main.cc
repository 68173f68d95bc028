// fmbench: one workload of the FM benchmark per invocation.
//
//   fmbench --workload <shm-msg|net-msg|serve-shm|rma-shm> --seed N
//           --seconds S --trace 0|1 [--trace-dir DIR] [--source ID]
//
// Every rank is pinned to its own CPU from the affinity mask. Human-readable
// lines go to stdout; machine lines start with '@' ("@metric <name>
// <value>", "@attempted", "@failed", "@correct", "@error") and run.py turns
// them into the benchmark's JSON result. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run reports the per-layer ones
// plus the tracing overhead, measured against an untraced pass of the same
// run.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"

namespace {

using namespace fmb;

int usage(const char* why) {
  std::fprintf(stderr,
               "fmbench: %s\nusage: fmbench --workload shm-msg|net-msg|serve-shm|rma-shm "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR] [--source ID]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string cpu_list(const std::vector<int>& cpus, std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n && i < cpus.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(cpus[i]);
  }
  return s;
}

/// Peak resident set of this process and of the largest child it reaped,
/// in MiB.
double peak_rss_mib() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string source = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* endp = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &endp, 10);
      have_seed = *v != '\0' && *endp == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &endp);
      have_seconds = *v != '\0' && *endp == '\0' && o.seconds > 0 && o.seconds <= 120;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = o.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else if (a == "--source") {
      source = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds (0 < S <= 120) and --trace 0|1 are required");
  const bool net = o.workload == "net-msg", serve = o.workload == "serve-shm";
  if (!net && !serve && o.workload != "shm-msg" && o.workload != "rma-shm")
    return usage(("unknown workload " + o.workload).c_str());

  // The FM-Burst knobs resolve to NetConfig's built-in defaults, so a later
  // change of a default shows up here and a stray variable cannot.
  for (const char* k : {"FM_NET_BATCH", "FM_NET_GSO", "FM_NET_BUSY_POLL_US", "FM_NET_WATCHDOG_MS"})
    unsetenv(k);
  // A hung run ends itself well inside the 180 s a run may take.
  alarm(170);
  // One malloc arena, and large blocks always from mmap and back on free:
  // peak_rss_mb then follows what the program allocates, not which
  // per-thread arena a freed engine's tables happened to land in or glibc's
  // adaptive mmap threshold.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  const std::size_t ranks = serve ? 3 : 2;
  o.cpus = allowed_cpus();
  if (o.cpus.size() < ranks) {
    std::fprintf(stderr, "fmbench: %s needs %zu CPUs in the affinity mask, have %zu\n",
                 o.workload.c_str(), ranks, o.cpus.size());
    return 3;
  }
  // Keep the harness thread (net: the control-plane parent) off the ranks'
  // CPUs when a spare one exists.
  if (o.cpus.size() > ranks) (void)pin_to(o.cpus[ranks]);
  if (o.trace) std::filesystem::create_directories(o.trace_dir);

  std::printf("fingerprint: workload=%s seed=%llu seconds=%g trace=%d cpus=%s ranks_on=%s "
              "cpu=\"%s\" compiler=\"g++ %s\" build=%s source=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, cpu_list(o.cpus, o.cpus.size()).c_str(),
              cpu_list(o.cpus, ranks).c_str(), cpu_model().c_str(), __VERSION__,
              FMBENCH_BUILD_TYPE, source.c_str());
  std::fflush(stdout);

  std::string why;
  const bool hist_ok = hist_selftest(o.seed, &why);
  Result r = net     ? run_msg(o, true)
             : serve ? run_serve(o)
             : o.workload == "rma-shm" ? run_rma(o)
                                       : run_msg(o, false);
  if (!hist_ok) r.fail(why);
  if (o.trace) {
    add_trace_overheads(r);
    if (!net) r.metrics["shm.ring_floor_ns"] = shm_ring_floor_ns();
    if (o.workload == "shm-msg") {
      // The net layer is measured under the same message path: net-msg's
      // own figures spread too widely on a shared host to gate a change,
      // so its per-layer numbers ride along with shm-msg's traced run. So
      // do FM-R's retransmit and duplicate rates: net requires FM-R, and
      // shm-msg runs without it.
      Options on = o;
      on.workload = "net-msg";
      on.seconds = o.seconds / 2;
      Result rn = run_msg(on, true);
      for (const auto& [k, v] : rn.metrics)
        if (k.rfind("net.", 0) == 0 || k == "fm.retx_per_kmsg" || k == "fm.dups_per_kmsg")
          r.metrics[k] = v;
      r.attempted += rn.attempted;
      r.failed += rn.failed;
      for (const std::string& e : rn.errors) r.fail("net-msg: " + e);
    }
    if (net || o.workload == "shm-msg") {
      std::string err;
      r.metrics["net.udp_rtt_floor_us"] = udp_rtt_floor_us(o.cpus[0], o.cpus[1], &err);
      if (!err.empty()) r.fail(err);
    }
  } else {
    r.metrics["peak_rss_mb"] = peak_rss_mib();
  }
  if (r.failed > 0) r.fail(std::to_string(r.failed) + " operations failed a check");

  // The traced run's two passes, side by side: the overheads compare them.
  for (const auto& [k, v] : r.metrics)
    if (k.rfind("u.", 0) == 0 && r.metrics.count("t." + k.substr(2)))
      std::printf("pass %-16s untraced %.6g traced %.6g\n", k.substr(2).c_str(), v,
                  r.metrics["t." + k.substr(2)]);
  for (const std::string& e : r.errors) std::printf("@error %s\n", e.c_str());
  for (const auto& [k, v] : r.metrics)
    if (k.rfind("u.", 0) != 0 && k.rfind("t.", 0) != 0)
      std::printf("@metric %s %.17g\n", k.c_str(), v);
  std::printf("@attempted %llu\n@failed %llu\n@correct %d\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.correct ? 1 : 0);
  return r.correct ? 0 : 1;
}
