// Shared pieces of fmbench: the clock, seeded inputs, the log-linear
// latency histogram, the exactly-once window, benchmark-side spans, CPU
// placement and the result every workload hands back to main().
//
// Everything a timed phase touches is allocated before the phase starts, so
// the benchmark's own memory does not grow with run length or speed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fm {
struct RunReport;
}

namespace fmb {

// ---------------------------------------------------------------------------
// Clock and seeded inputs
// ---------------------------------------------------------------------------

/// CLOCK_MONOTONIC in ns: shared by threads and by forked processes on one
/// host, so a stamp taken by one rank can be compared in another.
std::uint64_t now_ns();

/// SplitMix64 finalizer: a cheap, well-mixed hash of one 64-bit key.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded SplitMix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix64(seed)) {}
  std::uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ull); }
  /// Uniform in [0, 1).
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// One exponential inter-arrival gap, in ns, of a Poisson process at
  /// `per_s` events per second.
  double exp_gap_ns(double per_s);

 private:
  std::uint64_t s_;
};

/// Seeded payload bytes. Every message, response and RMA region the
/// benchmark writes is a slice of this pool chosen by a key, so a receiver
/// can check any delivered byte without a copy of what was sent.
class Pool {
 public:
  /// Twice the largest slice (a 64 KiB put), and small enough to stay in a
  /// core's L2 beside FM's own state: both ranks read the pool for every
  /// message, and a larger one made the streams time its cache misses.
  static constexpr std::size_t kBytes = 1 << 17;
  explicit Pool(std::uint64_t seed);
  /// The `len`-byte slice (len <= kBytes / 2) that `key` selects.
  const std::uint8_t* at(std::uint64_t key, std::size_t len) const {
    return bytes_.data() + mix64(key ^ salt_) % (kBytes - len);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t salt_;
};

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Log-linear latency histogram: 128 linear sub-buckets per power of two,
/// so a reported quantile is within 1/256 of the true sample value
/// (HdrHistogram's layout). Fixed size, allocated at construction.
class Hist {
 public:
  Hist();
  void add(std::uint64_t ns);
  void merge(const Hist& o);
  std::uint64_t count() const { return n_; }
  /// Nearest-rank q-quantile in ns (0 when empty).
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr int kMaxExp = 40;  // values clamp below 2^40 ns (18 min)
  static constexpr std::size_t kBuckets = (kMaxExp - kSubBits + 1) * kSub;
  static std::size_t index(std::uint64_t v);
  static double representative(std::size_t idx);

  std::vector<std::uint32_t> buckets_;  // a slice holds far fewer than 2^32
  std::uint64_t n_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// A phase measured as kSlices short slices spread over the run: the
/// phases take turns, one slice each per round, and each reports the median
/// over its slices. The host's speed moves in stretches of seconds, both
/// ways: a descheduled vCPU or an open-loop backlog spoils slices, and in
/// stretches of a few seconds the streams ran twice as fast. Interleaving
/// gives every phase the same share of each host state, and the median
/// holds until a stretch covers half the run.
class Sliced {
 public:
  static constexpr int kSlices = 80;
  /// `latencies` false: a rate-only phase, with no histograms.
  explicit Sliced(bool latencies = true) : hist_(latencies ? kSlices : 0) {}
  /// Directs the samples that follow to slice `k`.
  void slice(int k) { k_ = k; }
  void add_latency(std::uint64_t ns) { hist_[k_].add(ns); }
  /// `units` of work done in `busy_ns` of measured time.
  void add_work(std::uint64_t units, std::uint64_t busy_ns) {
    units_[k_] += units;
    busy_[k_] += busy_ns;
  }
  /// Median over slices of each slice's q-quantile, in ns (slices with at
  /// least 100 samples; 0 when none has).
  double latency(double q) const;
  /// Median over slices of each slice's units per busy second.
  double rate() const;

 private:
  std::vector<Hist> hist_;
  std::uint64_t units_[kSlices] = {};
  std::uint64_t busy_[kSlices] = {};
  int k_ = 0;
};

/// Clusters a shm run takes its rounds on, in turn (round k on cluster
/// k % kPlacements). Where an instance's rings land in physical memory sets
/// its speed: interleaved in one process, instances kept levels up to 1.5x
/// apart, so a run on one instance drew one level per run. Rotating
/// averages over kPlacements of them.
constexpr int kPlacements = 20;

/// The end-to-end measurements of one pass, on one rank.
struct PassStats {
  Sliced lat, loaded, late, ops{false}, bulk{false};
  /// Directs the samples that follow to slice `k`.
  void slice(int k) {
    for (Sliced* s : {&lat, &loaded, &late, &ops, &bulk}) s->slice(k);
  }
  /// Hands `put(name, value)` each metric this rank took samples for.
  template <class Put>
  void report(Put&& put) const {
    const std::pair<const char*, double> v[] = {
        {"lat_p50_us", lat.latency(0.50) / 1e3},
        {"lat_p99_us", lat.latency(0.99) / 1e3},
        {"ops_per_s", ops.rate()},
        {"mb_per_s", bulk.rate() / 1e6},
        {"loaded_p50_us", loaded.latency(0.50) / 1e3},
        {"loaded_p90_us", loaded.latency(0.90) / 1e3},
        {"late_p90_us", late.latency(0.90) / 1e3},
    };
    for (const auto& [name, value] : v)
      if (value > 0) put(name, value);
  }
};

/// Checks Hist's quantiles against sorted raw samples; false (with the
/// reason in `why`) if any is off by more than 1 %.
bool hist_selftest(std::uint64_t seed, std::string* why);

/// Exactly-once check for ids 0, 1, 2, ... that may arrive reordered by at
/// most kWindow positions: fixed memory, whatever the run length.
class OnceWindow {
 public:
  static constexpr std::uint64_t kWindow = 1 << 16;
  OnceWindow() : bits_(kWindow / 64, 0) {}
  /// True when `id` is new; false for a duplicate or an id out of window.
  bool mark(std::uint64_t id);
  /// Every id below this has been seen.
  std::uint64_t contiguous() const { return base_; }
  void reset();

 private:
  bool test(std::uint64_t id) const {
    return (bits_[(id % kWindow) / 64] >> (id % 64)) & 1;
  }
  std::vector<std::uint64_t> bits_;
  std::uint64_t base_ = 0;
};

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------

/// Layer-boundary calls the benchmark wraps in spans.
enum Kind : std::uint8_t {
  kSend,        // fm: Endpoint::send / send4
  kExtract,     // fm: Endpoint::extract
  kHandler,     // fm: the benchmark's handler (a child of extract)
  kCall,        // serve: Client::call
  kClientPoll,  // serve: Client::poll
  kServerPoll,  // serve: Server::poll
  kMethod,      // serve: the served method (a child of Server::poll)
  kPut,         // rma: Engine::put
  kFence,       // rma: Engine::epoch_close
  kKinds
};

/// Phases every workload runs, in this order.
enum Phase : std::uint8_t { kLat, kOps, kBulk, kLoaded, kPhases };
extern const char* const kPhaseName[kPhases];

/// One rank's spans: a name, start, end, parent span and operation id per
/// span. Durations and self times (a span minus its child spans) are
/// aggregated online per (phase, kind); one root span in kSampleEvery is
/// also kept, with its children, in a preallocated buffer that write_tsv()
/// dumps at exit.
class Tracer {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t children = 0;  // direct child spans
  };

  Tracer();
  void set_phase(Phase p) { phase_ = p; }
  void begin(Kind k, std::uint64_t op);
  /// Closes the innermost span; `result` > 0 marks it busy (work done).
  void end(std::int64_t result);
  /// Aggregate of the spans of kind `k` in phase `p`, busy or idle ones.
  const Agg& agg(Phase p, Kind k, bool busy) const {
    return agg_[p][k][busy ? 1 : 0];
  }
  /// Duration histogram of kind `k` in phase `p` (kept for the calls whose
  /// median is reported: send, call, put, fence; empty for the others).
  const Hist& hist(Phase p, Kind k) const { return hist_[std::size_t{p} * kKinds + k]; }
  /// Writes the sampled spans as tab-separated lines; false on I/O error.
  bool write_tsv(const std::string& path) const;

 private:
  static constexpr std::size_t kDepth = 8;
  static constexpr std::size_t kCapacity = 1 << 16;
  static constexpr std::uint64_t kSampleEvery = 64;
  struct Frame {
    std::uint64_t start = 0, child_ns = 0, op = 0;
    std::uint32_t id = 0, parent = 0, children = 0;
    Kind kind = kSend;
    bool sampled = false;
  };
  struct Rec {
    std::uint64_t start, end, op;
    std::uint32_t id, parent;
    std::uint8_t kind, phase;
    std::int32_t result;
  };
  Frame stack_[kDepth];
  std::size_t depth_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint64_t roots_ = 0;
  Phase phase_ = kLat;
  Agg agg_[kPhases][kKinds][2];
  std::vector<Hist> hist_;
  std::vector<Rec> recs_;
  std::size_t n_recs_ = 0;
};

/// RAII span: a no-op when `t` is null (untraced runs pay one branch).
class Span {
 public:
  Span(Tracer* t, Kind k, std::uint64_t op = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(k, op);
  }
  ~Span() {
    if (t_ != nullptr) t_->end(result_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void result(std::int64_t r) { result_ = r; }

 private:
  Tracer* t_;
  std::int64_t result_ = 1;
};

// ---------------------------------------------------------------------------
// Placement, options, results
// ---------------------------------------------------------------------------

/// CPUs in this process's affinity mask, highest first: the ranks take
/// the front of the list, which keeps them off CPU 0, where interrupts and
/// housekeeping tasks usually run.
std::vector<int> allowed_cpus();
/// Pins the calling thread (a whole process, when it has one thread) to
/// `cpu`; false on failure.
bool pin_to(int cpu);
/// pin_to() for a rank: a rank that cannot be placed ends the process.
void pin_or_die(int cpu);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  std::vector<int> cpus;  // rank i runs on cpus[i]
};

/// Timing of one run: kSlices rounds, in each of which every pass plays the
/// four phases, every phase slice lasting `slice_ns` and unmeasured for its
/// first `warm_ns`. A traced run has two passes with slices half as long:
/// an untraced and a traced one take turns every round, so both see the
/// same states of the host and the tracing overhead is their difference.
struct Plan {
  int passes = 1;  // 2 in a traced run: untraced, then traced, every round
  std::uint64_t slice_ns = 0;
  std::uint64_t warm_ns = 0;
  static Plan of(const Options& o);
  bool traced(int pass) const { return passes == 2 && pass == 1; }
  /// Key prefix of the end-to-end metrics a pass reports: none in an
  /// untraced run; "u." (untraced pass) and "t." (traced pass) in a traced
  /// run, which add_trace_overheads() compares.
  std::string prefix(int pass) const {
    return passes == 1 ? "" : pass == 0 ? "u." : "t.";
  }
};

/// What one workload run hands back: every value it measured, by metric
/// name (run.py reports the ones BENCHMARK.json lists), plus the pass
/// metrics of a traced run under "u."/"t.", and its operation counts.
struct Result {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Set-up time of an untraced run: `once()` samples one construction to
/// first round trip (seconds, negative on failure). One sample opens every
/// round, so the median spans the run as the phases do, and every sample
/// starts as a program's set-up does, with the ranks' CPUs idle. Samples
/// taken back to back ran up to 2x faster than the first and made a median
/// of both kinds that moved by 20 % between runs; the first alone, 5 %.
class SetupSamples {
 public:
  template <class Once>
  bool sample(Once&& once) {
    const double s = once();
    if (s < 0) return false;
    samples_.push_back(s);
    return true;
  }
  double median_s() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

/// Traced-run overheads: the traced pass against the untraced one, in %,
/// from metrics a workload reported as "u.<name>" and "t.<name>".
void add_trace_overheads(Result& r);

/// The per-layer numbers that come from the endpoint registries, summed
/// over every rank and the whole run: fm.* ratios, and net.* on net.
void add_fm_counter_layers(const fm::RunReport& rep, Result& res, bool net);

Result run_msg(const Options& o, bool net);
Result run_serve(const Options& o);
Result run_rma(const Options& o);

/// The host's bare shared-memory speed between two of the ranks' CPUs,
/// measured by the benchmark's own code once per round, outside every
/// phase: a one-line ping-pong and a one-way stream of 64 B slots through a
/// plain ring, each waiting side idling with sched_yield as the shm
/// endpoints do. No FM code runs in it, so a change to FM leaves it alone.
/// Like the FM clusters, the rounds rotate over kPlacements rings, each
/// allocated on its own.
///
/// The host's speed drifts by up to 2x over minutes (where the hypervisor
/// places the vCPUs, what its neighbours run), and FM's figures on shm drift
/// with it: raw, they spread past any useful bound across runs of the same
/// code. In the fast stretches seen, every FM latency and rate moved about
/// 2.05x and the two bare figures 1.73x (round trip) and 2.14x (stream), so
/// apply() scales them all by one host index, the geometric mean of the two
/// bare figures against nominal ones. That cancels most of the drift and
/// keeps FM's own cost in full.
class HostRef {
 public:
  /// The nominal bare host: typical figures of the 4-vCPU KVM Xeon the
  /// benchmark was written on.
  static constexpr double kNominalHalfRttNs = 300;
  static constexpr double kNominalStreamPerS = 20e6;

  HostRef();
  /// One round, entered by two threads at about the same time: role 0
  /// pings and produces, role 1 echoes and consumes. Each returns when the
  /// round is over on its side.
  void round(int role);
  /// Slots that arrived out of order: a broken reference, never expected.
  std::uint64_t bad() const { return bad_; }
  /// Scales the end-to-end latencies in `m` up and rates down by the host
  /// index (1 on the nominal host, 2 on one twice as fast), prints both
  /// sides of the scaling, and adds the bare figures as shm.bare_* metrics.
  /// Only unprefixed (untraced) metrics are scaled.
  void apply(std::map<std::string, double>& m) const;

 private:
  struct alignas(64) Line {
    std::atomic<std::uint64_t> v{0};
  };
  struct Ring {
    Line ready, ping, pong, tail, head, done;
    alignas(64) std::uint8_t slots[256][64];
  };
  std::vector<std::unique_ptr<Ring>> rings_;
  std::uint64_t rounds_[2] = {0, 0};  // per role: each written by one thread
  std::vector<double> half_rtt_ns_, stream_per_s_;  // role 0's samples
  std::uint64_t bad_ = 0;                           // role 1's count
};

/// ns per 128 B frame through SpscRing reserve/commit + consume_batch on
/// one thread (median of several batches).
double shm_ring_floor_ns();
/// Half round trip, in us, of a bare UdpSocket ping-pong between two
/// processes pinned to `cpu_a` and `cpu_b` (median of several batches).
double udp_rtt_floor_us(int cpu_a, int cpu_b, std::string* err);

}  // namespace fmb
