#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

namespace fmb {

const char* const kPhaseName[kPhases] = {"lat", "ops", "bulk", "loaded"};

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double Rng::exp_gap_ns(double per_s) {
  return -std::log1p(-uniform01()) * 1e9 / per_s;
}

Pool::Pool(std::uint64_t seed) : bytes_(kBytes), salt_(mix64(seed ^ 0x9001)) {
  Rng r(seed ^ 0x7001);
  for (std::size_t i = 0; i < kBytes; i += 8) {
    const std::uint64_t w = r.next();
    for (std::size_t b = 0; b < 8; ++b)
      bytes_[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
}

// ---------------------------------------------------------------------------
// Hist
// ---------------------------------------------------------------------------

Hist::Hist() : buckets_(kBuckets, 0) {}

std::size_t Hist::index(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  v = std::min<std::uint64_t>(v, (1ull << kMaxExp) - 1);
  const int e = 63 - __builtin_clzll(v);  // kSubBits <= e < kMaxExp
  const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return static_cast<std::size_t>(e - kSubBits + 1) * kSub + sub;
}

double Hist::representative(std::size_t idx) {
  if (idx < kSub) return static_cast<double>(idx);
  const int e = static_cast<int>(idx / kSub) + kSubBits - 1;
  const std::uint64_t width = 1ull << (e - kSubBits);
  const std::uint64_t lower = (kSub + idx % kSub) << (e - kSubBits);
  return static_cast<double>(lower) + static_cast<double>(width - 1) / 2.0;
}

void Hist::add(std::uint64_t ns) {
  ++buckets_[index(ns)];
  ++n_;
  min_ = std::min(min_, ns);
  max_ = std::max(max_, ns);
}

void Hist::merge(const Hist& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double Hist::quantile(double q) const {
  if (n_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank)
      return std::clamp(representative(i), static_cast<double>(min_),
                        static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

bool hist_selftest(std::uint64_t seed, std::string* why) {
  Rng r(seed ^ 0x4157);
  std::vector<std::uint64_t> raw(100'000);
  Hist h;
  for (std::uint64_t& v : raw) {
    // Log-uniform over 1 ns .. 10 ms: every bucket regime, exact and linear.
    v = static_cast<std::uint64_t>(std::exp(r.uniform01() * std::log(1e7)));
    h.add(v);
  }
  std::sort(raw.begin(), raw.end());
  for (double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(raw.size())));
    const double want = static_cast<double>(raw[rank - 1]);
    const double got = h.quantile(q);
    if (std::fabs(got - want) > 0.01 * want) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "histogram self-test: q%.3f gave %.1f ns, sorted samples "
                    "%.1f ns",
                    q, got, want);
      *why = buf;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sliced
// ---------------------------------------------------------------------------

double Sliced::latency(double q) const {
  std::vector<double> per_slice;
  for (const Hist& h : hist_)
    if (h.count() >= 100) per_slice.push_back(h.quantile(q));
  return median(std::move(per_slice));
}

double Sliced::rate() const {
  std::vector<double> per_slice;
  for (int k = 0; k < kSlices; ++k)
    if (busy_[k] > 0)
      per_slice.push_back(static_cast<double>(units_[k]) * 1e9 / static_cast<double>(busy_[k]));
  return median(std::move(per_slice));
}

// ---------------------------------------------------------------------------
// OnceWindow
// ---------------------------------------------------------------------------

bool OnceWindow::mark(std::uint64_t id) {
  if (id < base_ || id >= base_ + kWindow || test(id)) return false;
  bits_[(id % kWindow) / 64] |= 1ull << (id % 64);
  while (test(base_)) {
    bits_[(base_ % kWindow) / 64] &= ~(1ull << (base_ % 64));
    ++base_;
  }
  return true;
}

void OnceWindow::reset() {
  std::fill(bits_.begin(), bits_.end(), 0);
  base_ = 0;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer() : hist_(std::size_t{kPhases} * kKinds), recs_(kCapacity) {}

void Tracer::begin(Kind k, std::uint64_t op) {
  if (depth_ == kDepth) std::abort();  // spans nest a handful deep at most
  Frame& f = stack_[depth_];
  f.kind = k;
  f.op = op;
  f.id = next_id_++;
  f.parent = depth_ > 0 ? stack_[depth_ - 1].id : 0;
  f.sampled = depth_ > 0 ? stack_[depth_ - 1].sampled
                         : roots_++ % kSampleEvery == 0;
  f.child_ns = 0;
  f.children = 0;
  ++depth_;
  f.start = now_ns();  // last, so the bookkeeping above is not inside
}

void Tracer::end(std::int64_t result) {
  const std::uint64_t t = now_ns();
  const Frame& f = stack_[--depth_];
  const std::uint64_t dur = t - f.start;
  Agg& a = agg_[phase_][f.kind][result > 0 ? 1 : 0];
  ++a.count;
  a.dur_ns += dur;
  a.self_ns += dur - std::min(dur, f.child_ns);
  a.children += f.children;
  if (f.kind == kSend || f.kind == kCall || f.kind == kPut || f.kind == kFence)
    hist_[std::size_t{phase_} * kKinds + f.kind].add(dur);
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
    ++stack_[depth_ - 1].children;
  }
  if (f.sampled && n_recs_ < recs_.size())
    recs_[n_recs_++] = {f.start, t, f.op, f.id, f.parent, f.kind, phase_,
                        static_cast<std::int32_t>(result)};
}

bool Tracer::write_tsv(const std::string& path) const {
  static const char* const kKindName[kKinds] = {
      "fm.send",     "fm.extract",   "fm.handler", "serve.call", "serve.client_poll",
      "serve.server_poll", "serve.method", "rma.put", "rma.epoch_close"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tphase\tstart_ns\tend_ns\top\tresult\n");
  for (std::size_t i = 0; i < n_recs_; ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f, "%u\t%u\t%s\t%s\t%llu\t%llu\t%llu\t%d\n", r.id, r.parent,
                 kKindName[r.kind], kPhaseName[r.phase],
                 static_cast<unsigned long long>(r.start),
                 static_cast<unsigned long long>(r.end),
                 static_cast<unsigned long long>(r.op), r.result);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Placement, plan, results
// ---------------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

void pin_or_die(int cpu) {
  if (pin_to(cpu)) return;
  std::fprintf(stderr, "fmbench: cannot pin a rank to cpu %d\n", cpu);
  std::_Exit(3);
}

Plan Plan::of(const Options& o) {
  Plan p;
  p.passes = o.trace ? 2 : 1;
  p.slice_ns = static_cast<std::uint64_t>(o.seconds * 1e9 / (int{kPhases} * Sliced::kSlices) /
                                          p.passes);
  p.warm_ns = p.slice_ns / 10;
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void add_trace_overheads(Result& r) {
  // name, metric, true when higher is better (overhead = slowdown either way)
  const struct {
    const char* name;
    const char* metric;
    bool higher;
  } kOver[] = {
      {"trace.lat_p50_overhead_pct", "lat_p50_us", false},
      {"trace.ops_overhead_pct", "ops_per_s", true},
      {"trace.mb_overhead_pct", "mb_per_s", true},
      {"trace.loaded_p90_overhead_pct", "loaded_p90_us", false},
  };
  for (const auto& o : kOver) {
    const auto u = r.metrics.find(std::string("u.") + o.metric);
    const auto t = r.metrics.find(std::string("t.") + o.metric);
    if (u == r.metrics.end() || t == r.metrics.end() || u->second <= 0 ||
        t->second <= 0)
      continue;
    const double ratio = o.higher ? u->second / t->second : t->second / u->second;
    r.metrics[o.name] = (ratio - 1.0) * 100.0;
  }
}

}  // namespace fmb
