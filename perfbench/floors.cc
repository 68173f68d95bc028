// Transport floors with no FM above them: the bare shared-memory reference
// every shm run measures (HostRef), and for the traced runs what one frame
// costs the shm ring alone and what one round trip costs a bare loopback
// UDP socket pair.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.h"
#include "net/socket.h"
#include "shm/spsc_ring.h"

namespace fmb {

namespace {
constexpr std::uint64_t kRefPings = 500;
constexpr std::uint64_t kRefStreamNs = 2'000'000;
}  // namespace

HostRef::HostRef() {
  for (int i = 0; i < kPlacements; ++i) rings_.push_back(std::make_unique<Ring>());
  half_rtt_ns_.reserve(Sliced::kSlices);
  stream_per_s_.reserve(Sliced::kSlices);
}

void HostRef::round(int role) {
  constexpr auto acq = std::memory_order_acquire;
  constexpr auto rel = std::memory_order_release;
  constexpr std::size_t kSlots = sizeof(Ring::slots) / sizeof(Ring::slots[0]);
  const std::uint64_t r = ++rounds_[role];
  Ring& g = *rings_[r % kPlacements];
  const std::uint64_t base = r * (kRefPings + 1);  // this round's ping values
  if (role == 1) {
    g.ready.v.store(r, rel);
    for (std::uint64_t i = 1; i <= kRefPings; ++i) {
      while (g.ping.v.load(acq) != base + i) sched_yield();
      g.pong.v.store(base + i, rel);
    }
    std::uint64_t h = g.head.v.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t t = g.tail.v.load(acq);
      if (t == h) {
        // done is stored after the last tail, so a tail read after it is final.
        if (g.done.v.load(acq) == r && g.tail.v.load(acq) == h) return;
        sched_yield();
        continue;
      }
      for (; h < t; ++h) {
        std::uint64_t seq;
        std::memcpy(&seq, g.slots[h % kSlots], sizeof seq);
        if (seq != h) ++bad_;
        g.head.v.store(h + 1, rel);
      }
    }
  }
  while (g.ready.v.load(acq) != r) sched_yield();
  std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 1; i <= kRefPings; ++i) {
    g.ping.v.store(base + i, rel);
    while (g.pong.v.load(acq) != base + i) sched_yield();
  }
  half_rtt_ns_.push_back(static_cast<double>(now_ns() - t0) / (2.0 * kRefPings));
  static const std::uint8_t kFill[sizeof g.slots[0]] = {};
  std::uint64_t t = g.tail.v.load(std::memory_order_relaxed), n = 0;
  t0 = now_ns();
  std::uint64_t t1 = t0;
  for (;; ++n) {
    if ((n & 15) == 0 && (t1 = now_ns()) - t0 >= kRefStreamNs) break;
    while (t - g.head.v.load(acq) >= kSlots) {
    }
    std::uint8_t* slot = g.slots[t % kSlots];
    std::memcpy(slot, &t, sizeof t);
    std::memcpy(slot + sizeof t, kFill, sizeof kFill - sizeof t);
    g.tail.v.store(++t, rel);
  }
  stream_per_s_.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(t1 - t0));
  g.done.v.store(r, rel);
  while (g.head.v.load(acq) != t) sched_yield();  // the ring's next round starts empty
}

void HostRef::apply(std::map<std::string, double>& m) const {
  const double rtt = median(half_rtt_ns_), rate = median(stream_per_s_);
  m["shm.bare_half_rtt_ns"] = rtt;
  m["shm.bare_stream_per_s"] = rate;
  if (rtt <= 0 || rate <= 0) return;
  const double index = std::sqrt(kNominalHalfRttNs / rtt * (rate / kNominalStreamPerS));
  std::printf("host reference: bare half round trip %.1f ns (nominal %.0f), bare stream %.4g/s "
              "(nominal %.4g): host index %.4f\n",
              rtt, kNominalHalfRttNs, rate, kNominalStreamPerS, index);
  const auto scale = [&](const char* name, double by) {
    const auto it = m.find(name);
    if (it == m.end()) return;
    std::printf("  %-14s raw %.6g -> %.6g\n", name, it->second, it->second * by);
    it->second *= by;
  };
  for (const char* k : {"lat_p50_us", "lat_p99_us", "loaded_p50_us", "loaded_p90_us"})
    scale(k, index);
  for (const char* k : {"ops_per_s", "mb_per_s"}) scale(k, 1 / index);
}

double shm_ring_floor_ns() {
  constexpr std::size_t kFrame = 128, kIters = 1'000'000;
  fm::shm::SpscRing ring(256, 256);
  ring.assert_producer();
  ring.assert_consumer();
  std::uint8_t frame[kFrame];
  std::memcpy(frame, Pool(7).at(0, kFrame), kFrame);
  std::uint64_t sink = 0;
  std::vector<double> per_frame;
  for (int batch = 0; batch < 9; ++batch) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kIters; ++i) {
      std::uint8_t* dst = ring.try_reserve(kFrame);
      std::memcpy(dst, frame, kFrame);
      ring.commit(kFrame);
      ring.try_consume_batch(1, [&](const std::uint8_t* p, std::size_t n) { sink += p[n - 1]; });
    }
    per_frame.push_back(static_cast<double>(now_ns() - t0) / kIters);
  }
  if (sink == 0) return 0;  // keeps the consume side observable
  return median(per_frame);
}

double udp_rtt_floor_us(int cpu_a, int cpu_b, std::string* err) {
  constexpr int kBatches = 9, kRounds = 2000;
  constexpr std::uint64_t kTimeoutNs = 2'000'000'000;
  fm::net::UdpSocket a, b;
  const sockaddr_in to_a = fm::net::UdpSocket::loopback_addr(a.port());
  const sockaddr_in to_b = fm::net::UdpSocket::loopback_addr(b.port());
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    *err = "fork failed";
    return 0;
  }
  if (pid == 0) {
    // Echo side: busy-polls its socket and bounces every datagram back; a
    // one-byte datagram ends it.
    if (!pin_to(cpu_b)) std::_Exit(3);
    std::uint8_t buf[64];
    std::uint16_t port = 0;
    for (;;) {
      const long n = b.recv_one(buf, sizeof buf, &port);
      if (n == 1) std::_Exit(0);
      if (n > 0)
        while (b.send_to(to_a, buf, static_cast<std::size_t>(n)) ==
               fm::net::UdpSocket::SendResult::kWouldBlock) {
        }
    }
  }
  std::vector<double> half_rtt;
  bool ok = pin_to(cpu_a);
  std::uint8_t buf[64];
  std::uint16_t port = 0;
  for (int batch = 0; ok && batch <= kBatches; ++batch) {  // batch 0 warms up
    const std::uint64_t t0 = now_ns();
    for (int r = 0; ok && r < kRounds; ++r) {
      std::uint64_t word = static_cast<std::uint64_t>(r);
      ok = a.send_to(to_b, &word, sizeof word) == fm::net::UdpSocket::SendResult::kOk;
      while (ok && a.recv_one(buf, sizeof buf, &port) != sizeof word)
        ok = now_ns() - t0 < kTimeoutNs;
    }
    if (batch > 0) half_rtt.push_back(static_cast<double>(now_ns() - t0) / kRounds / 2e3);
  }
  const std::uint8_t stop = 0;
  (void)a.send_to(to_b, &stop, 1);
  int status = 0;
  if (!ok) ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *err = "UDP floor ping-pong failed";
    return 0;
  }
  return median(half_rtt);
}

}  // namespace fmb
