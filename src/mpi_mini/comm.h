// mpi_mini — a small MPI-flavored library layered on FM.
//
// §7 of the paper: "FM is designed to support efficient implementation of a
// variety of communication libraries and run-time systems... we are building
// implementations of MPI, TCP/IP, and the Illinois Concert system's
// runtime." This module is that layering exercise: tagged point-to-point
// matching and the classic collectives (barrier, bcast, reduce, allreduce,
// gather, scatter) implemented purely with the three-call FM API.
//
// Two FM properties shape the implementation, both straight from Table 3:
//   * FM does not guarantee delivery ORDER (return-to-sender can reorder),
//     so the Comm layer adds per-peer message sequencing and a reorder
//     buffer — precisely the work the paper says belongs in higher layers.
//   * FM handlers must not block, so the handler only enqueues; matching
//     happens in recv() on the calling thread.
//
// BasicComm is templated over the endpoint type: because it uses only the
// three-call FM surface shared by every backend (send/extract/handlers),
// the identical collective algorithms run over shm threads and over the
// net backend's UDP processes — the layering claim made portable. One
// Comm per node (thread or process), wrapping that node's endpoint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "shm/cluster.h"

namespace fm::mpi {

/// Wildcard source for recv().
inline constexpr int kAnySource = -1;

namespace detail {
// Internal tag space (user tags are >= 0).
inline constexpr int kBarrierTagBase = -1000;  // - round
inline constexpr int kBcastTag = -2;
inline constexpr int kReduceTag = -3;
inline constexpr int kGatherTag = -4;
inline constexpr int kScatterTag = -5;
// Wire layout: [i32 tag][u32 seq][payload...]
inline constexpr std::size_t kMsgHeader = 8;
}  // namespace detail

/// An MPI-ish communicator bound to one FM endpoint of any backend.
template <class EndpointT>
class BasicComm {
 public:
  /// Wraps `ep`. Every rank must construct its BasicComm at the same point
  /// in its handler-registration order (SPMD), before communicating.
  explicit BasicComm(EndpointT& ep)
      : ep_(ep),
        next_send_seq_(ep.cluster_size(), 0),
        next_recv_seq_(ep.cluster_size(), 0) {
    handler_ = ep_.register_handler(
        [this](EndpointT&, NodeId src, const void* data, std::size_t len) {
          on_message(src, data, len);
        });
  }
  BasicComm(const BasicComm&) = delete;
  BasicComm& operator=(const BasicComm&) = delete;

  /// This process's rank and the communicator size.
  int rank() const { return static_cast<int>(ep_.id()); }
  int size() const { return static_cast<int>(ep_.cluster_size()); }

  // --- point to point ------------------------------------------------------

  /// Sends `len` bytes to `dest` with `tag` (tag >= 0 for user traffic).
  void send(int dest, int tag, const void* buf, std::size_t len) {
    FM_CHECK_MSG(tag >= 0, "user tags must be non-negative");
    send_internal(dest, tag, buf, len);
  }

  /// Receives a message matching (src, tag) — src may be kAnySource —
  /// blocking. Returns the actual source; payload lands in `out`.
  int recv(int src, int tag, std::vector<std::uint8_t>& out) {
    auto it = inbox_.end();
    ep_.extract_until([&] {
      it = std::find_if(inbox_.begin(), inbox_.end(), [&](const Msg& m) {
        return (src == kAnySource || m.src == src) && m.tag == tag;
      });
      return it != inbox_.end();
    });
    out = std::move(it->data);
    const int from = it->src;
    inbox_.erase(it);
    return from;
  }

  /// Non-blocking match check.
  bool iprobe(int src, int tag) {
    ep_.extract();
    for (const auto& m : inbox_)
      if ((src == kAnySource || m.src == src) && m.tag == tag) return true;
    return false;
  }

  // --- collectives ---------------------------------------------------------

  /// Dissemination barrier over all ranks.
  void barrier() {
    // ceil(log2 n) rounds; in round k talk to the neighbours 2^k away.
    // O(log n) critical path with no root hotspot.
    const int n = size();
    if (n == 1) return;
    std::vector<std::uint8_t> token;
    for (int k = 0, dist = 1; dist < n; ++k, dist <<= 1) {
      int to = (rank() + dist) % n;
      int from = (rank() - dist % n + n) % n;
      send_internal(to, detail::kBarrierTagBase - k, "", 0);
      (void)recv(from, detail::kBarrierTagBase - k, token);
    }
  }

  /// Broadcast `len` bytes from `root` (binomial tree).
  void bcast(void* buf, std::size_t len, int root) {
    // Textbook binomial broadcast on root-relative ranks: wait for the bit
    // below our lowest set bit, then fan out to increasingly distant
    // children.
    const int n = size();
    if (n == 1) return;
    const int vrank = (rank() - root + n) % n;
    int mask = 1;
    while (mask < n) {
      if (vrank & mask) {
        std::vector<std::uint8_t> data;
        (void)recv(((vrank - mask) + root) % n, detail::kBcastTag, data);
        FM_CHECK_MSG(data.size() == len, "bcast length mismatch");
        std::memcpy(buf, data.data(), len);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      int child = vrank + mask;
      if (child < n)
        send_internal((child + root) % n, detail::kBcastTag, buf, len);
      mask >>= 1;
    }
  }

  /// Element-wise reduction of `count` Ts to `root` (binomial tree).
  /// `op` combines (accumulator, incoming). Non-roots leave `out`
  /// untouched; `in` and `out` may alias at the root.
  template <typename T>
  void reduce(const T* in, T* out, std::size_t count, int root,
              const std::function<T(T, T)>& op) {
    std::vector<T> acc(in, in + count);
    reduce_bytes(
        reinterpret_cast<std::uint8_t*>(acc.data()), count * sizeof(T), root,
        [&op, count](std::uint8_t* a, const std::uint8_t* b) {
          auto* ta = reinterpret_cast<T*>(a);
          const auto* tb = reinterpret_cast<const T*>(b);
          for (std::size_t i = 0; i < count; ++i) ta[i] = op(ta[i], tb[i]);
        });
    if (rank() == root)
      for (std::size_t i = 0; i < count; ++i) out[i] = acc[i];
  }

  /// reduce + bcast: every rank gets the reduction.
  template <typename T>
  void allreduce(const T* in, T* out, std::size_t count, int root,
                 const std::function<T(T, T)>& op) {
    reduce<T>(in, out, count, root, op);
    bcast(out, count * sizeof(T), root);
  }

  /// Gathers `len` bytes from every rank into `recv` (rank-major) at root.
  void gather(const void* sendbuf, std::size_t len, void* recvbuf, int root) {
    if (rank() == root) {
      auto* out = static_cast<std::uint8_t*>(recvbuf);
      std::memcpy(out + static_cast<std::size_t>(rank()) * len, sendbuf, len);
      for (int r = 0; r < size(); ++r) {
        if (r == rank()) continue;
        std::vector<std::uint8_t> data;
        int from = recv(r, detail::kGatherTag, data);
        FM_CHECK(from == r && data.size() == len);
        std::memcpy(out + static_cast<std::size_t>(r) * len, data.data(), len);
      }
    } else {
      send_internal(root, detail::kGatherTag, sendbuf, len);
    }
  }

  /// Scatters rank-major `len`-byte blocks from root's `sendbuf`.
  void scatter(const void* sendbuf, std::size_t len, void* recvbuf, int root) {
    if (rank() == root) {
      const auto* in = static_cast<const std::uint8_t*>(sendbuf);
      for (int r = 0; r < size(); ++r) {
        if (r == rank()) continue;
        send_internal(r, detail::kScatterTag,
                      in + static_cast<std::size_t>(r) * len, len);
      }
      std::memcpy(recvbuf, in + static_cast<std::size_t>(rank()) * len, len);
    } else {
      std::vector<std::uint8_t> data;
      (void)recv(root, detail::kScatterTag, data);
      FM_CHECK_MSG(data.size() == len, "scatter length mismatch");
      std::memcpy(recvbuf, data.data(), len);
    }
  }

  /// The underlying endpoint (to drain at program end, etc.).
  EndpointT& endpoint() { return ep_; }

 private:
  struct Msg {
    int src;
    int tag;
    std::vector<std::uint8_t> data;
  };

  // Raw tagged send without user-tag validation (internal tags < 0).
  void send_internal(int dest, int tag, const void* buf, std::size_t len) {
    FM_CHECK_MSG(dest >= 0 && dest < size(), "bad destination rank");
    FM_CHECK_MSG(dest != rank(), "self-send not supported");
    std::vector<std::uint8_t> wire(detail::kMsgHeader + len);
    std::int32_t t = tag;
    std::uint32_t seq = next_send_seq_[static_cast<std::size_t>(dest)]++;
    std::memcpy(wire.data(), &t, 4);
    std::memcpy(wire.data() + 4, &seq, 4);
    if (len) std::memcpy(wire.data() + detail::kMsgHeader, buf, len);
    Status s = ep_.send(static_cast<NodeId>(dest), handler_, wire.data(),
                        wire.size());
    FM_CHECK_MSG(ok(s), "mpi_mini send failed");
  }

  // Handler target: sequencing and reorder buffering.
  void on_message(NodeId src, const void* data, std::size_t len) {
    FM_CHECK_MSG(len >= detail::kMsgHeader, "runt mpi_mini message");
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    Msg m;
    m.src = static_cast<int>(src);
    std::int32_t tag;
    std::uint32_t seq;
    std::memcpy(&tag, bytes, 4);
    std::memcpy(&seq, bytes + 4, 4);
    m.tag = tag;
    m.data.assign(bytes + detail::kMsgHeader, bytes + len);
    // Restore per-peer ordering: FM does not guarantee it (Table 3), MPI
    // semantics require it.
    if (seq != next_recv_seq_[src]) {
      FM_CHECK_MSG(seq > next_recv_seq_[src], "duplicate mpi_mini sequence");
      reorder_.emplace(std::make_pair(m.src, seq), std::move(m));
      return;
    }
    inbox_.push_back(std::move(m));
    ++next_recv_seq_[src];
    // Drain any now-contiguous parked messages.
    for (;;) {
      auto it = reorder_.find({static_cast<int>(src), next_recv_seq_[src]});
      if (it == reorder_.end()) break;
      inbox_.push_back(std::move(it->second));
      reorder_.erase(it);
      ++next_recv_seq_[src];
    }
  }

  // Generic byte-wise tree reduction into `buf` at the root.
  void reduce_bytes(
      std::uint8_t* buf, std::size_t len, int root,
      const std::function<void(std::uint8_t*, const std::uint8_t*)>& combine) {
    const int n = size();
    if (n == 1) return;
    const int vrank = (rank() - root + n) % n;
    // Binomial tree, leaves inward: at step `dist`, ranks with that bit set
    // send to (vrank - dist); others receive from (vrank + dist) if present.
    for (int dist = 1; dist < n; dist <<= 1) {
      if (vrank & dist) {
        send_internal(((vrank - dist) + root) % n, detail::kReduceTag, buf,
                      len);
        return;  // contribution handed off; done
      }
      int peer = vrank + dist;
      if (peer < n) {
        std::vector<std::uint8_t> data;
        (void)recv((peer + root) % n, detail::kReduceTag, data);
        FM_CHECK_MSG(data.size() == len, "reduce length mismatch");
        combine(buf, data.data());
      }
    }
  }

  EndpointT& ep_;
  HandlerId handler_;
  std::deque<Msg> inbox_;                     // in-order, matched by recv
  std::vector<std::uint32_t> next_send_seq_;  // per-destination
  std::vector<std::uint32_t> next_recv_seq_;  // per-source
  std::map<std::pair<int, std::uint32_t>, Msg> reorder_;  // (src, seq) -> msg
};

/// The historical alias: a communicator over the shared-memory backend.
using Comm = BasicComm<shm::Endpoint>;

// Compiled once in comm.cc; other backends instantiate from the header.
extern template class BasicComm<shm::Endpoint>;

}  // namespace fm::mpi
