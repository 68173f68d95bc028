#include "stream/stream.h"

#include <chrono>
#include <cstring>

namespace fm::stream {
namespace {
constexpr std::size_t kMsgHeader = 9;  // u8 type + u32 conn + u32 arg

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

Connection::Connection(StreamMgr& mgr, std::uint32_t id, NodeId peer,
                       std::uint32_t peer_id, std::size_t window)
    : mgr_(mgr), id_(id), peer_(peer), peer_id_(peer_id), tx_credit_(window) {}

bool Connection::write(const void* buf, std::size_t len) {
  const auto* bytes = static_cast<const std::uint8_t*>(buf);
  const std::size_t chunk = mgr_.chunk_bytes();
  std::size_t off = 0;
  while (off < len) {
    if (fin_sent_) return false;
    std::size_t n = std::min(chunk, len - off);
    // Respect the peer's window: block (servicing the endpoint) until the
    // receiver grants more credit. A dead-peer verdict breaks the wait —
    // credit from a dead receiver is never coming.
    (void)mgr_.ep_.extract_until(
        peer_, [&] { return tx_credit_ >= n || peer_fin_; });
    if (tx_credit_ < n) return false;  // peer went away
    tx_credit_ -= n;
    mgr_.send_msg(peer_, StreamMgr::Type::kData, peer_id_, tx_seq_++,
                  bytes + off, n);
    off += n;
  }
  return true;
}

bool Connection::peer_dead() const { return mgr_.ep_.peer_dead(peer_); }

std::size_t Connection::read(void* buf, std::size_t maxlen) {
  if (maxlen == 0) return 0;
  (void)mgr_.ep_.extract_until(
      peer_, [&] { return !rx_buffer_.empty() || peer_fin_; });
  if (rx_buffer_.empty()) return 0;  // EOF (orderly or broken)
  std::size_t n = std::min(maxlen, rx_buffer_.size());
  auto* out = static_cast<std::uint8_t*>(buf);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rx_buffer_.front();
    rx_buffer_.pop_front();
  }
  // Replenish the sender's window once a quarter of it has been consumed
  // (batched credit updates, like delayed TCP window updates).
  credit_owed_ += n;
  if (credit_owed_ >= mgr_.window_ / 4) {
    mgr_.send_msg(peer_, StreamMgr::Type::kWindow, peer_id_,
                  static_cast<std::uint32_t>(credit_owed_), nullptr, 0);
    credit_owed_ = 0;
  }
  return n;
}

Status Connection::read_deadline(void* buf, std::size_t maxlen,
                                 std::size_t* n, std::uint64_t deadline_ns) {
  *n = 0;
  if (maxlen == 0) return Status::kOk;
  const std::uint64_t limit = now_ns() + deadline_ns;
  const Status s = mgr_.ep_.extract_until(peer_, [&] {
    return !rx_buffer_.empty() || peer_fin_ || now_ns() >= limit;
  });
  if (rx_buffer_.empty()) {
    if (peer_fin_) return Status::kOk;  // EOF, *n = 0
    return ok(s) ? Status::kDeadline : s;
  }
  *n = read(buf, maxlen);  // buffered data: completes without blocking
  return Status::kOk;
}

std::size_t Connection::read_exact(void* buf, std::size_t len) {
  auto* out = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < len) {
    std::size_t n = read(out + got, len - got);
    if (n == 0) break;  // EOF
    got += n;
  }
  return got;
}

void Connection::close() {
  if (fin_sent_) return;
  fin_sent_ = true;
  mgr_.send_msg(peer_, StreamMgr::Type::kFin, peer_id_, 0, nullptr, 0);
}

// ---------------------------------------------------------------------------
// StreamMgr
// ---------------------------------------------------------------------------

StreamMgr::StreamMgr(shm::Endpoint& ep, std::size_t window)
    : ep_(ep), window_(window) {
  handler_ = ep_.register_handler(
      [this](shm::Endpoint&, NodeId src, const void* data, std::size_t len) {
        on_message(src, data, len);
      });
}

void StreamMgr::listen(std::uint16_t port) { listening_[port] = true; }

Connection& StreamMgr::alloc_connection(NodeId peer, std::uint32_t peer_id) {
  std::uint32_t id = next_conn_id_++;
  auto conn = std::unique_ptr<Connection>(
      new Connection(*this, id, peer, peer_id, window_));
  Connection& ref = *conn;
  connections_.emplace(id, std::move(conn));
  return ref;
}

Connection& StreamMgr::connect(NodeId peer, std::uint16_t port) {
  Connection& conn = alloc_connection(peer, /*peer_id=*/0);
  send_msg(peer, Type::kSyn, port, conn.id_, nullptr, 0);
  // Block until the SYN_ACK fills in the peer's connection id. A dead-peer
  // verdict turns an infinite hang into a diagnosable failure.
  (void)ep_.extract_until(peer, [&] { return conn.peer_id_ != 0; });
  FM_CHECK_MSG(conn.peer_id_ != 0, "connect(): peer declared dead");
  return conn;
}

Connection* StreamMgr::try_connect(NodeId peer, std::uint16_t port,
                                   std::uint64_t deadline_ns) {
  Connection& conn = alloc_connection(peer, /*peer_id=*/0);
  send_msg(peer, Type::kSyn, port, conn.id_, nullptr, 0);
  const std::uint64_t limit = now_ns() + deadline_ns;
  (void)ep_.extract_until(
      peer, [&] { return conn.peer_id_ != 0 || now_ns() >= limit; });
  if (conn.peer_id_ == 0) {
    connections_.erase(conn.id_);
    return nullptr;
  }
  return &conn;
}

Connection& StreamMgr::accept(std::uint16_t port) {
  FM_CHECK_MSG(listening_.count(port) && listening_[port],
               "accept() on a non-listening port");
  ep_.extract_until([&] { return !pending_accepts_[port].empty(); });
  auto& q = pending_accepts_[port];
  std::uint32_t id = q.front();
  q.pop_front();
  return *connections_.at(id);
}

void StreamMgr::poll() { ep_.extract(); }

void StreamMgr::send_msg(NodeId dest, Type type, std::uint32_t conn,
                         std::uint32_t arg, const void* payload,
                         std::size_t len) {
  std::vector<std::uint8_t> wire(kMsgHeader + len);
  wire[0] = static_cast<std::uint8_t>(type);
  std::memcpy(wire.data() + 1, &conn, 4);
  std::memcpy(wire.data() + 5, &arg, 4);
  if (len) std::memcpy(wire.data() + kMsgHeader, payload, len);
  // May be called from application context (write/connect/close) or from
  // handler context (the SYN -> SYN_ACK turnaround).
  Status s = ep_.send_or_post(dest, handler_, wire.data(), wire.size());
  FM_CHECK_MSG(ok(s), "stream message send failed");
}

void StreamMgr::on_message(NodeId src, const void* data, std::size_t len) {
  FM_CHECK_MSG(len >= kMsgHeader, "runt stream message");
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  Type type = static_cast<Type>(bytes[0]);
  std::uint32_t conn_field, arg;
  std::memcpy(&conn_field, bytes + 1, 4);
  std::memcpy(&arg, bytes + 5, 4);
  const std::uint8_t* payload = bytes + kMsgHeader;
  const std::size_t payload_len = len - kMsgHeader;

  switch (type) {
    case Type::kSyn: {
      // conn_field = listener port, arg = initiator's connection id.
      auto port = static_cast<std::uint16_t>(conn_field);
      FM_CHECK_MSG(listening_.count(port) && listening_[port],
                   "SYN to a non-listening port");
      Connection& conn = alloc_connection(src, arg);
      pending_accepts_[port].push_back(conn.id_);
      send_msg(src, Type::kSynAck, arg, conn.id_, nullptr, 0);
      break;
    }
    case Type::kSynAck: {
      // conn_field = our connection id, arg = peer's connection id. An
      // unknown id is a handshake try_connect() abandoned: drop it.
      auto it = connections_.find(conn_field);
      if (it == connections_.end()) break;
      it->second->peer_id_ = arg;
      break;
    }
    case Type::kData: {
      auto it = connections_.find(conn_field);
      if (it == connections_.end()) break;  // abandoned handshake straggler
      Connection& c = *it->second;
      if (arg == c.rx_seq_) {
        c.rx_buffer_.insert(c.rx_buffer_.end(), payload,
                            payload + payload_len);
        ++c.rx_seq_;
        // Drain any contiguous chunks parked by FM-level reordering.
        for (;;) {
          auto pit = c.rx_reorder_.find(c.rx_seq_);
          if (pit == c.rx_reorder_.end()) break;
          c.rx_buffer_.insert(c.rx_buffer_.end(), pit->second.begin(),
                              pit->second.end());
          c.rx_reorder_.erase(pit);
          ++c.rx_seq_;
        }
      } else {
        FM_CHECK_MSG(arg > c.rx_seq_, "duplicate stream chunk");
        c.rx_reorder_.emplace(
            arg, std::vector<std::uint8_t>(payload, payload + payload_len));
      }
      break;
    }
    case Type::kWindow: {
      auto it = connections_.find(conn_field);
      if (it == connections_.end()) break;  // abandoned handshake straggler
      it->second->tx_credit_ += arg;
      break;
    }
    case Type::kFin: {
      auto it = connections_.find(conn_field);
      if (it == connections_.end()) break;  // abandoned handshake straggler
      it->second->peer_fin_ = true;
      break;
    }
  }
}

}  // namespace fm::stream
