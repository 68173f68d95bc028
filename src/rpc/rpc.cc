#include "rpc/rpc.h"

#include <chrono>
#include <cstring>

namespace fm::rpc {
namespace {
constexpr std::size_t kHeader = 7;  // u8 kind + u16 method + u32 call_id
constexpr std::uint8_t kRequest = 0, kReply = 1, kCast = 2;

std::vector<std::uint8_t> pack(std::uint8_t kind, std::uint16_t method,
                               std::uint32_t call_id, const void* data,
                               std::size_t len) {
  std::vector<std::uint8_t> wire(kHeader + len);
  wire[0] = kind;
  std::memcpy(wire.data() + 1, &method, 2);
  std::memcpy(wire.data() + 3, &call_id, 4);
  if (len) std::memcpy(wire.data() + kHeader, data, len);
  return wire;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

RpcEngine::RpcEngine(shm::Endpoint& ep, const RpcConfig& cfg)
    : ep_(ep), cfg_(cfg) {
  handler_ = ep_.register_handler(
      [this](shm::Endpoint&, NodeId src, const void* data, std::size_t len) {
        on_message(src, data, len);
      });
}

Future RpcEngine::call(NodeId target, std::uint16_t method, const void* args,
                       std::size_t len) {
  return call_deadline(target, method, args, len, cfg_.default_deadline_ns);
}

Future RpcEngine::call_deadline(NodeId target, std::uint16_t method,
                                const void* args, std::size_t len,
                                std::uint64_t deadline_ns) {
  FM_CHECK_MSG(method < methods_.size(), "unregistered method");
  // Bounded window: service the endpoint until a slot frees. The deadline
  // sweep releases slots of overdue calls, so progress is guaranteed
  // whenever deadlines are in use.
  ep_.extract_until([&] {
    sweep();
    return inflight_ < cfg_.max_inflight;
  });
  std::uint32_t id = next_call_++;
  PendingCall& pc = pending_[id];
  pc.target = target;
  pc.status = Status::kAgain;
  pc.deadline_abs_ns = deadline_ns == 0 ? 0 : now_ns() + deadline_ns;
  ++inflight_;
  ++stats_.calls_sent;
  auto wire = pack(kRequest, method, id, args, len);
  Status s = ep_.send(target, handler_, wire.data(), wire.size());
  if (s == Status::kPeerDead) {
    abandon(id, Status::kPeerDead);
    return Future(*this, id);
  }
  FM_CHECK_MSG(ok(s), "rpc request send failed");
  return Future(*this, id);
}

void RpcEngine::cast(NodeId target, std::uint16_t method, const void* args,
                     std::size_t len) {
  FM_CHECK_MSG(method < methods_.size(), "unregistered method");
  auto wire = pack(kCast, method, 0, args, len);
  Status s = ep_.send_or_post(target, handler_, wire.data(), wire.size());
  FM_CHECK_MSG(ok(s), "rpc cast send failed");
}

void RpcEngine::poll() {
  ep_.extract();
  sweep();
}

void RpcEngine::sweep() {
  if (inflight_ == 0) return;
  const std::uint64_t t = now_ns();
  for (auto& [id, pc] : pending_) {
    if (pc.status != Status::kAgain) continue;
    if (pc.deadline_abs_ns != 0 && t >= pc.deadline_abs_ns) {
      abandon(id, Status::kDeadline);
    } else if (ep_.peer_dead(pc.target)) {
      abandon(id, Status::kPeerDead);
    }
  }
}

void RpcEngine::abandon(std::uint32_t call_id, Status why) {
  PendingCall* pc = find(call_id);
  FM_CHECK(pc != nullptr && pc->status == Status::kAgain);
  pc->status = why;
  --inflight_;
  ++stats_.calls_abandoned;
}

RpcEngine::PendingCall* RpcEngine::find(std::uint32_t call_id) {
  auto it = pending_.find(call_id);
  return it == pending_.end() ? nullptr : &it->second;
}

void RpcEngine::on_message(NodeId src, const void* data, std::size_t len) {
  FM_CHECK_MSG(len >= kHeader, "runt rpc message");
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint8_t kind = bytes[0];
  std::uint16_t method;
  std::uint32_t call_id;
  std::memcpy(&method, bytes + 1, 2);
  std::memcpy(&call_id, bytes + 3, 4);
  const void* payload = bytes + kHeader;
  const std::size_t payload_len = len - kHeader;
  switch (kind) {
    case kRequest: {
      FM_CHECK_MSG(method < methods_.size(), "rpc to unregistered method");
      std::vector<std::uint8_t> result =
          methods_[method](src, payload, payload_len);
      auto wire = pack(kReply, method, call_id, result.data(), result.size());
      // We are in handler context: post the reply.
      Status s = ep_.send_or_post(src, handler_, wire.data(), wire.size());
      FM_CHECK_MSG(ok(s), "rpc reply send failed");
      break;
    }
    case kCast: {
      FM_CHECK_MSG(method < methods_.size(), "rpc to unregistered method");
      (void)methods_[method](src, payload, payload_len);
      break;
    }
    case kReply: {
      PendingCall* pc = find(call_id);
      if (pc == nullptr || pc->status != Status::kAgain) {
        // The slot was released (deadline, cancel, dead-peer verdict) or
        // the id was never ours: a late reply racing FM-R's retransmit
        // horizon. Tolerated, counted, dropped.
        ++stats_.orphan_replies;
        break;
      }
      pc->status = Status::kOk;
      pc->reply.assign(static_cast<const std::uint8_t*>(payload),
                       static_cast<const std::uint8_t*>(payload) +
                           payload_len);
      --inflight_;
      ++stats_.replies_delivered;
      break;
    }
    default:
      FM_UNREACHABLE("bad rpc kind");
  }
}

bool Future::ready() {
  engine_->poll();
  const RpcEngine::PendingCall* pc = engine_->find(call_id_);
  FM_CHECK_MSG(pc != nullptr, "future already consumed");
  return pc->status != Status::kAgain;
}

Status Future::status() const {
  const RpcEngine::PendingCall* pc = engine_->find(call_id_);
  FM_CHECK_MSG(pc != nullptr, "future already consumed");
  return pc->status;
}

void Future::cancel() {
  RpcEngine::PendingCall* pc = engine_->find(call_id_);
  if (pc == nullptr || pc->status != Status::kAgain) return;  // resolved
  engine_->abandon(call_id_, Status::kCancelled);
}

std::vector<std::uint8_t>& Future::wait() {
  // A wait on the (probed) target. ready() sweeps after every extract, so
  // a verdict resolves the call before extract_until could see it.
  (void)engine_->ep_.extract_until(engine_->find(call_id_)->target,
                                   [this] { return ready(); });
  RpcEngine::PendingCall* pc = engine_->find(call_id_);
  FM_CHECK_MSG(pc->status == Status::kOk,
               "rpc call failed; use wait_result() for fallible calls");
  return pc->reply;
}

Status Future::wait_result(std::vector<std::uint8_t>& out) {
  (void)engine_->ep_.extract_until(engine_->find(call_id_)->target,
                                   [this] { return ready(); });
  auto it = engine_->pending_.find(call_id_);
  const Status st = it->second.status;
  if (st == Status::kOk) out = std::move(it->second.reply);
  engine_->pending_.erase(it);
  return st;
}

}  // namespace fm::rpc
