#include "channel.hpp"

#include <algorithm>

#include "audit.hpp"

namespace loopbench {

using trace::Kind;
using trace::Scope;

namespace {

constexpr size_t kSampleCap = size_t{1} << 21;

bool timed_phase() {
  return trace::g_phase.load(std::memory_order_relaxed) == trace::kTimed;
}

/// Queue waits are per-layer figures: collected only in a traced run's
/// traced half, so untraced runs do not pay for them.
bool traced_phase() { return trace::on() && timed_phase(); }

/// The agent end: its drains are spans of their own, so their self time
/// excludes the frame handler.
class AgentEnd final : public ipc::FilterTransport {
 public:
  AgentEnd(std::unique_ptr<ipc::Transport> inner, Ledger& led)
      : FilterTransport(std::move(inner)), led_(led) {}

  size_t drain_frames(const ipc::FrameSink& sink) override {
    Scope s(Kind::IpcAgentDrain);
    const size_t n = inner_->drain_frames(sink);
    led_.agent_drained += n;
    return n;
  }

 private:
  Ledger& led_;
};

}  // namespace

SampleBuf::SampleBuf(size_t capacity) : buf_(capacity, 0) {}

void SampleBuf::compact() {
  for (size_t i = 0; i < n_ / 2; ++i) buf_[i] = buf_[2 * i + 1];
  n_ /= 2;
  stride_ *= 2;
}

double SampleBuf::quantile(double q) const {
  if (n_ == 0) return 0.0;
  std::vector<uint32_t> v(buf_.begin(), buf_.begin() + static_cast<long>(n_));
  size_t rank = static_cast<size_t>(q * static_cast<double>(n_));
  if (rank >= n_) rank = n_ - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]);
}

Channel::Channel(ipc::TransportPair pair)
    : dp_end_(std::move(pair.a)),
      agent_end_(std::make_unique<AgentEnd>(std::move(pair.b), led_)),
      loop_latency_(kSampleCap),
      queue_wait_(kSampleCap),
      cmd_queue_wait_(kSampleCap) {
  dp_sink_ = [this](std::span<const uint8_t> f) { dp_rx(f); };
  agent_sink_ = [this](std::span<const uint8_t> f) { agent_rx(f); };
  open_flows_.reserve(1024);
}

Channel::~Channel() = default;

void Channel::dp_tx(std::span<const uint8_t> frame) {
  {
    Scope s(Kind::Bench);
    if (dp_audit_ != nullptr) dp_audit_->on_dp_frame(frame);
    for_each_msg(frame, [&](ipc::MsgType type, ipc::FlowId,
                            std::span<const uint8_t> msg) {
      ++led_.dp_msgs;
      if (type == ipc::MsgType::Measurement) {
        ++led_.reports;
        // u32 len | u8 type | u32 flow | u64 seq | u32 num_acks_folded
        if (msg.size() >= 21 && rd_u32(&msg[17]) == 0) ++led_.empty_reports;
      } else if (type == ipc::MsgType::Urgent) {
        ++led_.urgents;
      }
    });
    to_agent_.stage(trace::clock_ns());
  }
  bool ok;
  {
    Scope s(Kind::IpcDpSend);
    ok = dp_end_->send_frame(frame);
  }
  if (!ok) {
    ++led_.dp_send_failed;
    return;
  }
  to_agent_.publish();
  ++led_.dp_frames;
  led_.dp_bytes += frame.size();
}

void Channel::agent_rx(std::span<const uint8_t> frame) {
  {
    Scope s(Kind::Bench);
    const uint64_t sent = to_agent_.pop();
    if (traced_phase()) queue_wait_.add(trace::clock_ns() - sent);
    open_send_ns_ = sent;
    open_flows_.clear();
    for_each_msg(frame, [&](ipc::MsgType type, ipc::FlowId flow,
                            std::span<const uint8_t>) {
      ++led_.agent_msgs;
      if (type == ipc::MsgType::Measurement || type == ipc::MsgType::Urgent) {
        open_flows_.push_back(flow);
      }
    });
    if (agent_audit_ != nullptr) agent_audit_->on_dp_frame(frame);
  }
  {
    Scope s(Kind::AgentHandle);
    agent_->handle_frame(frame);
  }
  if (agent_audit_ != nullptr) {
    Scope s(Kind::Bench);
    agent_audit_->end_frame();
  }
  open_flows_.clear();
  ++led_.agent_frames;
}

void Channel::agent_tx(std::span<const uint8_t> frame) {
  CmdTag tag;
  {
    Scope s(Kind::Bench);
    ipc::MsgType type{};
    ipc::FlowId flow = 0;
    // The agent sends every command in a frame of its own.
    for_each_msg(frame, [&](ipc::MsgType t, ipc::FlowId f,
                            std::span<const uint8_t>) {
      type = t;
      flow = f;
    });
    for (ipc::FlowId& open : open_flows_) {
      if (open != flow) continue;
      tag.reply_to_ns = open_send_ns_;
      open = 0;  // answered: later commands for it are not first replies
    }
    if (type == ipc::MsgType::Install) ++led_.installs_sent;
    if (agent_audit_ != nullptr) agent_audit_->on_agent_frame(frame);
    tag.sent_ns = trace::clock_ns();
    to_dp_.stage(tag);
  }
  if (drop_next_command_) {
    drop_next_command_ = false;
    ++led_.cmd_frames;
    return;
  }
  bool ok;
  {
    Scope s(Kind::IpcAgentSend);
    ok = agent_end_->send_frame(frame);
  }
  if (!ok) {
    ++led_.cmd_send_failed;
    return;
  }
  to_dp_.publish();
  led_.cmd_bytes += frame.size();
  ++led_.cmd_frames;
}

size_t Channel::agent_pump() { return agent_end_->drain_frames(agent_sink_); }

size_t Channel::dp_pump(TimePoint now) {
  dp_now_ = now;
  size_t n;
  {
    Scope s(Kind::IpcDpDrain);
    n = dp_end_->drain_frames(dp_sink_);
  }
  led_.dp_drained += n;
  return n;
}

void Channel::dp_rx(std::span<const uint8_t> frame) {
  CmdTag tag;
  ipc::MsgType type{};
  ipc::FlowId flow = 0;
  bool stale;
  {
    Scope s(Kind::Bench);
    tag = to_dp_.pop();
    if (traced_phase()) cmd_queue_wait_.add(trace::clock_ns() - tag.sent_ns);
    for_each_msg(frame, [&](ipc::MsgType t, ipc::FlowId f,
                            std::span<const uint8_t>) {
      type = t;
      flow = f;
    });
    stale = dp_->flow(flow) == nullptr;
  }
  {
    Scope s(type == ipc::MsgType::Install ? Kind::DpApplyInstall
                                          : Kind::DpApplyUpdate,
            flow);
    dp_->handle_frame(frame, dp_now_);
  }
  Scope s(Kind::Bench);
  const uint64_t done = trace::clock_ns();
  ++led_.cmd_handled;
  if (stale) {
    ++led_.cmd_stale;
    return;
  }
  ++led_.cmd_applied;
  if (tag.reply_to_ns != 0 && timed_phase()) {
    loop_latency_.add(done - tag.reply_to_ns);
  }
  if (dp_audit_ != nullptr) dp_audit_->on_command_applied(type, flow, frame);
}

bool Channel::quiet() const {
  return led_.agent_frames == led_.dp_frames && led_.cmd_frames == led_.cmd_handled;
}

}  // namespace loopbench
