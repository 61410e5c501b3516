// The datapath <-> agent channel as the benchmark drives it.
//
// The program's own objects do the work: CcpDatapath hands frames to its
// FrameTx (dp_tx here), which sends them on an ipc::Transport; the agent
// end is drained inline into agent_rx, which feeds CcpAgent::handle_frame;
// the agent's FrameTx (agent_tx) sends commands back; dp_pump drains them
// into CcpDatapath::handle_frame.
//
// Around those calls the channel keeps the run's ledger: frames, messages
// and bytes per direction, failed sends, commands applied, and the
// loop-latency pairs. A tag queue per direction carries one tag per frame
// in send order (the transports are FIFO), so the receiving end knows
// when its frame was sent without touching the program's bytes:
//   report frame handed to the transport  -> tag t_send
//   agent sends the first command for a flow that had a Measurement or
//   Urgent in that frame                  -> command tagged with t_send
//   the datapath returns from applying it -> sample = now - t_send
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "datapath/datapath.hpp"
#include "ipc/transport.hpp"
#include "ccp.hpp"
#include "trace.hpp"

namespace loopbench {

class DpAudit;
class AgentAudit;

/// FIFO of per-frame tags, one per frame in flight, in a ring allocated
/// up front (no allocation while frames move). A tag is staged before its
/// frame is sent and published only if the send succeeded.
template <typename T>
class TagQueue {
 public:
  TagQueue() : ring_(kCapacity) {}
  void stage(const T& v) {
    if (tail_ - head_ == kCapacity) throw std::runtime_error("too many frames in flight");
    ring_[tail_ % kCapacity] = v;
  }
  void publish() { ++tail_; }
  T pop() {
    if (head_ == tail_) throw std::runtime_error("frame arrived without its send tag");
    return ring_[head_++ % kCapacity];
  }

 private:
  static constexpr uint64_t kCapacity = uint64_t{1} << 16;
  std::vector<T> ring_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
};

/// Fixed-footprint sample store: the buffer is touched once up front (so
/// the run's resident set does not depend on how many samples arrive),
/// and when it fills, every other sample is dropped and the keep-stride
/// doubles — a deterministic, evenly spread subsample of the whole run.
class SampleBuf {
 public:
  explicit SampleBuf(size_t capacity);
  void add(uint64_t v) {
    if (++tick_ < stride_) return;
    tick_ = 0;
    if (n_ == buf_.size()) compact();
    buf_[n_++] = v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
  }
  void clear() { n_ = 0; tick_ = 0; stride_ = 1; }
  size_t size() const { return n_; }
  /// Nearest-rank quantile, q in [0,1]; 0 when empty.
  double quantile(double q) const;

 private:
  void compact();
  std::vector<uint32_t> buf_;
  size_t n_ = 0;
  uint64_t tick_ = 0;
  uint64_t stride_ = 1;
};

/// Running totals of both directions and of the loop.
struct Ledger {
  // datapath -> agent
  uint64_t dp_frames = 0;
  uint64_t dp_send_failed = 0;
  uint64_t dp_msgs = 0;
  uint64_t dp_bytes = 0;
  uint64_t reports = 0;
  uint64_t empty_reports = 0;
  uint64_t urgents = 0;
  // handled by the agent
  uint64_t agent_frames = 0;
  uint64_t agent_msgs = 0;
  uint64_t agent_drained = 0;  // frames delivered by drain_frames
  // agent -> datapath
  uint64_t cmd_frames = 0;
  uint64_t cmd_send_failed = 0;
  uint64_t cmd_bytes = 0;
  uint64_t installs_sent = 0;
  // applied by the datapath
  uint64_t cmd_handled = 0;
  uint64_t cmd_applied = 0;
  uint64_t cmd_stale = 0;  // flow closed before its command arrived
  uint64_t dp_drained = 0;
};

class Channel {
 public:
  /// `pair.a` is the datapath end, `pair.b` the agent end.
  explicit Channel(ipc::TransportPair pair);
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void bind(datapath::CcpDatapath* dp, agent::CcpAgent* agent) {
    dp_ = dp;
    agent_ = agent;
  }

  // --- datapath side ---
  /// CcpDatapath's FrameTx.
  void dp_tx(std::span<const uint8_t> frame);
  /// Drains and applies every command frame queued for the datapath.
  size_t dp_pump(TimePoint now);

  // --- agent side ---
  /// CcpAgent's FrameTx.
  void agent_tx(std::span<const uint8_t> frame);
  /// Drains every queued datapath frame into CcpAgent::handle_frame.
  size_t agent_pump();

  /// Audits see every frame while set (nullptr = off).
  void set_dp_audit(DpAudit* a) { dp_audit_ = a; }
  void set_agent_audit(AgentAudit* a) { agent_audit_ = a; }

  /// Planted fault for the checker self-test: the next command frame the
  /// agent sends is dropped on the floor (counted as sent).
  void drop_next_command() { drop_next_command_ = true; }

  const Ledger& ledger() const { return led_; }
  SampleBuf& loop_latency() { return loop_latency_; }
  SampleBuf& queue_wait() { return queue_wait_; }
  SampleBuf& cmd_queue_wait() { return cmd_queue_wait_; }
  /// True once every frame sent either way has been handled.
  bool quiet() const;

 private:
  struct CmdTag {
    uint64_t reply_to_ns = 0;  // t_send of the report frame it answers, or 0
    uint64_t sent_ns = 0;
  };
  void dp_rx(std::span<const uint8_t> frame);
  void agent_rx(std::span<const uint8_t> frame);

  std::unique_ptr<ipc::Transport> dp_end_;
  std::unique_ptr<ipc::Transport> agent_end_;
  datapath::CcpDatapath* dp_ = nullptr;
  agent::CcpAgent* agent_ = nullptr;
  TagQueue<uint64_t> to_agent_;
  TagQueue<CmdTag> to_dp_;
  ipc::FrameSink dp_sink_;
  ipc::FrameSink agent_sink_;
  TimePoint dp_now_{};

  // Flows with a Measurement/Urgent in the frame the agent is handling,
  // and that frame's send time.
  std::vector<ipc::FlowId> open_flows_;
  uint64_t open_send_ns_ = 0;

  Ledger led_;
  SampleBuf loop_latency_;
  SampleBuf queue_wait_;
  SampleBuf cmd_queue_wait_;
  DpAudit* dp_audit_ = nullptr;
  AgentAudit* agent_audit_ = nullptr;
  bool drop_next_command_ = false;
};

// --- frame peeks: walk a frame's message headers without decoding ---

inline uint32_t rd_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Calls fn(type, flow_id, msg_bytes) for each message of a well-formed
/// frame; stops at the first header that does not fit.
template <typename Fn>
void for_each_msg(std::span<const uint8_t> frame, Fn&& fn) {
  if (frame.size() < 2) return;
  const size_t n = static_cast<size_t>(frame[0]) | static_cast<size_t>(frame[1]) << 8;
  size_t pos = 2;
  for (size_t i = 0; i < n && pos + 9 <= frame.size(); ++i) {
    const uint32_t len = rd_u32(&frame[pos]);
    if (len < 9 || pos + len > frame.size()) return;
    fn(static_cast<ipc::MsgType>(frame[pos + 4]), rd_u32(&frame[pos + 5]),
       frame.subspan(pos, len));
    pos += len;
  }
}

}  // namespace loopbench
