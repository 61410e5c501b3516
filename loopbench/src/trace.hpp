// Layer spans recorded from outside the program.
//
// Every call the benchmark makes into a layer's public functions goes
// through a Scope. With tracing off (every run that reports end-to-end
// metrics) a Scope is one relaxed load and a branch. With tracing on it
// stamps the clock on entry and exit, folds the span into per-phase,
// per-kind aggregates (count, time, self time = time minus the children
// it covers), keeps the first spans of the timed phase in memory for the
// Chrome trace file, and names the open layer so the replaced global
// operator new can attribute each heap allocation to it.
//
// Per-ACK calls are sampled (Scope with timed=false still names the layer
// and marks its children as nested, but reads no clock); their time is
// extrapolated from the sampled spans to every ACK.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace loopbench::trace {

inline uint64_t clock_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Kind : uint8_t {
  None = 0,
  // CcpDatapath / CcpFlow
  DpFlow,          // CcpDatapath::flow (demux)
  DpOnSend,        // CcpFlow::on_send
  DpOnAck,         // CcpFlow::on_ack
  DpOnLoss,        // CcpFlow::on_loss
  DpBurst,         // CcpDatapath::on_ack_batch
  DpTick,          // CcpDatapath::tick
  DpFlush,         // CcpDatapath::flush
  DpCreate,        // CcpDatapath::create_flow
  DpClose,         // CcpDatapath::close_flow
  DpApplyInstall,  // CcpDatapath::handle_frame on an Install
  DpApplyUpdate,   // CcpDatapath::handle_frame on UpdateFields/DirectControl
  // ipc::Transport
  IpcDpSend,       // send_frame, datapath end
  IpcDpDrain,      // drain_frames, datapath end (self time excludes handler)
  IpcAgentSend,    // send_frame, agent end
  IpcAgentDrain,   // drain_frames, agent end
  // CcpAgent
  AgentHandle,     // CcpAgent::handle_frame
  // The benchmark's own bookkeeping inside layer callbacks (frame peeks,
  // loop-latency tags); timed so it is not booked to the layer around it.
  Bench,
  kCount
};
inline constexpr size_t kKinds = static_cast<size_t>(Kind::kCount);

const char* kind_name(Kind k);
/// Kinds whose work belongs to the datapath side of the channel.
bool datapath_side(Kind k);
/// Kinds whose work belongs to the agent side of the channel.
bool agent_side(Kind k);

enum Phase : uint8_t { kSetup = 0, kTimed = 1, kOther = 2, kPhases = 3 };

struct KindAgg {
  uint64_t spans = 0;    // calls that were timed
  uint64_t total_ns = 0; // timed duration, stamp cost subtracted
  uint64_t self_ns = 0;  // total minus the children it covers
  uint64_t root_ns = 0;  // total of spans with no enclosing span
};

extern std::atomic<bool> g_on;
extern std::atomic<uint8_t> g_phase;
extern uint64_t g_stamp_ns;

inline bool on() { return g_on.load(std::memory_order_relaxed); }
void set_on(bool enabled);
void set_phase(Phase p);

/// Median cost of one clock read (back-to-back stamps); subtracted once
/// from every span. Call before any span is recorded.
void calibrate();

/// True for one ACK in every kAckSampleStride while tracing is on. The
/// stride is prime so it does not alias with flow round-robins, burst
/// sizes or pump cadences.
inline constexpr uint32_t kAckSampleStride = 61;
inline thread_local uint32_t t_ack_tick = 0;
inline bool sample_ack() {
  if (!on()) [[likely]] return false;
  if (++t_ack_tick < kAckSampleStride) return false;
  t_ack_tick = 0;
  return true;
}
/// The per-ACK kinds whose spans are sampled.
inline bool sampled_kind(Kind k) {
  return k == Kind::DpFlow || k == Kind::DpOnSend || k == Kind::DpOnAck;
}

/// The innermost open scope's kind on this thread (read by operator new),
/// and how many untimed scopes are open (spans inside one are not roots).
/// Constant-initialised, so operator new can read them at any time.
inline thread_local Kind t_kind = Kind::None;
inline thread_local uint32_t t_untimed_depth = 0;

class Scope {
 public:
  explicit Scope(Kind k, uint32_t flow = 0, bool timed = true) {
    if (!on()) [[likely]] return;
    prev_ = t_kind;
    t_kind = k;
    if (timed) {
      begin_timed(k, flow);
    } else {
      mode_ = kUntimed;
      ++t_untimed_depth;
    }
  }
  ~Scope() {
    if (mode_ == kInactive) [[likely]] return;
    if (mode_ == kTimed) {
      end_timed();
    } else {
      --t_untimed_depth;
    }
    t_kind = prev_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  enum Mode : uint8_t { kInactive, kUntimed, kTimed };
  void begin_timed(Kind k, uint32_t flow);
  void end_timed();
  Mode mode_ = kInactive;
  Kind prev_ = Kind::None;
};

/// Aggregates of kind `k` in phase `p`.
KindAgg total(Phase p, Kind k);
/// Heap allocations made while a span of kind `k` was innermost.
uint64_t allocs(Phase p, Kind k);

/// Writes the recorded timed-phase spans as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path);
size_t spans_recorded();

}  // namespace loopbench::trace
