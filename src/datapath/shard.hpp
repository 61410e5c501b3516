// One shard of the multi-core datapath (see sharded_datapath.hpp).
//
// Ownership contract (docs/PERF.md, "Threading model"): exactly one
// worker thread — the shard's owner — touches a shard's flows. The owner
// calls create_flow()/flow()/on_ack()/on_send()/poll(); the control
// plane (one other thread) only pushes decoded agent commands into the
// shard's SPSC CommandQueue and reads its epoch counters. There is no
// mutex anywhere on the ACK path: commands cross into the shard only
// inside poll(), the quiescent point between ACK batches — the RCU-style
// epoch publication the install path uses instead of locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datapath/datapath.hpp"
#include "ipc/message.hpp"
#include "lang/compiler.hpp"
#include "util/time.hpp"

namespace ccp::datapath {

/// Which shard owns a flow id. The id is mixed (splitmix64 finalizer)
/// before reduction so sequential, strided, or otherwise crafted id sets
/// still spread across shards — and the mix differs from the FlatMap's
/// Fibonacci slot hash, so shard routing and in-table probe collisions
/// stay decorrelated.
inline uint32_t shard_of(ipc::FlowId id, uint32_t n_shards) {
  uint64_t h = static_cast<uint64_t>(id) + 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  return static_cast<uint32_t>(h % n_shards);
}

/// One agent command, decoded and (for Install) compiled by the control
/// plane, addressed to a single flow on a single shard. The compiled
/// program is shared and immutable — every shard installing the same
/// text holds the same CompiledProgram; per-flow VM state stays in each
/// flow's FoldMachine.
struct ShardCommand {
  /// Resync is shard-wide (flow_id unused): the shard replays a
  /// FlowSummary for every flow it owns on its own lane. Because the
  /// queue is FIFO, every command published before the Resync applies
  /// first — the replayed summaries always reflect the newest installed
  /// state, and a restarted agent cannot observe a pre-command snapshot.
  enum class Kind : uint8_t { Install, UpdateFields, DirectControl, Resync };

  Kind kind = Kind::DirectControl;
  ipc::FlowId flow_id = 0;

  // Install
  std::shared_ptr<const lang::CompiledProgram> program;
  bool vector_mode = false;
  // Install (positional, pre-bound by the control plane) / UpdateFields
  std::vector<double> var_values;

  // DirectControl
  std::optional<double> cwnd_bytes;
  std::optional<double> rate_bps;

  // Resync
  uint64_t resync_token = 0;

  // Control-loop span carried from the originating command message; the
  // control plane stamps enqueue_ns when it pushes the command, and the
  // shard closes the span at its quiescent-point apply.
  ipc::SpanStamp span;
  uint64_t enqueue_ns = 0;
};

/// Bounded SPSC command queue with epoch publication. The control plane
/// (single producer) publishes commands with a releasing tail store; the
/// shard owner (single consumer) picks them up at quiescent points with
/// one acquiring tail load. Epochs are the monotonic publish/apply
/// counters: the shard has observed every command up to applied_epoch(),
/// and the queue is quiescent when the two are equal.
class CommandQueue {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit CommandQueue(size_t capacity = 256);

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Producer side. Returns false (caller counts the drop) when the
  /// consumer has fallen `capacity` commands behind.
  bool push(ShardCommand cmd);

  /// Consumer side: applies `fn` to every pending command, releasing
  /// each slot (and the shared_ptr/vector payloads it held) in place.
  template <typename Fn>
  size_t drain(Fn&& fn) {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t start = head;
    while (head != tail) {
      ShardCommand& slot = slots_[head & mask_];
      fn(slot);
      slot = ShardCommand{};  // free payload refs on the consumer side
      ++head;
    }
    if (head != start) head_.store(head, std::memory_order_release);
    return static_cast<size_t>(head - start);
  }

  /// One acquiring load + one relaxed load; the consumer's cheap "any
  /// commands published since my epoch?" check at a quiescent point.
  bool has_pending() const {
    return tail_.load(std::memory_order_acquire) !=
           head_.load(std::memory_order_relaxed);
  }

  uint64_t publish_epoch() const { return tail_.load(std::memory_order_acquire); }
  uint64_t applied_epoch() const { return head_.load(std::memory_order_acquire); }
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<ShardCommand> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};  // next publish (producer)
  alignas(64) std::atomic<uint64_t> head_{0};  // next apply (consumer)
};

/// A per-core slice of the datapath: its own flat flow table, fold/VM
/// execution, report batcher, IPC lane, and telemetry counter set. Thin
/// wrapper over CcpDatapath — everything PR-1/PR-2 proved about the
/// single-core hot path (zero-alloc, lock-free) holds per shard by
/// construction, because a shard *is* that datapath plus a command
/// queue.
class Shard {
 public:
  /// `lane_tx` carries this shard's outgoing frames (reports/urgents) —
  /// typically one lane of ipc::make_*_lanes(); see ipc/lanes.hpp.
  Shard(uint32_t index, const DatapathConfig& config, CcpDatapath::FrameTx lane_tx,
        size_t command_queue_capacity = 256);

  // --- owner-thread API ---

  /// Registers a flow under a caller-chosen id (which must route to this
  /// shard; ShardedDatapath::alloc_flow_id picks one) and announces it
  /// to the agent on this shard's lane.
  CcpFlow& create_flow(ipc::FlowId id, const FlowConfig& cfg,
                       const std::string& alg_hint, TimePoint now);
  void close_flow(ipc::FlowId id, TimePoint now);
  /// Per-packet demux into this shard's flow table.
  CcpFlow* flow(ipc::FlowId id) { return dp_.flow(id); }

  /// Burst intake for ACKs this shard owns (all flow ids must route
  /// here). Owner-thread only; see CcpDatapath::on_ack_batch.
  void on_ack_batch(std::span<const FlowAck> burst) { dp_.on_ack_batch(burst); }

  /// The quiescent point between ACK batches: applies every command the
  /// control plane has published since the last poll (epoch pickup),
  /// then ticks flows and flushes aged report batches. Call every few
  /// hundred ACKs and whenever the shard is otherwise idle.
  void poll(TimePoint now);
  void flush() { dp_.flush(); }

  const DatapathStats& stats() const { return dp_.stats(); }
  size_t num_flows() const { return dp_.num_flows(); }
  uint64_t commands_applied() const { return commands_.applied_epoch(); }

  // --- control-plane API (single producer; any thread may read index) ---

  CommandQueue& commands() { return commands_; }
  uint32_t index() const { return index_; }

 private:
  void apply(ShardCommand& cmd, TimePoint now);

  uint32_t index_;
  CcpDatapath dp_;
  CommandQueue commands_;
};

}  // namespace ccp::datapath
