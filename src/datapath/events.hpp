// Events the host stack (our simulator's TCP sender, or any other
// datapath integration) feeds into a CCP flow.
#pragma once

#include <cstdint>

#include "ipc/message.hpp"
#include "util/time.hpp"

namespace ccp::datapath {

/// One incoming acknowledgment, after the stack has processed it.
struct AckEvent {
  TimePoint now;
  uint64_t bytes_acked = 0;     // newly cumulatively acked
  /// Bytes newly known delivered to the receiver, counting SACKed data
  /// when it is SACKed (not when the cumulative ACK later covers it).
  /// This is what delivery-rate estimation must use: a recovery
  /// cum-ACK "delivers" a burst of long-since-received bytes. Zero means
  /// "same as bytes_acked" (convenience for hand-built events in tests).
  uint64_t bytes_delivered = 0;
  uint32_t packets_acked = 0;
  Duration rtt_sample = Duration::zero();  // zero if no valid sample (e.g. rexmit)
  bool ecn = false;             // ACK echoed an ECN mark
  uint32_t newly_lost_packets = 0;  // marked lost by dupack logic on this ACK
  uint64_t bytes_in_flight = 0;     // after this ACK
  uint32_t packets_in_flight = 0;
  uint64_t bytes_pending = 0;       // app data queued but unsent
};

/// Loss declared via fast retransmit (triple duplicate ACK).
struct LossEvent {
  TimePoint now;
  uint32_t lost_packets = 1;
  uint64_t bytes_in_flight = 0;
};

/// Retransmission timeout fired.
struct TimeoutEvent {
  TimePoint now;
};

/// Outgoing data notification (feeds the sending-rate estimator).
struct SendEvent {
  TimePoint now;
  uint64_t bytes = 0;
};

/// One ACK of a burst, addressed by flow (CcpDatapath::on_ack_batch).
/// `sent_bytes` carries the bytes the stack sent for this flow since its
/// previous event (0 = none) so a burst intake replaces the usual
/// on_send/on_ack call pair.
struct FlowAck {
  ipc::FlowId flow_id = 0;
  uint64_t sent_bytes = 0;
  AckEvent ev;
};

}  // namespace ccp::datapath
