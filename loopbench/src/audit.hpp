// Output checks against computations made apart from the program.
//
// DpAudit watches the datapath's side. For probe flows it replays, per
// ACK fed, what the installed Reno window program must fold (min RTT and
// a 1/8 EWMA of the fed RTT samples) and checks every report of theirs
// against it, plus acked == 1500 * num_acks_folded. It checks every
// vector-mode report's sample count against num_acks_folded and the cap.
//
// AgentAudit watches the agent's side. It replays a Reno model from the
// decoded reports and urgents each reno flow's agent receives and checks
// that every command the agent sends for the flow (Install, UpdateFields,
// DirectControl) carries the model's window, in order, with none missing.
//
// Both are on only in a run's audit phase, after the timed phase: they
// decode every frame, which the timed phase must not pay for.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "datapath/datapath.hpp"
#include "ccp.hpp"
#include "ipc/message.hpp"

namespace loopbench {

/// Positions of the window program's registers in a report.
struct FieldLayout {
  int acked = -1;
  int minrtt = -1;
  int rtt = -1;
};

/// What the program must have folded after a probe's n-th ACK.
struct ProbeState {
  double minrtt_us = 2147483647.0;  // the program's `init 0x7fffffff`
  double rtt_ewma_us = 0.0;         // `init 0`
};

/// Empty when the report matches; otherwise what is wrong.
std::string check_probe_report(const ipc::MeasurementMsg& m,
                               const FieldLayout& layout,
                               const ProbeState& expect);
std::string check_vector_report(const ipc::MeasurementMsg& m,
                                size_t max_samples);

class DpAudit {
 public:
  DpAudit(datapath::CcpDatapath& dp, size_t max_vector_samples)
      : dp_(dp), max_vector_samples_(max_vector_samples) {}

  /// Marks a lossless reno flow as a probe; must precede its Install.
  void add_probe(ipc::FlowId id) { probes_[id]; }
  bool is_probe(ipc::FlowId id) const { return probes_.count(id) != 0; }
  /// The generator fed one ACK with this RTT sample to probe `id`.
  void on_ack_fed(ipc::FlowId id, Duration rtt);

  void on_dp_frame(std::span<const uint8_t> frame);
  void on_command_applied(ipc::MsgType type, ipc::FlowId flow,
                          std::span<const uint8_t> frame);

  std::vector<std::string> errors;
  uint64_t probe_reports_checked = 0;
  uint64_t vector_reports_checked = 0;

  // The last checked reports, kept for the checker self-test.
  struct ProbeCase {
    ipc::MeasurementMsg msg;
    FieldLayout layout;
    ProbeState expect;
  };
  std::optional<ProbeCase> last_probe;
  std::optional<ipc::MeasurementMsg> last_vector;

 private:
  struct Probe {
    bool installed = false;
    uint64_t first_seq = 0;  // first report_seq of the installed program
    uint64_t folded = 0;     // ACKs the checked reports account for
    FieldLayout layout;
    std::vector<ProbeState> history;  // [n] = state after n ACKs
  };
  void error(std::string e);

  datapath::CcpDatapath& dp_;
  size_t max_vector_samples_;
  std::unordered_map<ipc::FlowId, Probe> probes_;
};

class AgentAudit {
 public:
  void on_dp_frame(std::span<const uint8_t> frame);
  void on_agent_frame(std::span<const uint8_t> frame);
  /// After the agent handled a frame: every expected command was sent.
  void end_frame();

  std::vector<std::string> errors;
  uint64_t commands_checked = 0;

 private:
  struct Expect {
    ipc::MsgType type;
    double cwnd;
  };
  struct Reno {
    double mss = 1500;
    double cwnd = 0;
    double ssthresh = 0;
    uint64_t reports_seen = 0;
    uint64_t next_cut_allowed = 0;
    std::vector<std::string> fields;  // installed program's registers
    int cwnd_var = -1;                // position of $cwnd in UpdateFields
    std::deque<Expect> expect;
  };
  void error(std::string e);
  void cut(Reno& r, bool timeout);

  std::unordered_map<ipc::FlowId, Reno> flows_;
  std::vector<ipc::FlowId> closing_;  // closed in the frame being handled
  size_t pending_ = 0;  // expected commands not yet sent, all flows
};

}  // namespace loopbench
