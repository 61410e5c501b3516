#include "audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ipc/wire.hpp"
#include "lang/error.hpp"
#include "lang/parser.hpp"

namespace loopbench {

namespace {

constexpr size_t kMaxErrors = 20;  // per audit; the first ones say enough
constexpr size_t kVectorFieldsPerPkt = datapath::CcpFlow::kVectorFieldsPerPkt;

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

std::vector<ipc::Message> decode(std::span<const uint8_t> frame,
                                 std::string* err) {
  try {
    return ipc::decode_frame(frame);
  } catch (const ipc::WireError& e) {
    *err = e.what();
    return {};
  }
}

int index_of(const std::vector<std::string>& names, std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> fold_names(const lang::Program& prog) {
  std::vector<std::string> names;
  for (const auto& reg : prog.folds) names.push_back(reg.name);
  return names;
}

}  // namespace

std::string check_probe_report(const ipc::MeasurementMsg& m,
                               const FieldLayout& layout,
                               const ProbeState& expect) {
  const int top = std::max({layout.acked, layout.minrtt, layout.rtt});
  if (layout.acked < 0 || layout.minrtt < 0 || layout.rtt < 0) {
    return "probe program lacks acked/minrtt/rtt registers";
  }
  if (m.is_vector || static_cast<int>(m.fields.size()) <= top) {
    return "probe report has " + std::to_string(m.fields.size()) + " fields";
  }
  const double acked = m.fields[static_cast<size_t>(layout.acked)];
  const double want_acked = 1500.0 * m.num_acks_folded;
  if (acked != want_acked) {
    return fmt("flow report acked %.0f, want 1500 x num_acks_folded = %.0f",
               acked, want_acked);
  }
  const double minrtt = m.fields[static_cast<size_t>(layout.minrtt)];
  if (minrtt != expect.minrtt_us) {
    return fmt("report minrtt %.3f us, min of fed samples %.3f us", minrtt,
               expect.minrtt_us);
  }
  const double rtt = m.fields[static_cast<size_t>(layout.rtt)];
  if (std::abs(rtt - expect.rtt_ewma_us) >
      1e-9 * std::max(1.0, std::abs(expect.rtt_ewma_us))) {
    return fmt("report rtt %.6f us, 1/8 EWMA of fed samples %.6f us", rtt,
               expect.rtt_ewma_us);
  }
  return {};
}

std::string check_vector_report(const ipc::MeasurementMsg& m,
                                size_t max_samples) {
  if (!m.is_vector) return {};
  const size_t want =
      std::min<size_t>(m.num_acks_folded, max_samples) * kVectorFieldsPerPkt;
  if (m.fields.size() != want) {
    return fmt("vector report carries %.0f values, want %.0f",
               static_cast<double>(m.fields.size()), static_cast<double>(want));
  }
  return {};
}

// ---------------------------------------------------------------- DpAudit

void DpAudit::error(std::string e) {
  if (errors.size() < kMaxErrors) errors.push_back("datapath audit: " + std::move(e));
}

void DpAudit::on_ack_fed(ipc::FlowId id, Duration rtt) {
  auto it = probes_.find(id);
  if (it == probes_.end() || !it->second.installed) return;
  std::vector<ProbeState>& h = it->second.history;
  const ProbeState last = h.back();
  const double x = static_cast<double>(rtt.micros());
  ProbeState next;
  next.minrtt_us = x > 0 ? std::min(last.minrtt_us, x) : last.minrtt_us;
  next.rtt_ewma_us = (1.0 - 0.125) * last.rtt_ewma_us + 0.125 * x;
  h.push_back(next);
}

void DpAudit::on_dp_frame(std::span<const uint8_t> frame) {
  std::string err;
  const auto msgs = decode(frame, &err);
  if (!err.empty()) error("undecodable datapath frame: " + err);
  for (const ipc::Message& msg : msgs) {
    const auto* m = std::get_if<ipc::MeasurementMsg>(&msg);
    if (m == nullptr) continue;
    if (m->is_vector) {
      ++vector_reports_checked;
      last_vector = *m;
      if (auto e = check_vector_report(*m, max_vector_samples_); !e.empty()) {
        error("flow " + std::to_string(m->flow_id) + ": " + e);
      }
    }
    auto it = probes_.find(m->flow_id);
    if (it == probes_.end() || !it->second.installed ||
        m->report_seq < it->second.first_seq) {
      continue;
    }
    Probe& p = it->second;
    p.folded += m->num_acks_folded;
    if (p.folded >= p.history.size()) {
      error("flow " + std::to_string(m->flow_id) +
            ": report folds more ACKs than were fed");
      continue;
    }
    ++probe_reports_checked;
    last_probe = ProbeCase{*m, p.layout, p.history[p.folded]};
    if (auto e = check_probe_report(*m, p.layout, p.history[p.folded]);
        !e.empty()) {
      error("flow " + std::to_string(m->flow_id) + ": " + e);
    }
  }
}

void DpAudit::on_command_applied(ipc::MsgType type, ipc::FlowId flow,
                                 std::span<const uint8_t> frame) {
  if (type != ipc::MsgType::Install) return;
  auto it = probes_.find(flow);
  if (it == probes_.end()) return;
  std::string err;
  const auto msgs = decode(frame, &err);
  const auto* ins = msgs.empty() ? nullptr : std::get_if<ipc::InstallMsg>(&msgs[0]);
  if (ins == nullptr) {
    error("undecodable install: " + err);
    return;
  }
  Probe& p = it->second;
  try {
    const auto names = fold_names(lang::parse_program(ins->program_text));
    p.layout = FieldLayout{index_of(names, "acked"), index_of(names, "minrtt"),
                           index_of(names, "rtt")};
  } catch (const lang::ProgramError& e) {
    error(std::string("probe install does not parse: ") + e.what());
    return;
  }
  const datapath::CcpFlow* fl = dp_.flow(flow);
  if (fl == nullptr) return;
  p.installed = true;
  p.first_seq = fl->reports_sent();
  p.folded = 0;
  p.history.assign(1, ProbeState{});
}

// ------------------------------------------------------------- AgentAudit

void AgentAudit::error(std::string e) {
  if (errors.size() < kMaxErrors) errors.push_back("agent audit: " + std::move(e));
}

void AgentAudit::cut(Reno& r, bool timeout) {
  // Reno::on_urgent: one reduction per congestion episode (two reports
  // apart) for loss/ECN; an RTO always collapses to one segment.
  if (!timeout && r.reports_seen < r.next_cut_allowed) return;
  r.next_cut_allowed = r.reports_seen + 2;
  r.ssthresh = std::max(r.cwnd / 2.0, 2.0 * r.mss);
  r.cwnd = timeout ? r.mss : r.ssthresh + 3.0 * r.mss;
  r.expect.push_back({ipc::MsgType::DirectControl, r.cwnd});
  r.expect.push_back({ipc::MsgType::UpdateFields, r.cwnd});
  pending_ += 2;
}

void AgentAudit::on_dp_frame(std::span<const uint8_t> frame) {
  std::string err;
  const auto msgs = decode(frame, &err);
  if (!err.empty()) error("undecodable datapath frame: " + err);
  for (const ipc::Message& msg : msgs) {
    if (const auto* c = std::get_if<ipc::CreateMsg>(&msg)) {
      if (c->alg_hint != "reno") continue;
      Reno r;
      r.mss = c->mss;
      r.cwnd = c->init_cwnd_bytes > 0 ? c->init_cwnd_bytes : 10.0 * c->mss;
      r.ssthresh = std::numeric_limits<double>::max();
      r.expect.push_back({ipc::MsgType::Install, r.cwnd});
      ++pending_;
      flows_[c->flow_id] = std::move(r);
    } else if (const auto* m = std::get_if<ipc::MeasurementMsg>(&msg)) {
      auto it = flows_.find(m->flow_id);
      if (it == flows_.end()) continue;
      Reno& r = it->second;
      ++r.reports_seen;
      // Measurement::get: by the agent's installed register names.
      const int i = index_of(r.fields, "acked");
      const double acked =
          i >= 0 && static_cast<size_t>(i) < m->fields.size() ? m->fields[i] : 0.0;
      if (acked <= 0) continue;
      if (r.cwnd < r.ssthresh) {
        r.cwnd += std::min(acked, r.cwnd);
        if (r.cwnd > r.ssthresh) r.cwnd = r.ssthresh;
      } else {
        r.cwnd += acked * r.mss / r.cwnd;
      }
      r.expect.push_back({ipc::MsgType::UpdateFields, r.cwnd});
      ++pending_;
    } else if (const auto* u = std::get_if<ipc::UrgentMsg>(&msg)) {
      auto it = flows_.find(u->flow_id);
      if (it == flows_.end()) continue;
      if (u->kind == ipc::UrgentKind::Loss || u->kind == ipc::UrgentKind::Ecn) {
        cut(it->second, false);
      } else if (u->kind == ipc::UrgentKind::Timeout) {
        cut(it->second, true);
      }
    } else if (const auto* cl = std::get_if<ipc::FlowCloseMsg>(&msg)) {
      closing_.push_back(cl->flow_id);
    }
  }
}

void AgentAudit::on_agent_frame(std::span<const uint8_t> frame) {
  std::string err;
  const auto msgs = decode(frame, &err);
  if (msgs.size() != 1) {
    error("command frame with " + std::to_string(msgs.size()) + " messages " + err);
    return;
  }
  const ipc::Message& msg = msgs[0];
  const ipc::FlowId flow = std::visit(
      [](const auto& m) -> ipc::FlowId {
        if constexpr (requires { m.flow_id; }) {
          return m.flow_id;
        } else {
          return 0;
        }
      },
      msg);
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  Reno& r = it->second;
  const std::string who = "reno flow " + std::to_string(flow);
  if (r.expect.empty()) {
    error(who + ": command the model does not expect");
    return;
  }
  const Expect want = r.expect.front();
  r.expect.pop_front();
  --pending_;
  ++commands_checked;
  if (ipc::message_type(msg) != want.type) {
    error(who + ": command type " +
          std::to_string(static_cast<int>(ipc::message_type(msg))) + ", model " +
          std::to_string(static_cast<int>(want.type)));
    return;
  }
  double got = -1;
  if (const auto* ins = std::get_if<ipc::InstallMsg>(&msg)) {
    const int v = index_of(ins->var_names, "cwnd");
    if (v >= 0 && static_cast<size_t>(v) < ins->var_values.size()) {
      got = ins->var_values[v];
    }
    try {
      const lang::Program prog = lang::parse_program(ins->program_text);
      r.fields = fold_names(prog);
      r.cwnd_var = index_of(prog.vars, "cwnd");
    } catch (const lang::ProgramError& e) {
      error(who + ": installed program does not parse: " + e.what());
    }
  } else if (const auto* up = std::get_if<ipc::UpdateFieldsMsg>(&msg)) {
    if (r.cwnd_var >= 0 && static_cast<size_t>(r.cwnd_var) < up->var_values.size()) {
      got = up->var_values[r.cwnd_var];
    }
  } else if (const auto* dc = std::get_if<ipc::DirectControlMsg>(&msg)) {
    got = dc->cwnd_bytes.value_or(-1);
  }
  if (got != want.cwnd) {
    error(who + fmt(": command cwnd %.6f, Reno model %.6f", got, want.cwnd));
  }
}

void AgentAudit::end_frame() {
  if (pending_ != 0) {
    for (auto& [id, r] : flows_) {
      if (r.expect.empty()) continue;
      error("reno flow " + std::to_string(id) + ": " +
            std::to_string(r.expect.size()) + " command(s) the model expects were not sent");
      pending_ -= r.expect.size();
      r.expect.clear();
    }
  }
  for (const ipc::FlowId id : closing_) flows_.erase(id);
  closing_.clear();
}

}  // namespace loopbench
