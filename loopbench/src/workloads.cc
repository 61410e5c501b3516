#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "algorithms/registry.hpp"
#include "audit.hpp"
#include "channel.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace loopbench {

namespace {

namespace algorithms = ccp::algorithms;
namespace util = ccp::util;
using ccp::Rng;
using trace::clock_ns;
using trace::Kind;
using trace::Scope;

constexpr uint64_t kMss = 1500;
constexpr Duration kAckGap = Duration::from_micros(1);  // virtual-clock workloads
constexpr Duration kVirtualRtt = Duration::from_millis(10);
// RTT jitter table length: prime, so a flow fed round-robin still cycles
// through every entry and all flows see the same jitter distribution.
constexpr size_t kJitterLen = 4099;

/// One datapath, one agent, and the channel between them, wired the way a
/// deployment wires them: CcpDatapath's FrameTx and CcpAgent's FrameTx go
/// through the Channel onto an ipc::Transport pair. The caller pumps both
/// ends from its own loop.
class Rig {
 public:
  Rig(const datapath::DatapathConfig& dcfg, ipc::TransportPair pair)
      : ch(std::move(pair)),
        dp(dcfg, [this](std::span<const uint8_t> f) { ch.dp_tx(f); }),
        agent(agent::AgentConfig{},
              [this](std::span<const uint8_t> f) { ch.agent_tx(f); }) {
    algorithms::register_builtin_algorithms(agent);
    ch.bind(&dp, &agent);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  ipc::FlowId create(const datapath::FlowConfig& cfg, const char* alg,
                     TimePoint now) {
    datapath::CcpFlow* fl;
    {
      Scope s(Kind::DpCreate);
      fl = &dp.create_flow(cfg, alg, now);
    }
    ++creates;
    const ipc::FlowId id = fl->id();
    if (dp.flow(id) != fl) ++create_failed;
    return id;
  }

  void close(ipc::FlowId id, TimePoint now) {
    ++closes;
    const datapath::CcpFlow* fl = dp.flow(id);
    if (fl == nullptr) {
      ++close_failed;
      return;
    }
    folded_at_close += fl->acks_folded_total();
    if (!cwnd_in_bounds(*fl)) ++cwnd_out_of_bounds;
    {
      Scope s(Kind::DpClose, id);
      dp.close_flow(id, now);
    }
    if (dp.flow(id) != nullptr) ++close_failed;
    if (closed_sample.size() < 64) closed_sample.push_back(id);
  }

  void tick(TimePoint now) {
    Scope s(Kind::DpTick);
    dp.tick(now);
  }

  void pump(TimePoint now) {
    ch.agent_pump();
    ch.dp_pump(now);
  }

  /// Flushes and pumps until no frame moves. True if every frame sent
  /// either way was handled (false: a frame was lost).
  bool quiesce(TimePoint now) {
    for (;;) {
      {
        Scope s(Kind::DpFlush);
        dp.flush();
      }
      if (ch.agent_pump() + ch.dp_pump(now) == 0) return ch.quiet();
    }
  }

  static bool cwnd_in_bounds(const datapath::CcpFlow& fl) {
    return fl.cwnd_bytes() >= fl.config().min_cwnd_bytes &&
           fl.cwnd_bytes() <= fl.config().max_cwnd_bytes;
  }

  Channel ch;
  datapath::CcpDatapath dp;
  agent::CcpAgent agent;

  // Ledger of what the benchmark fed, for the conservation checks.
  uint64_t folds_fed = 0;        // ACKs and loss events handed to flows
  uint64_t acks_failed = 0;      // ACKs whose flow did not resolve
  uint64_t folded_at_close = 0;  // acks_folded_total read just before close
  uint64_t creates = 0, create_failed = 0;
  uint64_t closes = 0, close_failed = 0;
  uint64_t cwnd_out_of_bounds = 0;
  std::vector<ipc::FlowId> closed_sample;
};

/// The end-of-run checks on the loop's ledger and the program's own
/// counters.
std::vector<std::string> loop_checks(Rig& r, bool quiesced) {
  std::vector<std::string> e;
  const Ledger& led = r.ch.ledger();
  auto num = [](uint64_t v) { return std::to_string(v); };
  if (!quiesced) e.push_back("the channel did not drain");
  if (led.dp_frames != led.agent_frames) {
    e.push_back("frames to agent: " + num(led.dp_frames) + " sent, " +
                num(led.agent_frames) + " handled");
  }
  if (led.cmd_frames != led.cmd_applied + led.cmd_stale) {
    e.push_back("command frames: " + num(led.cmd_frames) + " sent, " +
                num(led.cmd_applied) + " applied, " + num(led.cmd_stale) +
                " for closed flows");
  }
  const auto& ds = r.dp.stats();
  if (ds.frames_received != led.cmd_handled) {
    e.push_back("datapath counted " + num(ds.frames_received) +
                " frames received, the channel delivered " + num(led.cmd_handled));
  }
  if (ds.decode_errors != 0) e.push_back("datapath decode errors: " + num(ds.decode_errors));
  if (ds.install_errors != 0) e.push_back("datapath install errors: " + num(ds.install_errors));
  const auto& as = r.agent.stats();
  if (as.decode_errors != 0) e.push_back("agent decode errors: " + num(as.decode_errors));
  if (as.unknown_flow_msgs != 0) e.push_back("agent unknown-flow messages: " + num(as.unknown_flow_msgs));
  if (as.unknown_algorithm != 0) e.push_back("agent unknown algorithms: " + num(as.unknown_algorithm));
  if (r.agent.num_flows() != r.dp.num_flows()) {
    e.push_back("agent holds " + num(r.agent.num_flows()) + " flows, datapath " +
                num(r.dp.num_flows()));
  }
  uint64_t live_folded = 0;
  uint64_t out_of_bounds = r.cwnd_out_of_bounds;
  r.dp.flow_table().for_each([&](datapath::CcpFlow& fl, const std::string&) {
    live_folded += fl.acks_folded_total();
    if (!Rig::cwnd_in_bounds(fl)) ++out_of_bounds;
  });
  if (live_folded + r.folded_at_close != r.folds_fed) {
    e.push_back("ACK conservation: flows folded " + num(live_folded) + " live + " +
                num(r.folded_at_close) + " closed, benchmark fed " + num(r.folds_fed));
  }
  if (out_of_bounds != 0) e.push_back(num(out_of_bounds) + " flows with cwnd out of bounds");
  for (const ipc::FlowId id : r.closed_sample) {
    if (r.dp.flow(id) != nullptr || r.agent.algorithm(id) != nullptr) {
      e.push_back("closed flow " + num(id) + " still resolves");
      break;
    }
  }
  if (r.create_failed != 0) e.push_back(num(r.create_failed) + " creates did not resolve");
  if (r.close_failed != 0) e.push_back(num(r.close_failed) + " closes failed");
  return e;
}

std::vector<OpCount> op_counts(Rig& r) {
  const Ledger& led = r.ch.ledger();
  const uint64_t cmd_sent = led.cmd_frames;
  const uint64_t cmd_failed = led.cmd_send_failed;
  return {
      {"ack_events", r.folds_fed + r.acks_failed, r.acks_failed},
      {"frames_to_agent", led.dp_frames + led.dp_send_failed, led.dp_send_failed},
      {"frames_to_datapath", cmd_sent + cmd_failed, cmd_failed},
      {"commands_applied", cmd_sent,
       cmd_sent - std::min(cmd_sent, led.cmd_applied + led.cmd_stale)},
      {"creates", r.creates, r.create_failed},
      {"closes", r.closes, r.close_failed},
  };
}

// ------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-ups per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Fresh rig, flows created through the agent, programs installed, warm.
  /// The previous rig, if any, is torn down first (outside the timing).
  virtual void build() = 0;
  /// The timed loop, in whole rounds, for about `seconds`; returns ACKs.
  virtual uint64_t run_for(double seconds) = 0;
  /// Re-creates probe flows under the audits and drives them.
  virtual void audit(DpAudit& dpa) = 0;
  virtual TimePoint now() const = 0;
  virtual double lateness_p99_us() const { return 0; }
  virtual bool expects_vector_reports() const { return false; }

  void teardown() { rig_.reset(); }
  Rig& rig() { return *rig_; }
  size_t setup_flows = 0;

 protected:
  std::unique_ptr<Rig> rig_;
};

/// 64 warm reno flows, scalar per-ACK API, virtual clock, inline agent.
class Warm64 final : public Workload {
 public:
  explicit Warm64(uint64_t seed) {
    Rng rng(seed);
    for (auto& j : jitter_) j = static_cast<int64_t>(rng.next_below(1024));
    ev_.bytes_acked = kMss;
    ev_.packets_acked = 1;
    ev_.bytes_in_flight = 64 * kMss;
    ev_.packets_in_flight = 64;
  }
  int setup_reps() const override { return 5; }
  TimePoint now() const override { return now_; }

  void build() override {
    trace::set_phase(trace::kSetup);
    datapath::DatapathConfig dcfg;
    dcfg.flush_interval = Duration::from_millis(1);
    rig_ = std::make_unique<Rig>(dcfg, ipc::make_inproc_pair());
    now_ = TimePoint::epoch() + Duration::from_millis(1);
    seq_ = 0;
    ids_.clear();
    for (size_t i = 0; i < kFlows; ++i) ids_.push_back(rig_->create(fcfg_, "reno", now_));
    rig_->pump(now_);
    setup_flows = kFlows;
    trace::set_phase(trace::kOther);
    for (int r = 0; r < kWarmRounds; ++r) round<false>(nullptr);
  }

  uint64_t run_for(double seconds) override {
    const uint64_t end = clock_ns() + static_cast<uint64_t>(seconds * 1e9);
    uint64_t rounds = 0;
    do {
      for (int k = 0; k < 16; ++k) round<false>(nullptr);
      rounds += 16;
    } while (clock_ns() < end);
    return rounds * kRound;
  }

  void audit(DpAudit& dpa) override {
    for (ipc::FlowId& id : ids_) {
      rig_->close(id, now_);
      id = rig_->create(fcfg_, "reno", now_);
      dpa.add_probe(id);
    }
    for (int r = 0; r < kAuditRounds; ++r) round<true>(&dpa);
  }

 private:
  static constexpr size_t kFlows = 64;
  static constexpr uint32_t kRound = 256;     // ACKs between ticks
  static constexpr uint32_t kPumpEvery = 32;  // ACKs between channel polls
  static constexpr int kWarmRounds = 1600;
  static constexpr int kAuditRounds = 2000;

  template <bool kAudit>
  void round(DpAudit* dpa) {
    Rig& r = *rig_;
    for (uint32_t j = 0; j < kRound; ++j) {
      const uint64_t i = seq_++;
      now_ += kAckGap;
      const ipc::FlowId id = ids_[i % kFlows];
      const bool s = trace::sample_ack();
      datapath::CcpFlow* fl;
      {
        Scope sc(Kind::DpFlow, id, s);
        fl = r.dp.flow(id);
      }
      if (fl == nullptr) [[unlikely]] {
        ++r.acks_failed;
        continue;
      }
      ev_.now = now_;
      // Flow k's base RTT is 10 ms + k * 50 us, so the flows' report
      // timers drift apart instead of all firing in the same frame.
      ev_.rtt_sample = kVirtualRtt + Duration::from_micros(
                                         static_cast<int64_t>(i % kFlows) * 50 +
                                         jitter_[i % kJitterLen]);
      if constexpr (kAudit) {
        // Before on_ack: a report it emits may be flushed inside the call.
        if (dpa->is_probe(id)) dpa->on_ack_fed(id, ev_.rtt_sample);
      }
      {
        Scope sc(Kind::DpOnSend, id, s);
        fl->on_send(datapath::SendEvent{now_, kMss});
      }
      {
        Scope sc(Kind::DpOnAck, id, s);
        fl->on_ack(ev_);
      }
      ++r.folds_fed;
      if ((j & (kPumpEvery - 1)) == kPumpEvery - 1) r.pump(now_);
    }
    r.tick(now_);
    r.pump(now_);
  }

  datapath::FlowConfig fcfg_;
  datapath::AckEvent ev_;
  int64_t jitter_[kJitterLen];
  std::vector<ipc::FlowId> ids_;
  TimePoint now_{};
  uint64_t seq_ = 0;
};

/// 262,144 resident reno flows created through the agent, Zipf(1.5) ACK
/// bursts of 32 through on_ack_batch, one close->create per 1,024 ACKs,
/// bounded ticks every 1 ms of virtual time, inline agent.
class ZipfChurn final : public Workload {
 public:
  explicit ZipfChurn(uint64_t seed) : ranks_(kRanks), victims_(kVictims) {
    Rng rng(seed);
    for (auto& j : jitter_) j = static_cast<int64_t>(rng.next_below(1024));
    util::ZipfSampler zipf(kFlows, 1.5);
    for (uint32_t& r : ranks_) r = static_cast<uint32_t>(zipf(rng) - 1);
    for (uint32_t& v : victims_) v = static_cast<uint32_t>(rng.next_below(kFlows));
    fcfg_.rate_ring_entries = 16;  // ~2.8 KB per flow instead of ~50 KB
    burst_.resize(kBurst);
    for (datapath::FlowAck& fa : burst_) {
      fa.sent_bytes = kMss;
      fa.ev.bytes_acked = kMss;
      fa.ev.packets_acked = 1;
      fa.ev.bytes_in_flight = 64 * kMss;
      fa.ev.packets_in_flight = 64;
    }
  }
  int setup_reps() const override { return 3; }
  TimePoint now() const override { return now_; }

  void build() override {
    trace::set_phase(trace::kSetup);
    datapath::DatapathConfig dcfg;
    dcfg.flush_interval = Duration::from_millis(1);
    dcfg.tick_flow_budget = 64;
    rig_ = std::make_unique<Rig>(dcfg, ipc::make_inproc_pair());
    now_ = TimePoint::epoch() + Duration::from_millis(1);
    seq_ = 0;
    churn_seq_ = 0;
    resident_.clear();
    resident_.reserve(kFlows);
    for (size_t i = 0; i < kFlows; ++i) {
      resident_.push_back(rig_->create(fcfg_, "reno", now_));
      if ((i & 1023) == 1023) rig_->pump(now_);
    }
    rig_->pump(now_);
    setup_flows = kFlows;
    trace::set_phase(trace::kOther);
    next_tick_ = now_ + kTick;
    for (int r = 0; r < kWarmRounds; ++r) round<false>(nullptr);
  }

  uint64_t run_for(double seconds) override {
    const uint64_t end = clock_ns() + static_cast<uint64_t>(seconds * 1e9);
    uint64_t rounds = 0;
    do {
      round<false>(nullptr);
      ++rounds;
    } while (clock_ns() < end);
    return rounds * kRoundAcks;
  }

  void audit(DpAudit& dpa) override {
    // The hottest ranks become probes (fresh flows, so the audit sees
    // their whole installed life).
    for (size_t slot = 0; slot < 16; ++slot) {
      rig_->close(resident_[slot], now_);
      resident_[slot] = rig_->create(fcfg_, "reno", now_);
      dpa.add_probe(resident_[slot]);
    }
    for (int r = 0; r < kAuditRounds; ++r) round<true>(&dpa);
  }

 private:
  static constexpr size_t kFlows = 262'144;
  static constexpr size_t kBurst = 32;
  static constexpr size_t kBurstsPerRound = 32;
  static constexpr uint64_t kRoundAcks = kBurst * kBurstsPerRound;  // + 1 churn op
  static constexpr size_t kRanks = size_t{1} << 20;
  static constexpr size_t kVictims = size_t{1} << 16;
  static constexpr Duration kTick = Duration::from_millis(1);
  static constexpr int kWarmRounds = 1000;
  static constexpr int kAuditRounds = 1000;

  template <bool kAudit>
  void round(DpAudit* dpa) {
    Rig& r = *rig_;
    for (size_t b = 0; b < kBurstsPerRound; ++b) {
      for (datapath::FlowAck& fa : burst_) {
        const uint64_t i = seq_++;
        now_ += kAckGap;
        fa.flow_id = resident_[ranks_[i & (kRanks - 1)]];
        fa.ev.now = now_;
        fa.ev.rtt_sample = kVirtualRtt + Duration::from_micros(jitter_[i % kJitterLen]);
      }
      if constexpr (kAudit) {
        for (const datapath::FlowAck& fa : burst_) {
          if (dpa->is_probe(fa.flow_id)) dpa->on_ack_fed(fa.flow_id, fa.ev.rtt_sample);
        }
      }
      {
        Scope sc(Kind::DpBurst);
        r.dp.on_ack_batch(burst_);
      }
      if (now_ >= next_tick_) {
        r.tick(now_);
        next_tick_ = next_tick_ + kTick;
      }
      r.pump(now_);
    }
    r.folds_fed += kRoundAcks;
    const uint32_t j = victims_[churn_seq_++ & (kVictims - 1)];
    r.close(resident_[j], now_);
    resident_[j] = r.create(fcfg_, "reno", now_);
  }

  datapath::FlowConfig fcfg_;
  std::vector<datapath::FlowAck> burst_;
  int64_t jitter_[kJitterLen];
  std::vector<uint32_t> ranks_;    // Zipf(1.5) popularity rank per ACK
  std::vector<uint32_t> victims_;  // resident slot closed per churn op
  std::vector<ipc::FlowId> resident_;
  TimePoint now_{};
  TimePoint next_tick_{};
  uint64_t seq_ = 0;
  uint64_t churn_seq_ = 0;
};

/// The report->command loop over the shm ring transport (the Figure 2
/// channel), fed by an open-loop real-clock ACK schedule across the
/// registered algorithm mix. The agent is pumped inline on the same
/// thread: with the agent in agent::TransportLoop on its own thread, the
/// loop latency on a shared 4-core host moved by more than 2x between
/// identical runs (see README.md), too much for any bound.
class ShmMix final : public Workload {
 public:
  explicit ShmMix(uint64_t seed) : events_(kEvents) {
    Rng rng(seed);
    for (Event& e : events_) {
      e.slot = static_cast<uint16_t>(rng.next_below(kFlows));
      e.jitter_us = static_cast<uint16_t>(rng.next_below(kJitterUs));
      e.ecn = rng.chance(kEcnProb);
      // Vector-mode flows take no loss events: their reports must carry
      // one sample per folded ACK, and a loss folds without a sample.
      e.loss = kAlgs[e.slot % kAlgs.size()] != std::string_view("vegas_vector") &&
               rng.chance(kLossProb);
    }
    ev_.bytes_acked = kMss;
    ev_.packets_acked = 1;
    ev_.bytes_in_flight = 32 * kMss;
    ev_.packets_in_flight = 32;
  }
  int setup_reps() const override { return 3; }
  TimePoint now() const override { return TimePoint::from_nanos(static_cast<int64_t>(clock_ns())); }
  double lateness_p99_us() const override { return lateness_.quantile(0.99) / 1e3; }
  bool expects_vector_reports() const override { return true; }

  void build() override {
    trace::set_phase(trace::kSetup);
    datapath::DatapathConfig dcfg;
    dcfg.flush_interval = kTick;
    dcfg.tick_flow_budget = 32;
    rig_ = std::make_unique<Rig>(
        dcfg, ipc::make_shm_ring_pair(kRingBytes, ipc::ShmWaitMode::BusyPoll));
    ids_.clear();
    for (size_t slot = 0; slot < kFlows; ++slot) {
      ids_.push_back(rig_->create(fcfg_, kAlgs[slot % kAlgs.size()], now()));
    }
    rig_->quiesce(now());
    setup_flows = kFlows;
    trace::set_phase(trace::kOther);
    open_loop<false>(kWarmSeconds, nullptr);
  }

  uint64_t run_for(double seconds) override {
    return open_loop<false>(seconds, nullptr);
  }

  void audit(DpAudit& dpa) override {
    // Every reno flow is re-created under the Reno model; half of them are
    // lossless probes for the register checks, the other half keep their
    // loss events so the model also replays urgent window cuts.
    for (size_t slot = 0; slot < kFlows; slot += kAlgs.size()) {
      rig_->close(ids_[slot], now());
      ids_[slot] = rig_->create(fcfg_, "reno", now());
      if ((slot / kAlgs.size()) % 2 == 0) dpa.add_probe(ids_[slot]);
    }
    open_loop<true>(kAuditSeconds, &dpa);
  }

 private:
  struct Event {
    uint16_t slot;
    uint16_t jitter_us;
    bool ecn;
    bool loss;
  };
  static constexpr std::array<const char*, 8> kAlgs = {
      "reno", "cubic", "dctcp", "vegas", "vegas_vector", "bbr", "timely", "pcc"};
  static constexpr size_t kFlows = 256;
  static constexpr uint64_t kAckPeriodNs = 1000;  // 1M ACKs/s offered
  static constexpr Duration kBaseRtt = Duration::from_micros(2000);
  static constexpr uint64_t kJitterUs = 100;
  static constexpr double kEcnProb = 0.02;
  static constexpr double kLossProb = 1.0 / 4000;
  static constexpr Duration kTick = Duration::from_micros(20);
  static constexpr size_t kEvents = size_t{1} << 16;
  static constexpr size_t kRingBytes = size_t{8} << 20;
  static constexpr double kWarmSeconds = 0.3;
  static constexpr double kAuditSeconds = 0.5;
  static constexpr uint32_t kMaxCatchUp = 64;  // ACKs per loop turn

  template <bool kAudit>
  uint64_t open_loop(double seconds, DpAudit* dpa) {
    Rig& r = *rig_;
    const uint64_t t0 = clock_ns();
    const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t tick_ns = static_cast<uint64_t>(kTick.nanos());
    // Lateness is a per-layer figure: kept in a traced run's traced half.
    const bool timed = trace::on() && trace::g_phase.load() == trace::kTimed;
    uint64_t next_tick = t0;
    uint64_t i = 0;
    for (;;) {
      const uint64_t t = clock_ns();
      if (t >= end) break;
      const TimePoint now = TimePoint::from_nanos(static_cast<int64_t>(t));
      for (uint32_t n = 0; n < kMaxCatchUp; ++n) {
        const uint64_t due = t0 + i * kAckPeriodNs;
        if (due > t) break;
        if (timed) lateness_.add(t - due);
        deliver<kAudit>(i++, now, dpa);
      }
      if (t >= next_tick) {
        r.tick(now);
        next_tick = std::max(next_tick + tick_ns, t);
      }
      r.pump(now);
    }
    return i;
  }

  template <bool kAudit>
  void deliver(uint64_t i, TimePoint now, DpAudit* dpa) {
    Rig& r = *rig_;
    const Event& e = events_[i & (kEvents - 1)];
    const ipc::FlowId id = ids_[e.slot];
    const bool s = trace::sample_ack();
    datapath::CcpFlow* fl;
    {
      Scope sc(Kind::DpFlow, id, s);
      fl = r.dp.flow(id);
    }
    if (fl == nullptr) [[unlikely]] {
      ++r.acks_failed;
      return;
    }
    {
      Scope sc(Kind::DpOnSend, id, s);
      fl->on_send(datapath::SendEvent{now, kMss});
    }
    ev_.now = now;
    ev_.rtt_sample = kBaseRtt + Duration::from_micros(e.jitter_us);
    ev_.ecn = e.ecn;
    bool probe = false;
    if constexpr (kAudit) {
      probe = dpa->is_probe(id);
      if (probe) dpa->on_ack_fed(id, ev_.rtt_sample);
    }
    {
      Scope sc(Kind::DpOnAck, id, s);
      fl->on_ack(ev_);
    }
    ++r.folds_fed;
    if (e.loss && !probe) {
      Scope sc(Kind::DpOnLoss, id);
      fl->on_loss(datapath::LossEvent{now, 1, ev_.bytes_in_flight});
      ++r.folds_fed;
    }
  }

  datapath::FlowConfig fcfg_;
  datapath::AckEvent ev_;
  std::vector<Event> events_;
  std::vector<ipc::FlowId> ids_;
  SampleBuf lateness_{size_t{1} << 20};
};

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "warm64_reno") return std::make_unique<Warm64>(seed);
  if (name == "zipf256k_churn") return std::make_unique<ZipfChurn>(seed);
  if (name == "agent_shm_mix") return std::make_unique<ShmMix>(seed);
  return nullptr;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// The timed loop run in equal windows. Each end-to-end figure is the
/// median of its per-window values, so one window slowed by a noisy
/// neighbour on the host does not move it.
struct Windowed {
  double acks_per_s = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  size_t latency_samples = 0;  // kept over all windows
  uint64_t acks = 0;
  double wall_ns = 0;
};

Windowed run_windows(Workload& w, double seconds, int windows) {
  SampleBuf& lat = w.rig().ch.loop_latency();
  std::vector<double> rates, p50, p99;
  Windowed r;
  for (int k = 0; k < windows; ++k) {
    lat.clear();
    const uint64_t t0 = clock_ns();
    const uint64_t a = w.run_for(seconds / windows);
    const double ns = static_cast<double>(clock_ns() - t0);
    rates.push_back(static_cast<double>(a) / (ns / 1e9));
    p50.push_back(lat.quantile(0.5));
    p99.push_back(lat.quantile(0.99));
    r.latency_samples += lat.size();
    r.acks += a;
    r.wall_ns += ns;
  }
  r.acks_per_s = median(rates);
  r.latency_p50_ns = median(p50);
  r.latency_p99_ns = median(p99);
  return r;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Mean self time per timed call of `k` over the given phases.
double self_ns(Kind k, std::initializer_list<trace::Phase> phases) {
  uint64_t self = 0, spans = 0;
  for (const trace::Phase p : phases) {
    const trace::KindAgg a = trace::total(p, k);
    self += a.self_ns;
    spans += a.spans;
  }
  return ratio(static_cast<double>(self), static_cast<double>(spans));
}

struct Segment {
  uint64_t acks = 0;
  double wall_ns = 0;
  Ledger d{};  // ledger growth over the segment
};

Ledger growth(const Ledger& a, const Ledger& b) {
  Ledger d;
  d.dp_frames = b.dp_frames - a.dp_frames;
  d.dp_send_failed = b.dp_send_failed - a.dp_send_failed;
  d.dp_msgs = b.dp_msgs - a.dp_msgs;
  d.dp_bytes = b.dp_bytes - a.dp_bytes;
  d.reports = b.reports - a.reports;
  d.empty_reports = b.empty_reports - a.empty_reports;
  d.urgents = b.urgents - a.urgents;
  d.agent_frames = b.agent_frames - a.agent_frames;
  d.agent_msgs = b.agent_msgs - a.agent_msgs;
  d.agent_drained = b.agent_drained - a.agent_drained;
  d.cmd_frames = b.cmd_frames - a.cmd_frames;
  d.cmd_send_failed = b.cmd_send_failed - a.cmd_send_failed;
  d.cmd_bytes = b.cmd_bytes - a.cmd_bytes;
  d.installs_sent = b.installs_sent - a.installs_sent;
  d.cmd_handled = b.cmd_handled - a.cmd_handled;
  d.cmd_applied = b.cmd_applied - a.cmd_applied;
  d.cmd_stale = b.cmd_stale - a.cmd_stale;
  d.dp_drained = b.dp_drained - a.dp_drained;
  return d;
}

std::vector<Metric> layer_metrics(const Segment& seg, Workload& w,
                                  double untraced_acks_per_s,
                                  double traced_acks_per_s) {
  using trace::kSetup;
  using trace::kTimed;
  const Ledger& d = seg.d;
  const double kacks = static_cast<double>(seg.acks) / 1e3;
  Channel& ch = w.rig().ch;

  uint64_t dp_allocs = 0, agent_allocs = 0;
  for (size_t k = 0; k < trace::kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    if (trace::datapath_side(kind)) dp_allocs += trace::allocs(kTimed, kind);
    if (trace::agent_side(kind)) agent_allocs += trace::allocs(kTimed, kind);
  }
  const trace::KindAgg dp_drain = trace::total(kTimed, Kind::IpcDpDrain);
  const trace::KindAgg ag_drain = trace::total(kTimed, Kind::IpcAgentDrain);
  const trace::KindAgg handle = trace::total(kTimed, Kind::AgentHandle);
  const trace::KindAgg setup_handle = trace::total(kSetup, Kind::AgentHandle);

  // Coverage: time inside layer calls per wall time; sampled per-ACK
  // calls are extrapolated to every call, and the benchmark's own
  // bookkeeping inside callbacks is taken out.
  double covered = 0;
  for (size_t k = 0; k < trace::kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    const trace::KindAgg a = trace::total(kTimed, kind);
    if (a.spans == 0 || kind == Kind::Bench) continue;
    // Each ACK makes one call of every sampled kind.
    const double scale = trace::sampled_kind(kind)
                             ? static_cast<double>(seg.acks) / static_cast<double>(a.spans)
                             : 1.0;
    covered += static_cast<double>(a.root_ns) * scale;
  }
  covered -= static_cast<double>(trace::total(kTimed, Kind::Bench).total_ns);

  return {
      {"datapath.demux_ns", self_ns(Kind::DpFlow, {kTimed}), "ns"},
      {"datapath.on_ack_ns", self_ns(Kind::DpOnAck, {kTimed}), "ns"},
      {"datapath.on_send_ns", self_ns(Kind::DpOnSend, {kTimed}), "ns"},
      {"datapath.burst_ns_per_ack",
       ratio(static_cast<double>(trace::total(kTimed, Kind::DpBurst).self_ns),
             trace::total(kTimed, Kind::DpBurst).spans > 0 ? static_cast<double>(seg.acks) : 0),
       "ns/ACK"},
      {"datapath.tick_ns", self_ns(Kind::DpTick, {kTimed}), "ns"},
      {"datapath.create_ns", self_ns(Kind::DpCreate, {kSetup, kTimed}), "ns"},
      {"datapath.close_ns", self_ns(Kind::DpClose, {kSetup, kTimed}), "ns"},
      {"datapath.install_apply_ns", self_ns(Kind::DpApplyInstall, {kSetup, kTimed}), "ns"},
      {"datapath.update_apply_ns", self_ns(Kind::DpApplyUpdate, {kTimed}), "ns"},
      {"datapath.empty_report_share",
       ratio(static_cast<double>(d.empty_reports), static_cast<double>(d.reports)), "share"},
      {"datapath.reports_per_kack", ratio(static_cast<double>(d.reports), kacks), "1/kACK"},
      {"datapath.urgents_per_kack", ratio(static_cast<double>(d.urgents), kacks), "1/kACK"},
      {"datapath.allocs_per_kack", ratio(static_cast<double>(dp_allocs), kacks), "1/kACK"},
      {"ipc.dp_send_ns", self_ns(Kind::IpcDpSend, {kTimed}), "ns"},
      {"ipc.agent_send_ns", self_ns(Kind::IpcAgentSend, {kTimed}), "ns"},
      {"ipc.drain_ns_per_frame",
       ratio(static_cast<double>(dp_drain.self_ns + ag_drain.self_ns),
             static_cast<double>(d.dp_drained + d.agent_drained)),
       "ns/frame"},
      {"ipc.queue_wait_us_p50", ch.queue_wait().quantile(0.5) / 1e3, "us"},
      {"ipc.cmd_queue_wait_us_p50", ch.cmd_queue_wait().quantile(0.5) / 1e3, "us"},
      {"ipc.msgs_per_frame",
       ratio(static_cast<double>(d.dp_msgs), static_cast<double>(d.dp_frames)), "1/frame"},
      {"ipc.bytes_per_kack", ratio(static_cast<double>(d.dp_bytes), kacks), "B/kACK"},
      {"ipc.cmd_bytes_per_report",
       ratio(static_cast<double>(d.cmd_bytes), static_cast<double>(d.reports)), "B/report"},
      {"agent.setup_ns_per_flow",
       ratio(static_cast<double>(setup_handle.self_ns), static_cast<double>(w.setup_flows)),
       "ns/flow"},
      {"agent.ns_per_msg",
       ratio(static_cast<double>(handle.self_ns), static_cast<double>(d.agent_msgs)), "ns/msg"},
      {"agent.installs_per_kreport",
       ratio(static_cast<double>(d.installs_sent), static_cast<double>(d.reports) / 1e3),
       "1/kreport"},
      {"agent.allocs_per_msg",
       ratio(static_cast<double>(agent_allocs), static_cast<double>(d.agent_msgs)), "1/msg"},
      {"agent.busy_share", ratio(static_cast<double>(handle.total_ns), seg.wall_ns), "share"},
      {"gen.lateness_us_p99", w.lateness_p99_us(), "us"},
      {"trace.stamp_ns", static_cast<double>(trace::g_stamp_ns), "ns"},
      {"trace.coverage", ratio(covered, seg.wall_ns), "share"},
      {"trace.overhead_pct",
       100.0 * ratio(untraced_acks_per_s - traced_acks_per_s, untraced_acks_per_s), "%"},
  };
}

/// Audit phase and end-of-run checks.
void audit_and_check(Workload& w, Outcome& out) {
  Rig& r = w.rig();
  DpAudit dpa(r.dp, datapath::FlowConfig{}.max_vector_samples);
  AgentAudit aga;
  r.ch.set_dp_audit(&dpa);
  r.ch.set_agent_audit(&aga);
  w.audit(dpa);
  const bool quiesced = r.quiesce(w.now());
  r.ch.set_dp_audit(nullptr);
  r.ch.set_agent_audit(nullptr);

  for (auto& e : dpa.errors) out.errors.push_back(std::move(e));
  for (auto& e : aga.errors) out.errors.push_back(std::move(e));
  if (dpa.probe_reports_checked == 0) out.errors.push_back("audit checked no probe report");
  if (aga.commands_checked == 0) out.errors.push_back("audit checked no reno command");
  if (w.expects_vector_reports() && dpa.vector_reports_checked == 0) {
    out.errors.push_back("audit checked no vector report");
  }
  for (auto& e : loop_checks(r, quiesced)) out.errors.push_back(std::move(e));
  out.notes.push_back("audit: " + std::to_string(dpa.probe_reports_checked) +
                      " probe reports, " + std::to_string(dpa.vector_reports_checked) +
                      " vector reports, " + std::to_string(aga.commands_checked) +
                      " reno commands checked");
  out.ops = op_counts(r);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm64_reno", "zipf256k_churn",
                                                 "agent_shm_mix"};
  return names;
}

// The timed phase is measured in windows; acks_per_s is their median.
constexpr int kWindows = 100;

Outcome run_workload(const RunConfig& cfg) {
  Outcome out;
  std::unique_ptr<Workload> w = make_workload(cfg.workload, cfg.seed);
  if (!w) throw std::invalid_argument("unknown workload " + cfg.workload);
  trace::calibrate();

  if (!cfg.traced) {
    std::vector<double> setup_s;
    for (int k = 0; k < w->setup_reps(); ++k) {
      w->teardown();
      const uint64_t t0 = clock_ns();
      w->build();
      setup_s.push_back(static_cast<double>(clock_ns() - t0) / 1e9);
    }
    trace::set_phase(trace::kTimed);
    const Windowed t = run_windows(*w, cfg.seconds, kWindows);
    trace::set_phase(trace::kOther);
    const uint64_t acks = t.acks;
    const double wall = t.wall_ns / 1e9;
    const size_t samples = t.latency_samples;
    out.metrics = {
        {"acks_per_s", t.acks_per_s, "ACK/s"},
        {"loop_latency_p50_us", t.latency_p50_ns / 1e3, "us"},
        {"loop_latency_p99_us", t.latency_p99_ns / 1e3, "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", 0, "MiB"},
    };
    if (samples < 1000) {
      out.errors.push_back("only " + std::to_string(samples) + " loop-latency samples");
    }
    out.notes.push_back("timed: " + std::to_string(acks) + " ACKs in " +
                        std::to_string(wall) + " s over " + std::to_string(kWindows) +
                        " windows; " + std::to_string(samples) +
                        " loop-latency samples kept");
    audit_and_check(*w, out);
    out.metrics[4].value = peak_rss_mib();
    return out;
  }

  // Traced run: one set-up with spans, then an untraced and a traced
  // half of the timed phase (their ratio is the tracing overhead).
  trace::set_on(true);
  w->build();
  trace::set_on(false);
  Channel& ch = w->rig().ch;
  const double half = cfg.seconds / 2;
  trace::set_phase(trace::kOther);
  const double rate_a = run_windows(*w, half, kWindows / 2).acks_per_s;
  Segment seg;
  const Ledger s0 = ch.ledger();
  trace::set_phase(trace::kTimed);
  trace::set_on(true);
  const Windowed b = run_windows(*w, half, kWindows / 2);
  seg.acks = b.acks;
  seg.wall_ns = b.wall_ns;
  trace::set_on(false);
  trace::set_phase(trace::kOther);
  seg.d = growth(s0, ch.ledger());
  audit_and_check(*w, out);
  out.metrics = layer_metrics(seg, *w, rate_a, b.acks_per_s);
  std::string allocs = "timed allocations by innermost span:";
  for (size_t k = 1; k < trace::kKinds; ++k) {
    if (const uint64_t n = trace::allocs(trace::kTimed, static_cast<Kind>(k))) {
      allocs += std::string(" ") + trace::kind_name(static_cast<Kind>(k)) + "=" +
                std::to_string(n);
    }
  }
  out.notes.push_back(allocs);
  if (!cfg.trace_out.empty()) {
    if (!trace::write_chrome_trace(cfg.trace_out)) {
      out.errors.push_back("could not write " + cfg.trace_out);
    } else {
      out.notes.push_back("trace: " + std::to_string(trace::spans_recorded()) +
                          " spans written to " + cfg.trace_out);
    }
  }
  return out;
}

std::vector<std::string> selftest() {
  std::vector<std::string> problems;
  datapath::DatapathConfig dcfg;
  dcfg.flush_interval = Duration::from_millis(1);
  dcfg.max_batch_msgs = 32;
  Rig rig(dcfg, ipc::make_inproc_pair());
  const datapath::FlowConfig fcfg;
  DpAudit dpa(rig.dp, fcfg.max_vector_samples);
  AgentAudit aga;
  rig.ch.set_dp_audit(&dpa);
  rig.ch.set_agent_audit(&aga);
  TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
  std::vector<ipc::FlowId> ids;
  for (int k = 0; k < 4; ++k) {
    ids.push_back(rig.create(fcfg, "reno", now));
    dpa.add_probe(ids.back());
  }
  ids.push_back(rig.create(fcfg, "vegas_vector", now));
  rig.pump(now);

  Rng rng(7);
  datapath::AckEvent ev;
  ev.bytes_acked = kMss;
  ev.packets_acked = 1;
  ev.bytes_in_flight = 16 * kMss;
  const auto feed = [&](uint64_t acks) {
    for (uint64_t i = 0; i < acks; ++i) {
      now += kAckGap;
      const ipc::FlowId id = ids[i % ids.size()];
      datapath::CcpFlow* fl = rig.dp.flow(id);
      ev.now = now;
      ev.rtt_sample = kVirtualRtt + Duration::from_micros(static_cast<int64_t>(rng.next_below(1024)));
      if (dpa.is_probe(id)) dpa.on_ack_fed(id, ev.rtt_sample);
      fl->on_send(datapath::SendEvent{now, kMss});
      fl->on_ack(ev);
      ++rig.folds_fed;
      if ((i & 255) == 255) {
        rig.tick(now);
        rig.pump(now);
      }
    }
  };
  feed(200'000);
  const bool quiesced = rig.quiesce(now);
  for (const auto& e : dpa.errors) problems.push_back("clean run flagged: " + e);
  for (const auto& e : aga.errors) problems.push_back("clean run flagged: " + e);
  for (const auto& e : loop_checks(rig, quiesced)) problems.push_back("clean run flagged: " + e);
  if (!dpa.last_probe) problems.push_back("no probe report was checked");
  if (!dpa.last_vector) problems.push_back("no vector report was checked");
  if (aga.commands_checked == 0) problems.push_back("no reno command was checked");

  if (dpa.last_probe) {
    DpAudit::ProbeCase c = *dpa.last_probe;
    c.msg.fields[static_cast<size_t>(c.layout.acked)] += 1500;
    if (check_probe_report(c.msg, c.layout, c.expect).empty()) {
      problems.push_back("a corrupted acked field passed the probe check");
    }
  }
  if (dpa.last_vector) {
    ipc::MeasurementMsg m = *dpa.last_vector;
    m.fields.resize(m.fields.size() + datapath::CcpFlow::kVectorFieldsPerPkt);
    if (check_vector_report(m, fcfg.max_vector_samples).empty()) {
      problems.push_back("a report with the wrong sample count passed the vector check");
    }
  }
  rig.ch.drop_next_command();
  feed(20'000);
  if (loop_checks(rig, rig.quiesce(now)).empty()) {
    problems.push_back("a dropped command frame passed the loop checks");
  }
  rig.ch.set_dp_audit(nullptr);
  rig.ch.set_agent_audit(nullptr);
  return problems;
}

}  // namespace loopbench
