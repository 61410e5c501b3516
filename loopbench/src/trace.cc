#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace loopbench::trace {

std::atomic<bool> g_on{false};
std::atomic<uint8_t> g_phase{kOther};
uint64_t g_stamp_ns = 0;

namespace {

std::atomic<uint64_t> g_allocs[kPhases][kKinds];

constexpr size_t kMaxDepth = 32;
constexpr size_t kSpanCap = size_t{1} << 17;  // spans kept for the trace file

struct Frame {
  uint64_t start = 0;
  uint64_t child_ns = 0;
  uint32_t id = 0;
  uint32_t flow = 0;
  Kind kind = Kind::None;
};

struct SpanRec {
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t id;
  uint32_t parent;
  uint32_t flow;
  Kind kind;
};

}  // namespace

// The benchmark drives the program from one thread, so one trace.
struct TraceState {
  size_t depth = 0;
  uint32_t next_id = 1;
  Frame stack[kMaxDepth];
  KindAgg agg[kPhases][kKinds];
  std::vector<SpanRec> spans;
};

namespace {

TraceState* the_trace() {
  static TraceState* tt = [] {
    auto* t = new TraceState();  // leaked: spans outlive every caller
    t->spans.reserve(kSpanCap);
    return t;
  }();
  return tt;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::None: return "none";
    case Kind::DpFlow: return "datapath.flow";
    case Kind::DpOnSend: return "datapath.on_send";
    case Kind::DpOnAck: return "datapath.on_ack";
    case Kind::DpOnLoss: return "datapath.on_loss";
    case Kind::DpBurst: return "datapath.on_ack_batch";
    case Kind::DpTick: return "datapath.tick";
    case Kind::DpFlush: return "datapath.flush";
    case Kind::DpCreate: return "datapath.create_flow";
    case Kind::DpClose: return "datapath.close_flow";
    case Kind::DpApplyInstall: return "datapath.apply_install";
    case Kind::DpApplyUpdate: return "datapath.apply_update";
    case Kind::IpcDpSend: return "ipc.dp_send_frame";
    case Kind::IpcDpDrain: return "ipc.dp_drain_frames";
    case Kind::IpcAgentSend: return "ipc.agent_send_frame";
    case Kind::IpcAgentDrain: return "ipc.agent_drain_frames";
    case Kind::AgentHandle: return "agent.handle_frame";
    case Kind::Bench: return "bench.bookkeeping";
    case Kind::kCount: break;
  }
  return "?";
}

bool datapath_side(Kind k) {
  switch (k) {
    case Kind::DpFlow: case Kind::DpOnSend: case Kind::DpOnAck:
    case Kind::DpOnLoss: case Kind::DpBurst: case Kind::DpTick:
    case Kind::DpFlush: case Kind::DpCreate: case Kind::DpClose:
    case Kind::DpApplyInstall: case Kind::DpApplyUpdate:
    case Kind::IpcDpSend: case Kind::IpcDpDrain:
      return true;
    default:
      return false;
  }
}

bool agent_side(Kind k) {
  return k == Kind::AgentHandle || k == Kind::IpcAgentSend ||
         k == Kind::IpcAgentDrain;
}

void set_on(bool enabled) { g_on.store(enabled, std::memory_order_relaxed); }

void set_phase(Phase p) { g_phase.store(p, std::memory_order_relaxed); }

void calibrate() {
  std::vector<uint64_t> d(2001);
  for (auto& v : d) {
    const uint64_t a = clock_ns();
    const uint64_t b = clock_ns();
    v = b - a;
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  g_stamp_ns = d[d.size() / 2];
}

void Scope::begin_timed(Kind k, uint32_t flow) {
  TraceState* t = the_trace();
  if (t->depth == kMaxDepth) {
    t_kind = prev_;
    return;
  }
  mode_ = kTimed;
  Frame& f = t->stack[t->depth++];
  f.kind = k;
  f.flow = flow;
  f.child_ns = 0;
  f.id = t->next_id++;
  f.start = clock_ns();
}

void Scope::end_timed() {
  const uint64_t stop = clock_ns();
  TraceState* t = the_trace();
  const Frame f = t->stack[--t->depth];
  const uint8_t ph = g_phase.load(std::memory_order_relaxed);
  KindAgg& a = t->agg[ph][static_cast<size_t>(f.kind)];
  const uint64_t dur = stop - f.start;
  const uint64_t corr = dur > g_stamp_ns ? dur - g_stamp_ns : 0;
  ++a.spans;
  a.total_ns += corr;
  a.self_ns += corr > f.child_ns ? corr - f.child_ns : 0;
  uint32_t parent = 0;
  if (t->depth > 0) {
    Frame& p = t->stack[t->depth - 1];
    // The child's own two stamps sit inside the parent as well.
    p.child_ns += dur + g_stamp_ns;
    parent = p.id;
  } else if (t_untimed_depth == 0) {
    a.root_ns += corr;
  }
  if (ph == kTimed && t->spans.size() < kSpanCap) {
    t->spans.push_back(SpanRec{f.start, corr, f.id, parent, f.flow, f.kind});
  }
}

KindAgg total(Phase p, Kind k) { return the_trace()->agg[p][static_cast<size_t>(k)]; }

uint64_t allocs(Phase p, Kind k) {
  return g_allocs[p][static_cast<size_t>(k)].load(std::memory_order_relaxed);
}

size_t spans_recorded() { return the_trace()->spans.size(); }

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<SpanRec>& spans = the_trace()->spans;
  uint64_t t0 = UINT64_MAX;  // spans are recorded at their end, parents last
  for (const SpanRec& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                  "\"args\":{\"name\":\"generator+datapath+agent\"}}");
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"flow\":%u}}",
                 kind_name(s.kind), static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.id, s.parent, s.flow);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace loopbench::trace

// Global allocation hooks: every heap allocation in the process (the
// program's and the benchmark's) is counted against the innermost open
// span's kind while tracing is on. Untraced runs pay one relaxed load.
namespace {

void count_alloc() {
  using namespace loopbench::trace;
  if (!on()) return;
  g_allocs[g_phase.load(std::memory_order_relaxed)][static_cast<size_t>(t_kind)]
      .fetch_add(1, std::memory_order_relaxed);
}

void* checked_malloc(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
