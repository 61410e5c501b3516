#include "telemetry/profiler.hpp"

#include <bit>

#include "telemetry/telemetry.hpp"

namespace ccp::telemetry {

const char* prof_stage_name(ProfStage s) noexcept {
  switch (s) {
    case ProfStage::Decode: return "decode";
    case ProfStage::Measure: return "measure";
    case ProfStage::FoldInterp: return "fold_interp";
    case ProfStage::FoldJit: return "fold_jit";
    case ProfStage::Watchdog: return "watchdog";
    case ProfStage::ReportEmit: return "report_emit";
  }
  return "unknown";
}

void set_profile_sample(uint32_t n) noexcept {
  if (n == 0) {
    detail::g_prof_mask.store(0, std::memory_order_relaxed);
    return;
  }
  const uint32_t pow2 = std::bit_ceil(n < 2 ? 2u : n);
  detail::g_prof_mask.store(pow2 - 1, std::memory_order_relaxed);
}

uint32_t profile_sample_n() noexcept {
  const uint32_t mask = profile_sample_mask();
  return mask == 0 ? 0 : mask + 1;
}

void prof_record(ProfStage stage, uint64_t cycles) noexcept {
  Metrics& m = metrics();
  const size_t i = static_cast<size_t>(stage);
  m.prof_cycles[i].inc(cycles);
  m.prof_samples[i].inc();
}

void prof_commit(const ProfSample& ps, bool jit) noexcept {
  // Deltas, guarded against a stamp that never happened (stays 0) so a
  // partially-filled sample can't poison the accumulators with a
  // wrapped subtraction.
  if (ps.measure >= ps.entry && ps.entry != 0)
    prof_record(ProfStage::Measure, ps.measure - ps.entry);
  if (ps.watchdog >= ps.measure && ps.measure != 0)
    prof_record(ProfStage::Watchdog, ps.watchdog - ps.measure);
  if (ps.fold >= ps.watchdog && ps.watchdog != 0)
    prof_record(jit ? ProfStage::FoldJit : ProfStage::FoldInterp,
                ps.fold - ps.watchdog);
  if (ps.done >= ps.fold && ps.fold != 0)
    prof_record(ProfStage::ReportEmit, ps.done - ps.fold);
}

}  // namespace ccp::telemetry
