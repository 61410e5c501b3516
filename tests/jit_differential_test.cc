// Differential fuzzing: JIT vs interpreter vs disassembler.
//
// Generates random well-typed fold programs over the full operator
// surface (arithmetic, total div/sqrt/log, pow, comparisons, boolean
// ops, select, ewma — the exp/0-division/overflow combinations
// organically produce inf and NaN mid-program) and replays random ACK
// traces through three engines per program:
//
//   1. a pure interpreter FoldMachine (JitMode::Off),
//   2. a native FoldMachine (JitMode::On),
//   3. a Verify FoldMachine (both engines per ACK, internal memcmp).
//
// After every ACK, fold state must match BIT FOR BIT between (1) and
// (2), the urgent/report trigger decisions must agree, and (3)'s global
// mismatch counter must stay untouched. Each program's disassembly must
// also be stable (same text when listed twice) and well-formed.
//
// The fixed seed corpus gives 4 seeds x 125 programs x 20 traces =
// 10,000 program x trace cases (ISSUE 5 acceptance floor), each trace
// 24 ACKs. On builds without a JIT (non-x86-64 or -DCCP_ENABLE_JIT=OFF)
// the same corpus still runs interpreter-vs-interpreter, keeping the
// suite green and the corpus honest.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "lang/builder.hpp"
#include "lang/compiler.hpp"
#include "lang/disasm.hpp"
#include "lang/error.hpp"
#include "lang/jit/jit.hpp"
#include "lang/vm.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ccp::lang {
namespace {

namespace jit = ccp::lang::jit;

constexpr int kProgramsPerSeed = 125;
constexpr int kTracesPerProgram = 20;
constexpr int kAcksPerTrace = 24;

struct JitGuard {
  jit::JitMode saved = jit::mode();
  ~JitGuard() { jit::set_mode(saved); }
};

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Random expression over `n_regs` fold registers, two vars, and the
/// whole packet-field and operator surface. Extreme constants are drawn
/// deliberately so intermediate inf/NaN values are common.
Expr random_expr(ccp::Rng& rng, int depth, int n_regs) {
  if (depth <= 0 || rng.chance(0.3)) {
    switch (rng.next_below(5)) {
      case 0: {
        const double extremes[] = {0.0,  -0.0,   1.0,   -1.0, 0.125,
                                   1e18, -1e18,  1e308, 1e-9, 745.0};
        return rng.chance(0.3) ? Expr::c(extremes[rng.next_below(10)])
                               : Expr::c(rng.uniform(-1000, 1000));
      }
      case 1: return f("r" + std::to_string(rng.next_below(n_regs)));
      case 2: return rng.chance(0.5) ? v("x") : v("y");
      default:
        return pkt(static_cast<PktField>(rng.next_below(kNumPktFields)));
    }
  }
  const auto sub = [&] { return random_expr(rng, depth - 1, n_regs); };
  switch (rng.next_below(20)) {
    case 0: return sub() + sub();
    case 1: return sub() - sub();
    case 2: return sub() * sub();
    case 3: return sub() / sub();
    case 4: return min(sub(), sub());
    case 5: return max(sub(), sub());
    case 6: return pow(sub(), sub());
    case 7: return -sub();
    case 8: return abs(sub());
    case 9: return sqrt(sub());
    case 10: return cbrt(sub());
    case 11: return log(sub());
    case 12: return exp(sub());  // overflows to inf readily: NaN feedstock
    case 13: return sub() < sub();
    case 14: return sub() <= sub();
    case 15: return sub() > sub();
    case 16: return sub() >= sub();
    case 17: return rng.chance(0.5) ? (sub() == sub()) : (sub() != sub());
    case 18: return rng.chance(0.5) ? (sub() && sub()) : (sub() || sub());
    default:
      return rng.chance(0.5)
                 ? if_(sub(), sub(), sub())
                 : ewma(sub(), sub(), rng.chance(0.5) ? Expr::c(0.125) : sub());
  }
}

Program random_program(ccp::Rng& rng) {
  const int n_regs = 1 + static_cast<int>(rng.next_below(5));
  ProgramBuilder b;
  for (int i = 0; i < n_regs; ++i) {
    b.def("r" + std::to_string(i),
          rng.chance(0.2) ? random_expr(rng, 1, n_regs)
                          : Expr::c(rng.uniform(-10, 10)),
          random_expr(rng, 3, n_regs),
          ProgramBuilder::DefOpts{rng.chance(0.4), rng.chance(0.25)});
  }
  switch (rng.next_below(3)) {
    case 0: b.cwnd(random_expr(rng, 2, n_regs)); break;
    case 1: b.rate(random_expr(rng, 2, n_regs)); break;
    default: b.wait_rtts(Expr::c(rng.uniform(0.25, 4.0))); break;
  }
  b.report();
  return b.build();
}

/// Draws programs until sema accepts one. The generator can emit the two
/// constructs sema rejects outright — division by a literal zero and a
/// constant ewma gain outside (0, 1] — so rejected draws are simply
/// redrawn; the seeds stay deterministic either way.
CompiledProgram compile_valid(ccp::Rng& rng) {
  for (;;) {
    try {
      return compile(random_program(rng));
    } catch (const ProgramError&) {
    }
  }
}

PktInfo random_pkt(ccp::Rng& rng) {
  PktInfo p;
  p.rtt_us = rng.chance(0.1) ? 0.0 : rng.uniform(1, 2e5);
  p.bytes_acked = rng.chance(0.1) ? 0.0 : rng.uniform(0, 1e6);
  p.packets_acked = rng.uniform(0, 64);
  p.lost_packets = rng.chance(0.15) ? rng.uniform(1, 8) : 0.0;
  p.ecn = rng.chance(0.05) ? 1.0 : 0.0;
  p.was_timeout = rng.chance(0.02) ? 1.0 : 0.0;
  p.snd_rate_bps = rng.uniform(0, 1e10);
  p.rcv_rate_bps = rng.uniform(0, 1e10);
  p.bytes_in_flight = rng.uniform(0, 1e7);
  p.packets_in_flight = rng.uniform(0, 1e4);
  p.bytes_pending = rng.uniform(0, 1e8);
  p.now_us = rng.uniform(0, 1e12);
  p.mss = rng.chance(0.9) ? 1448.0 : rng.uniform(100, 9000);
  p.cwnd = rng.uniform(1448, 1e7);
  p.rate_bps = rng.uniform(0, 1e10);
  // Occasionally feed the fold truly hostile magnitudes.
  if (rng.chance(0.03)) p.rtt_us = 1e308;
  if (rng.chance(0.03)) p.rcv_rate_bps = 1e308;
  return p;
}

class JitDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JitDifferential, RandomProgramsAndTracesBitIdentical) {
  JitGuard guard;
  ccp::Rng rng(GetParam());
  const uint64_t mismatches_before =
      telemetry::metrics().jit_verify_mismatches.value();
  int jitted_programs = 0;

  for (int pi = 0; pi < kProgramsPerSeed; ++pi) {
    const CompiledProgram prog = compile_valid(rng);

    // Disassembler round-trip: listing a program is deterministic and
    // covers every block the engines are about to execute.
    const std::string listing = disassemble(prog);
    ASSERT_FALSE(listing.empty());
    ASSERT_EQ(listing, disassemble(prog)) << "program " << pi;

    std::vector<double> vars(prog.num_vars());

    for (int ti = 0; ti < kTracesPerProgram; ++ti) {
      for (auto& value : vars) value = rng.uniform(-100, 100);

      FoldMachine interp, native, checked;
      jit::set_mode(jit::JitMode::Off);
      interp.install(&prog, vars);
      jit::set_mode(jit::JitMode::On);
      native.install(&prog, vars);
      jit::set_mode(jit::JitMode::Verify);
      checked.install(&prog, vars);

      if (ti == 0 && native.jit_active()) ++jitted_programs;

      for (int ack = 0; ack < kAcksPerTrace; ++ack) {
        const PktInfo pkt = random_pkt(rng);
        const bool urgent_interp = interp.on_packet(pkt);
        const bool urgent_native = native.on_packet(pkt);
        const bool urgent_checked = checked.on_packet(pkt);
        ASSERT_EQ(urgent_interp, urgent_native)
            << "urgent trigger diverged: program " << pi << " trace " << ti
            << " ack " << ack;
        ASSERT_EQ(urgent_interp, urgent_checked);
        ASSERT_EQ(interp.state().size(), native.state().size());
        for (size_t r = 0; r < interp.state().size(); ++r) {
          ASSERT_EQ(bits(interp.state()[r]), bits(native.state()[r]))
              << "fold[" << r << "] (" << prog.fold_names[r]
              << ") diverged: program " << pi << " trace " << ti << " ack "
              << ack << " interp=" << interp.state()[r]
              << " jit=" << native.state()[r] << "\n"
              << listing;
          ASSERT_EQ(bits(interp.state()[r]), bits(checked.state()[r]));
        }
      }

      // Report-path state transitions must agree too.
      interp.reset_volatile();
      native.reset_volatile();
      checked.reset_volatile();
      for (size_t r = 0; r < interp.state().size(); ++r) {
        ASSERT_EQ(bits(interp.state()[r]), bits(native.state()[r]));
      }
    }
  }

  EXPECT_EQ(telemetry::metrics().jit_verify_mismatches.value(),
            mismatches_before)
      << "Verify-mode engines diverged somewhere in the corpus";
  if (jit::available()) {
    EXPECT_EQ(jitted_programs, kProgramsPerSeed)
        << "every generated program should lower to native code";
  } else {
    EXPECT_EQ(jitted_programs, 0);
  }
}

// 4 fixed seeds x 125 programs x 20 traces = 10,000 differential cases.
INSTANTIATE_TEST_SUITE_P(SeedCorpus, JitDifferential,
                         ::testing::Values(0x5eed0001u, 0x5eed0002u,
                                           0x5eed0003u, 0x5eed0004u));

}  // namespace
}  // namespace ccp::lang
