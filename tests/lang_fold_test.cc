#include <gtest/gtest.h>

#include "lang/compiler.hpp"
#include "lang/vm.hpp"

namespace ccp::lang {
namespace {

CompiledProgram compile_or_die(const char* src) { return compile_text(src); }

TEST(FoldMachine, InitEvaluatesAtInstall) {
  auto prog = compile_or_die(R"(
    fold { x := x + 1 init 41; }
    control { Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {});
  EXPECT_DOUBLE_EQ(fm.state()[0], 41.0);
  fm.on_packet({});
  EXPECT_DOUBLE_EQ(fm.state()[0], 42.0);
}

TEST(FoldMachine, InitCanUseVars) {
  auto prog = compile_or_die(R"(
    fold { x := x init $start; }
    control { Report(); }
  )");
  FoldMachine fm;
  std::vector<double> vars(prog.num_vars());
  vars[static_cast<size_t>(prog.var_index("start"))] = 7.5;
  fm.install(&prog, vars);
  EXPECT_DOUBLE_EQ(fm.state()[0], 7.5);
}

TEST(FoldMachine, SequentialSemantics) {
  // Later registers see earlier registers' *new* values in the same
  // fold step — the paper's Vegas fold relies on this (inQ uses
  // new.baseRtt).
  auto prog = compile_or_die(R"(
    fold {
      a := Pkt.bytes_acked init 0;
      b := a * 2 init 0;
    }
    control { Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {});
  PktInfo pkt_info;
  pkt_info.bytes_acked = 10;
  fm.on_packet(pkt_info);
  EXPECT_DOUBLE_EQ(fm.state()[0], 10.0);
  EXPECT_DOUBLE_EQ(fm.state()[1], 20.0);  // saw the new `a`
}

TEST(FoldMachine, VolatileResetsOnReport) {
  auto prog = compile_or_die(R"(
    fold {
      volatile counter := counter + 1 init 0;
      keeper := keeper + 1 init 100;
    }
    control { Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {});
  fm.on_packet({});
  fm.on_packet({});
  EXPECT_DOUBLE_EQ(fm.state()[0], 2.0);
  EXPECT_DOUBLE_EQ(fm.state()[1], 102.0);
  fm.reset_volatile();
  EXPECT_DOUBLE_EQ(fm.state()[0], 0.0);    // volatile resets
  EXPECT_DOUBLE_EQ(fm.state()[1], 102.0);  // persistent survives
}

TEST(FoldMachine, UrgentFiresOnChangeOnly) {
  auto prog = compile_or_die(R"(
    fold {
      volatile loss := loss + Pkt.lost init 0 urgent;
      acked := acked + Pkt.bytes_acked init 0;
    }
    control { Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {});
  PktInfo clean;
  clean.bytes_acked = 100;
  EXPECT_FALSE(fm.on_packet(clean));  // loss unchanged: no urgent
  PktInfo lossy;
  lossy.lost_packets = 1;
  EXPECT_TRUE(fm.on_packet(lossy));   // loss changed: urgent
  EXPECT_FALSE(fm.on_packet(clean));  // back to quiet
}

TEST(FoldMachine, UpdateVarsKeepsFoldState) {
  auto prog = compile_or_die(R"(
    fold { sum := sum + $inc init 0; }
    control { Cwnd(sum); WaitRtts(1.0); Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {5.0});
  fm.on_packet({});
  EXPECT_DOUBLE_EQ(fm.state()[0], 5.0);
  fm.update_vars(std::vector<double>{3.0});
  fm.on_packet({});
  EXPECT_DOUBLE_EQ(fm.state()[0], 8.0);  // state survived the rebind
}

TEST(FoldMachine, UpdateVarsValidatesCount) {
  auto prog = compile_or_die(R"(
    fold { x := $a + $b init 0; }
    control { Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {1.0, 2.0});
  EXPECT_THROW(fm.update_vars(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(fm.install(&prog, {1.0}), std::invalid_argument);
}

TEST(FoldMachine, ReinstallResetsState) {
  auto prog = compile_or_die(R"(
    fold { x := x + 1 init 0; }
    control { Report(); }
  )");
  FoldMachine fm;
  fm.install(&prog, {});
  fm.on_packet({});
  fm.on_packet({});
  EXPECT_DOUBLE_EQ(fm.state()[0], 2.0);
  fm.install(&prog, {});
  EXPECT_DOUBLE_EQ(fm.state()[0], 0.0);
}

TEST(FoldMachine, PaperVegasFold) {
  // The §2.4 fold listing: baseRtt min + delta accumulation.
  auto prog = compile_or_die(R"(
    fold {
      baseRtt := if(Pkt.rtt > 0, min(baseRtt, Pkt.rtt), baseRtt) init 1e9;
      volatile delta :=
          if((Pkt.rtt - baseRtt) * ($cwnd / Pkt.mss) / baseRtt < 2,
             delta + 1,
             if((Pkt.rtt - baseRtt) * ($cwnd / Pkt.mss) / baseRtt > 4,
                delta - 1,
                delta))
          init 0;
    }
    control { Cwnd($cwnd); WaitRtts(1.0); Report(); }
  )");
  FoldMachine fm;
  std::vector<double> vars(prog.num_vars(), 0.0);
  vars[static_cast<size_t>(prog.var_index("cwnd"))] = 10 * 1460.0;
  fm.install(&prog, vars);

  PktInfo pkt_info;
  pkt_info.mss = 1460;
  pkt_info.rtt_us = 10000;  // base
  fm.on_packet(pkt_info);
  EXPECT_DOUBLE_EQ(fm.state()[0], 10000.0);
  EXPECT_DOUBLE_EQ(fm.state()[1], 1.0);  // no queue: increase

  pkt_info.rtt_us = 20000;  // inQ = (10000/10000)*10 = 10 > 4: decrease
  fm.on_packet(pkt_info);
  EXPECT_DOUBLE_EQ(fm.state()[1], 0.0);

  pkt_info.rtt_us = 13000;  // inQ = 3: hold
  fm.on_packet(pkt_info);
  EXPECT_DOUBLE_EQ(fm.state()[1], 0.0);
}

TEST(FoldMachine, UninstalledIsInert) {
  FoldMachine fm;
  EXPECT_FALSE(fm.installed());
  EXPECT_FALSE(fm.on_packet({}));
  EXPECT_THROW(fm.update_vars({}), std::logic_error);
}

}  // namespace
}  // namespace ccp::lang
