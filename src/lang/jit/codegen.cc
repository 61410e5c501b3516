// Lowers optimized fold bytecode to x86-64.
//
// Contract: bit-identical results to eval_block in vm.cc, for every
// input including NaN, ±0, infinities, and out-of-domain values. That
// is what lets JitMode::Verify and the differential fuzzer memcmp fold
// state between the two engines. The ground rules that keep the two in
// lockstep:
//
//  - Total arithmetic is lowered branchlessly with SSE2 compare masks:
//    safe_div keys on `b != 0` (cmpsd NEQ — unordered compares true,
//    matching `b == 0.0 ? ... : a / b` for NaN divisors), safe_sqrt on
//    `a <= 0` (cmpsd LE — unordered false, so sqrt(NaN) stays NaN as in
//    the interpreter).
//  - minsd/maxsd are emitted with dst = s[a], src = s[b]: the SSE rule
//    "return src on equal or unordered" is exactly the interpreter's
//    `a < b ? a : b` / `a > b ? a : b` ternaries, NaN and -0.0 included.
//  - Gt/Ge have no cmpsd predicate; they are lowered as flipped Lt/Le
//    (`a > b` == `b < a`), which preserves unordered-false.
//  - Ewma keeps the interpreter's exact evaluation order
//    ((1-w)*a then w*b then the add) with discrete mulsd/addsd — never
//    FMA, which would change rounding.
//  - Log/Exp/Cbrt/Pow call out to helpers below that are copies of the
//    vm.cc safe_* definitions, so both engines round-trip the same libm.
//
// Two slot-allocation modes: programs with <= 12 scratch slots and no
// helper calls keep every slot in xmm4..xmm15 ("reg-cached", the common
// case after the optimizer's DCE); larger or call-bearing programs keep
// slots in the caller's scratch array (helpers may clobber any xmm).
// xmm0..xmm3 are scratch temporaries in both modes.
//
// Fixed register plan (SysV: args rdi/rsi/rdx/rcx):
//   rbx = fold state    rbp = pkt fields    r13 = vars
//   r14 = scratch slots r15 = const pool (movabs, patched by CodeRegion)

#include "lang/jit/codegen.hpp"

#include <cmath>

#include "lang/jit/emitter.hpp"

namespace ccp::lang::jit {

// Helper bodies duplicated from vm.cc's safe_log / safe_pow (and the
// plain std:: calls for Exp/Cbrt): both engines must resolve to the
// same libm entry points so results match bit for bit.
extern "C" {
double ccp_jit_log(double a) { return a <= 0.0 ? 0.0 : std::log(a); }
double ccp_jit_exp(double a) { return std::exp(a); }
double ccp_jit_cbrt(double a) { return std::cbrt(a); }
double ccp_jit_pow(double a, double b) {
  const double v = std::pow(a, b);
  return std::isfinite(v) ? v : 0.0;
}
}

namespace {

// cmpsd immediate predicates. Unordered (any NaN operand) compares
// false for EQ/LT/LE and true for NEQ — the same truth table as the
// C operators the interpreter uses.
constexpr uint8_t kCmpEq = 0;
constexpr uint8_t kCmpLt = 1;
constexpr uint8_t kCmpLe = 2;
constexpr uint8_t kCmpNeq = 4;

constexpr uint16_t kMaxRegSlots = 12;  // xmm4..xmm15

bool has_helper_call(const CodeBlock& b) {
  for (const Instr& in : b.code) {
    switch (in.op) {
      case OpCode::Log:
      case OpCode::Exp:
      case OpCode::Cbrt:
      case OpCode::Pow:
        return true;
      default:
        break;
    }
  }
  return false;
}

class BlockCompiler {
 public:
  explicit BlockCompiler(const CodeBlock& b)
      : b_(b), reg_mode_(b.n_slots <= kMaxRegSlots && !has_helper_call(b)) {
    pool_ = b.consts;
    off_negzero_ = static_cast<int32_t>(pool_.size() * 8);
    pool_.push_back(-0.0);
    off_one_ = static_cast<int32_t>(pool_.size() * 8);
    pool_.push_back(1.0);
  }

  std::optional<CompiledBlock> run() {
    prologue();
    for (const Instr& in : b_.code) {
      if (!lower(in)) return std::nullopt;
    }
    epilogue();
    CompiledBlock out;
    out.code = a_.code();
    out.pool = std::move(pool_);
    out.pool_patch_at = pool_patch_at_;
    out.reg_cached = reg_mode_;
    return out;
  }

 private:
  static Xmm xreg(uint16_t s) { return static_cast<Xmm>(4 + s); }
  static int32_t off(uint16_t i) { return static_cast<int32_t>(i) * 8; }
  int32_t koff(uint16_t i) const { return off(i); }

  void prologue() {
    a_.push(RBX);
    a_.push(RBP);
    a_.push(R13);
    a_.push(R14);
    a_.push(R15);
    // 5 pushes + the return address leave rsp 16-aligned, so helper
    // calls need no extra adjustment.
    a_.mov_rr(RBX, RDI);  // fold state
    a_.mov_rr(RBP, RSI);  // pkt
    a_.mov_rr(R13, RDX);  // vars
    a_.mov_rr(R14, RCX);  // scratch slots (memory mode)
    pool_patch_at_ = a_.mov_ri64(R15, 0);  // const pool, patched at install
  }

  void epilogue() {
    if (b_.result_slot < b_.n_slots) {
      ld_slot(0, b_.result_slot);
    } else {
      a_.xorpd_rr(0, 0);
    }
    a_.pop(R15);
    a_.pop(R14);
    a_.pop(R13);
    a_.pop(RBP);
    a_.pop(RBX);
    a_.ret();
  }

  /// temp xmm t = slot s (full-width copy in reg mode; upper-lane
  /// garbage is harmless — only the low lane ever carries meaning).
  void ld_slot(Xmm t, uint16_t s) {
    if (reg_mode_) {
      a_.movapd_rr(t, xreg(s));
    } else {
      a_.movsd_load(t, R14, off(s));
    }
  }
  void st_slot(uint16_t s, Xmm t) {
    if (reg_mode_) {
      a_.movapd_rr(xreg(s), t);
    } else {
      a_.movsd_store(R14, off(s), t);
    }
  }

  using RR = void (Asm::*)(Xmm, Xmm);
  using RM = void (Asm::*)(Xmm, Gpr, int32_t);

  /// dst = a OP rhs, where rhs is slot b (b_const=false) or consts[b].
  void binop(RR rr, RM rm, const Instr& in, bool b_const) {
    const bool in_place = reg_mode_ && in.dst == in.a;
    const Xmm t = in_place ? xreg(in.dst) : Xmm{0};
    if (!in_place) ld_slot(0, in.a);
    if (b_const) {
      (a_.*rm)(t, R15, koff(in.b));
    } else if (reg_mode_) {
      (a_.*rr)(t, xreg(in.b));
    } else {
      (a_.*rm)(t, R14, off(in.b));
    }
    if (!in_place) st_slot(in.dst, 0);
  }

  /// Applies cmpsd with predicate `pred` to temp xmm0 against slot/const
  /// rhs, then converts the all-ones/zero mask to 1.0/0.0 and stores.
  void mask_to_bool_and_store(uint16_t dst) {
    a_.movsd_load(1, R15, off_one_);
    a_.andpd_rr(0, 1);
    st_slot(dst, 0);
  }

  /// dst = (lhs pred rhs) ? 1 : 0. flip=false: lhs = slot a, rhs = slot
  /// b or consts[b]. flip=true (Gt/Ge lowered as reversed Lt/Le): lhs =
  /// slot b or consts[b], rhs = slot a.
  void cmp_op(const Instr& in, uint8_t pred, bool flip, bool b_const) {
    if (!flip) {
      ld_slot(0, in.a);
      if (b_const) {
        a_.cmpsd_rm(0, R15, koff(in.b), pred);
      } else if (reg_mode_) {
        a_.cmpsd_rr(0, xreg(in.b), pred);
      } else {
        a_.cmpsd_rm(0, R14, off(in.b), pred);
      }
    } else {
      if (b_const) {
        a_.movsd_load(0, R15, koff(in.b));
      } else {
        ld_slot(0, in.b);
      }
      if (reg_mode_) {
        a_.cmpsd_rr(0, xreg(in.a), pred);
      } else {
        a_.cmpsd_rm(0, R14, off(in.a), pred);
      }
    }
    mask_to_bool_and_store(in.dst);
  }

  /// dst = b == 0 ? 0 : a / b (rhs from slot or const pool).
  void div_op(const Instr& in, bool b_const) {
    if (b_const) {
      a_.movsd_load(1, R15, koff(in.b));
    } else {
      ld_slot(1, in.b);
    }
    a_.movapd_rr(2, 1);
    a_.xorpd_rr(3, 3);
    a_.cmpsd_rr(2, 3, kCmpNeq);  // mask: b != 0 (NaN divisor -> true -> NaN out)
    ld_slot(0, in.a);
    a_.divsd_rr(0, 1);
    a_.andpd_rr(0, 2);
    st_slot(in.dst, 0);
  }

  /// dst = (1 - w) * s[a] + w * s[b]; w = slot c or consts[c].
  void ewma_op(const Instr& in, bool c_const) {
    a_.movsd_load(0, R15, off_one_);
    if (c_const) {
      a_.subsd_rm(0, R15, koff(in.c));
    } else if (reg_mode_) {
      a_.subsd_rr(0, xreg(in.c));
    } else {
      a_.subsd_rm(0, R14, off(in.c));
    }
    if (reg_mode_) {
      a_.mulsd_rr(0, xreg(in.a));
    } else {
      a_.mulsd_rm(0, R14, off(in.a));
    }
    if (c_const) {
      a_.movsd_load(1, R15, koff(in.c));
    } else {
      ld_slot(1, in.c);
    }
    if (reg_mode_) {
      a_.mulsd_rr(1, xreg(in.b));
    } else {
      a_.mulsd_rm(1, R14, off(in.b));
    }
    a_.addsd_rr(0, 1);
    st_slot(in.dst, 0);
  }

  /// Blend through the mask already in xmm0: dst = mask ? s[b] : s[c].
  void blend_and_store(const Instr& in) {
    ld_slot(1, in.b);
    a_.andpd_rr(1, 0);  // mask & b
    ld_slot(2, in.c);
    a_.andnpd_rr(0, 2);  // ~mask & c
    a_.orpd_rr(0, 1);
    st_slot(in.dst, 0);
  }

  void helper_call(const Instr& in, uint64_t addr, bool binary) {
    // Memory mode only (mode selection excludes helpers from reg mode):
    // every live value is in the scratch array, so clobbering all xmm
    // and the caller-saved GPRs is fine. rsp is 16-aligned here (see
    // prologue).
    a_.movsd_load(0, R14, off(in.a));
    if (binary) a_.movsd_load(1, R14, off(in.b));
    a_.mov_ri64(RAX, addr);
    a_.call(RAX);
    a_.movsd_store(R14, off(in.dst), 0);
  }

  bool lower(const Instr& in) {
    switch (in.op) {
      case OpCode::LoadConst:
        if (reg_mode_) {
          a_.movsd_load(xreg(in.dst), R15, koff(in.a));
        } else {
          a_.movsd_load(0, R15, koff(in.a));
          st_slot(in.dst, 0);
        }
        return true;
      case OpCode::LoadFold:
        if (reg_mode_) {
          a_.movsd_load(xreg(in.dst), RBX, off(in.a));
        } else {
          a_.movsd_load(0, RBX, off(in.a));
          st_slot(in.dst, 0);
        }
        return true;
      case OpCode::LoadPkt:
        if (reg_mode_) {
          a_.movsd_load(xreg(in.dst), RBP, off(in.a));
        } else {
          a_.movsd_load(0, RBP, off(in.a));
          st_slot(in.dst, 0);
        }
        return true;
      case OpCode::LoadVar:
        if (reg_mode_) {
          a_.movsd_load(xreg(in.dst), R13, off(in.a));
        } else {
          a_.movsd_load(0, R13, off(in.a));
          st_slot(in.dst, 0);
        }
        return true;

      case OpCode::Neg:
        ld_slot(0, in.a);
        a_.movsd_load(1, R15, off_negzero_);
        a_.xorpd_rr(0, 1);
        st_slot(in.dst, 0);
        return true;
      case OpCode::Not:
        ld_slot(0, in.a);
        a_.xorpd_rr(1, 1);
        a_.cmpsd_rr(0, 1, kCmpEq);  // NaN -> false -> 0, like `NaN == 0`
        mask_to_bool_and_store(in.dst);
        return true;
      case OpCode::Sqrt:
        // a <= 0 ? 0 : sqrt(a); unordered LE is false, so NaN passes
        // through sqrtsd (sqrt(NaN) == NaN, same as the interpreter).
        ld_slot(1, in.a);
        a_.xorpd_rr(2, 2);
        a_.cmpsd_rr(1, 2, kCmpLe);
        ld_slot(0, in.a);
        a_.sqrtsd_rr(0, 0);
        a_.andnpd_rr(1, 0);
        st_slot(in.dst, 1);
        return true;
      case OpCode::Abs:
        a_.movsd_load(1, R15, off_negzero_);
        ld_slot(0, in.a);
        a_.andnpd_rr(1, 0);  // ~signbit & a
        st_slot(in.dst, 1);
        return true;
      case OpCode::Log:
        helper_call(in, reinterpret_cast<uint64_t>(&ccp_jit_log), false);
        return true;
      case OpCode::Exp:
        helper_call(in, reinterpret_cast<uint64_t>(&ccp_jit_exp), false);
        return true;
      case OpCode::Cbrt:
        helper_call(in, reinterpret_cast<uint64_t>(&ccp_jit_cbrt), false);
        return true;
      case OpCode::Pow:
        helper_call(in, reinterpret_cast<uint64_t>(&ccp_jit_pow), true);
        return true;

      case OpCode::Add:
        binop(&Asm::addsd_rr, &Asm::addsd_rm, in, false);
        return true;
      case OpCode::Sub:
        binop(&Asm::subsd_rr, &Asm::subsd_rm, in, false);
        return true;
      case OpCode::Mul:
        binop(&Asm::mulsd_rr, &Asm::mulsd_rm, in, false);
        return true;
      case OpCode::Div:
        div_op(in, false);
        return true;
      case OpCode::Min:
        binop(&Asm::minsd_rr, &Asm::minsd_rm, in, false);
        return true;
      case OpCode::Max:
        binop(&Asm::maxsd_rr, &Asm::maxsd_rm, in, false);
        return true;

      case OpCode::Lt:
        cmp_op(in, kCmpLt, false, false);
        return true;
      case OpCode::Le:
        cmp_op(in, kCmpLe, false, false);
        return true;
      case OpCode::Gt:
        cmp_op(in, kCmpLt, true, false);
        return true;
      case OpCode::Ge:
        cmp_op(in, kCmpLe, true, false);
        return true;
      case OpCode::Eq:
        cmp_op(in, kCmpEq, false, false);
        return true;
      case OpCode::Ne:
        cmp_op(in, kCmpNeq, false, false);
        return true;
      case OpCode::And:
      case OpCode::Or:
        ld_slot(0, in.a);
        a_.xorpd_rr(2, 2);
        a_.cmpsd_rr(0, 2, kCmpNeq);  // a != 0 (NaN -> true, like C)
        ld_slot(1, in.b);
        a_.cmpsd_rr(1, 2, kCmpNeq);
        if (in.op == OpCode::And) {
          a_.andpd_rr(0, 1);
        } else {
          a_.orpd_rr(0, 1);
        }
        mask_to_bool_and_store(in.dst);
        return true;

      case OpCode::Select:
        ld_slot(0, in.a);
        a_.xorpd_rr(1, 1);
        a_.cmpsd_rr(0, 1, kCmpNeq);  // mask: a != 0
        blend_and_store(in);
        return true;
      case OpCode::SelGtz:
        // mask: 0 < a (unordered false, so NaN selects c like `NaN > 0`).
        a_.xorpd_rr(0, 0);
        if (reg_mode_) {
          a_.cmpsd_rr(0, xreg(in.a), kCmpLt);
        } else {
          a_.cmpsd_rm(0, R14, off(in.a), kCmpLt);
        }
        blend_and_store(in);
        return true;
      case OpCode::Ewma:
        ewma_op(in, false);
        return true;
      case OpCode::StoreFold:
        if (reg_mode_) {
          a_.movsd_store(RBX, off(in.a), xreg(in.b));
        } else {
          a_.movsd_load(0, R14, off(in.b));
          a_.movsd_store(RBX, off(in.a), 0);
        }
        return true;

      case OpCode::AddC:
        binop(&Asm::addsd_rr, &Asm::addsd_rm, in, true);
        return true;
      case OpCode::SubC:
        binop(&Asm::subsd_rr, &Asm::subsd_rm, in, true);
        return true;
      case OpCode::MulC:
        binop(&Asm::mulsd_rr, &Asm::mulsd_rm, in, true);
        return true;
      case OpCode::DivC:
        div_op(in, true);
        return true;
      case OpCode::MinC:
        binop(&Asm::minsd_rr, &Asm::minsd_rm, in, true);
        return true;
      case OpCode::MaxC:
        binop(&Asm::maxsd_rr, &Asm::maxsd_rm, in, true);
        return true;
      case OpCode::LtC:
        cmp_op(in, kCmpLt, false, true);
        return true;
      case OpCode::LeC:
        cmp_op(in, kCmpLe, false, true);
        return true;
      case OpCode::GtC:
        cmp_op(in, kCmpLt, true, true);
        return true;
      case OpCode::GeC:
        cmp_op(in, kCmpLe, true, true);
        return true;
      case OpCode::EqC:
        cmp_op(in, kCmpEq, false, true);
        return true;
      case OpCode::NeC:
        cmp_op(in, kCmpNeq, false, true);
        return true;
      case OpCode::EwmaC:
        ewma_op(in, true);
        return true;
    }
    return false;  // unknown opcode: decline, caller falls back to the VM
  }

  Asm a_;
  const CodeBlock& b_;
  bool reg_mode_;
  std::vector<double> pool_;
  int32_t off_negzero_ = 0;
  int32_t off_one_ = 0;
  size_t pool_patch_at_ = 0;
};

}  // namespace

std::optional<CompiledBlock> compile_block(const CodeBlock& block) {
  // Degenerate blocks (the interpreter treats them as "do nothing,
  // return 0") still get the standard prologue/epilogue so the const
  // pool patch site exists.
  return BlockCompiler(block).run();
}

}  // namespace ccp::lang::jit
