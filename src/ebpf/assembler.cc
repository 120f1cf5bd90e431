#include "src/ebpf/assembler.h"

#include <limits>

#include "src/base/logging.h"

namespace kflex {

namespace {

// Returns the jump condition that is true exactly when `op` is false.
JmpOp InvertJmpOp(JmpOp op) {
  switch (op) {
    case BPF_JEQ:
      return BPF_JNE;
    case BPF_JNE:
      return BPF_JEQ;
    case BPF_JGT:
      return BPF_JLE;
    case BPF_JLE:
      return BPF_JGT;
    case BPF_JGE:
      return BPF_JLT;
    case BPF_JLT:
      return BPF_JGE;
    case BPF_JSGT:
      return BPF_JSLE;
    case BPF_JSLE:
      return BPF_JSGT;
    case BPF_JSGE:
      return BPF_JSLT;
    case BPF_JSLT:
      return BPF_JSGE;
    default:
      KFLEX_CHECK(false && "condition has no inverse");
      return BPF_JA;
  }
}

}  // namespace

Assembler::Label Assembler::NewLabel() {
  label_pc_.push_back(-1);
  return static_cast<Label>(label_pc_.size() - 1);
}

void Assembler::Bind(Label label) {
  KFLEX_CHECK(label >= 0 && static_cast<size_t>(label) < label_pc_.size());
  KFLEX_CHECK(label_pc_[static_cast<size_t>(label)] == -1 && "label bound twice");
  label_pc_[static_cast<size_t>(label)] = static_cast<int64_t>(insns_.size());
}

void Assembler::AluImm(AluOp op, Reg dst, int32_t imm, bool is64) {
  insns_.push_back(AluImmInsn(op, dst, imm, is64));
}

void Assembler::AluReg(AluOp op, Reg dst, Reg src, bool is64) {
  insns_.push_back(AluRegInsn(op, dst, src, is64));
}

void Assembler::LoadImm64(Reg dst, uint64_t imm) {
  insns_.push_back(LdImm64Insn(dst, imm));
  insns_.push_back(LdImm64HiInsn(imm));
}

void Assembler::LoadHeapAddr(Reg dst, uint64_t heap_off) {
  insns_.push_back(LdImm64Insn(dst, heap_off, kPseudoHeapVar));
  insns_.push_back(LdImm64HiInsn(heap_off));
}

void Assembler::LoadMapPtr(Reg dst, uint32_t map_id) {
  insns_.push_back(LdImm64Insn(dst, map_id, kPseudoMapId));
  insns_.push_back(LdImm64HiInsn(map_id));
}

void Assembler::Ldx(MemSize size, Reg dst, Reg src, int16_t off) {
  insns_.push_back(LdxInsn(size, dst, src, off));
}

void Assembler::Stx(MemSize size, Reg dst, int16_t off, Reg src) {
  insns_.push_back(StxInsn(size, dst, off, src));
}

void Assembler::StImm(MemSize size, Reg dst, int16_t off, int32_t imm) {
  insns_.push_back(StImmInsn(size, dst, off, imm));
}

void Assembler::AtomicAdd(MemSize size, Reg dst, int16_t off, Reg src, bool fetch) {
  insns_.push_back(
      AtomicInsn(size, dst, off, src, BPF_ATOMIC_ADD | (fetch ? BPF_ATOMIC_FETCH : 0)));
}

void Assembler::AtomicXchg(MemSize size, Reg dst, int16_t off, Reg src) {
  insns_.push_back(AtomicInsn(size, dst, off, src, BPF_ATOMIC_XCHG));
}

void Assembler::AtomicCmpXchg(MemSize size, Reg dst, int16_t off, Reg src) {
  insns_.push_back(AtomicInsn(size, dst, off, src, BPF_ATOMIC_CMPXCHG));
}

void Assembler::EmitJump(Insn insn, Label target) {
  fixups_.push_back(Fixup{insns_.size(), target});
  insns_.push_back(insn);
}

void Assembler::Jmp(Label target) { EmitJump(JmpAlwaysInsn(0), target); }

void Assembler::JmpImm(JmpOp op, Reg dst, int32_t imm, Label target, bool is64) {
  EmitJump(JmpImmInsn(op, dst, imm, 0, is64), target);
}

void Assembler::JmpReg(JmpOp op, Reg dst, Reg src, Label target, bool is64) {
  EmitJump(JmpRegInsn(op, dst, src, 0, is64), target);
}

void Assembler::Call(int32_t helper_id) { insns_.push_back(CallInsn(helper_id)); }

void Assembler::Exit() { insns_.push_back(ExitInsn()); }

Assembler::LoopScope Assembler::LoopBegin() {
  LoopScope scope{NewLabel(), NewLabel()};
  Bind(scope.head);
  return scope;
}

void Assembler::LoopBreakIfImm(const LoopScope& loop, JmpOp op, Reg dst, int32_t imm) {
  JmpImm(op, dst, imm, loop.done);
}

void Assembler::LoopBreakIfReg(const LoopScope& loop, JmpOp op, Reg dst, Reg src) {
  JmpReg(op, dst, src, loop.done);
}

void Assembler::LoopEnd(const LoopScope& loop) {
  Jmp(loop.head);
  Bind(loop.done);
}

Assembler::IfScope Assembler::IfImm(JmpOp cond_true, Reg dst, int32_t imm) {
  IfScope scope{NewLabel(), NewLabel()};
  JmpImm(InvertJmpOp(cond_true), dst, imm, scope.else_label);
  return scope;
}

Assembler::IfScope Assembler::IfReg(JmpOp cond_true, Reg dst, Reg src) {
  IfScope scope{NewLabel(), NewLabel()};
  JmpReg(InvertJmpOp(cond_true), dst, src, scope.else_label);
  return scope;
}

void Assembler::Else(IfScope& scope) {
  Jmp(scope.end_label);
  Bind(scope.else_label);
  scope.has_else = true;
}

void Assembler::EndIf(IfScope& scope) {
  if (!scope.has_else) {
    Bind(scope.else_label);
  }
  Bind(scope.end_label);
}

StatusOr<Program> Assembler::Finish(std::string name, Hook hook, ExtensionMode mode,
                                    uint64_t heap_size) {
  for (const Fixup& fixup : fixups_) {
    int64_t pc = label_pc_[static_cast<size_t>(fixup.label)];
    if (pc < 0) {
      return InvalidArgument("unbound label in program '" + name + "'");
    }
    // eBPF jump offsets are relative to the *next* instruction.
    int64_t rel = pc - static_cast<int64_t>(fixup.insn_index) - 1;
    if (rel < std::numeric_limits<int16_t>::min() || rel > std::numeric_limits<int16_t>::max()) {
      return OutOfRange("jump offset overflow in program '" + name + "'");
    }
    insns_[fixup.insn_index].off = static_cast<int16_t>(rel);
  }
  Program program;
  program.name = std::move(name);
  program.hook = hook;
  program.mode = mode;
  program.heap_size = heap_size;
  program.insns = std::move(insns_);
  insns_.clear();
  fixups_.clear();
  label_pc_.clear();
  return program;
}

}  // namespace kflex
