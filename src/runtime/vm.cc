#include "src/runtime/vm.h"

#include <cstring>

#include "src/ebpf/helper_ids.h"
#include "src/fault/fault.h"
#include "src/kie/kie.h"
#include "src/obs/obs.h"
#include "src/runtime/layout.h"

namespace kflex {

namespace {

// Translates a simulated kernel VA to host memory, or returns nullptr with a
// fault classification.
uint8_t* Translate(VmEnv& env, uint64_t va, uint64_t size, MemFaultKind& fault) {
  // Stack frame of the running invocation.
  if (va >= kStackRegion && va + size <= kStackRegion + kStackSize) {
    return env.stack + (va - kStackRegion);
  }
  // Hook context object.
  if (va >= kCtxRegion && va + size <= kCtxRegion + env.ctx_size) {
    return env.ctx + (va - kCtxRegion);
  }
  // Extension heap (including guard zones and demand-paged pages).
  if (env.heap != nullptr) {
    if (env.heap->ContainsKernelVa(va)) {
      return env.heap->TranslateKernel(va, size, fault);
    }
    if (env.heap->ContainsUserVa(va)) {
      // Unsanitized access reached a user-space address: SMAP trap (§4.2).
      fault = MemFaultKind::kSmap;
      return nullptr;
    }
  }
  // Map value areas: the address's high bits name the map.
  if (env.maps != nullptr) {
    Map* map = env.maps->FindByVa(va);
    if (map != nullptr) {
      uint8_t* p = map->TranslateValue(va, size);
      if (p != nullptr) {
        return p;
      }
    }
  }
  fault = MemFaultKind::kBadAddress;
  return nullptr;
}

uint64_t LoadSized(const uint8_t* p, int size) {
  uint64_t v = 0;
  std::memcpy(&v, p, static_cast<size_t>(size));
  return v;
}

void StoreSized(uint8_t* p, int size, uint64_t v) {
  std::memcpy(p, &v, static_cast<size_t>(size));
}

uint64_t AluEval64(uint8_t op, uint64_t a, uint64_t b) {
  switch (op) {
    case BPF_ADD:
      return a + b;
    case BPF_SUB:
      return a - b;
    case BPF_MUL:
      return a * b;
    case BPF_DIV:
      return b == 0 ? 0 : a / b;
    case BPF_MOD:
      return b == 0 ? a : a % b;
    case BPF_OR:
      return a | b;
    case BPF_AND:
      return a & b;
    case BPF_XOR:
      return a ^ b;
    case BPF_LSH:
      return a << (b & 63);
    case BPF_RSH:
      return a >> (b & 63);
    case BPF_ARSH:
      return static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63));
    case BPF_MOV:
      return b;
  }
  return 0;
}

uint32_t AluEval32(uint8_t op, uint32_t a, uint32_t b) {
  switch (op) {
    case BPF_ADD:
      return a + b;
    case BPF_SUB:
      return a - b;
    case BPF_MUL:
      return a * b;
    case BPF_DIV:
      return b == 0 ? 0 : a / b;
    case BPF_MOD:
      return b == 0 ? a : a % b;
    case BPF_OR:
      return a | b;
    case BPF_AND:
      return a & b;
    case BPF_XOR:
      return a ^ b;
    case BPF_LSH:
      return a << (b & 31);
    case BPF_RSH:
      return a >> (b & 31);
    case BPF_ARSH:
      return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
    case BPF_MOV:
      return b;
  }
  return 0;
}

bool JmpEval(uint8_t op, uint64_t a, uint64_t b, bool is64) {
  if (!is64) {
    a = static_cast<uint32_t>(a);
    b = static_cast<uint32_t>(b);
  }
  int64_t sa = is64 ? static_cast<int64_t>(a)
                    : static_cast<int64_t>(static_cast<int32_t>(static_cast<uint32_t>(a)));
  int64_t sb = is64 ? static_cast<int64_t>(b)
                    : static_cast<int64_t>(static_cast<int32_t>(static_cast<uint32_t>(b)));
  switch (op) {
    case BPF_JEQ:
      return a == b;
    case BPF_JNE:
      return a != b;
    case BPF_JGT:
      return a > b;
    case BPF_JGE:
      return a >= b;
    case BPF_JLT:
      return a < b;
    case BPF_JLE:
      return a <= b;
    case BPF_JSET:
      return (a & b) != 0;
    case BPF_JSGT:
      return sa > sb;
    case BPF_JSGE:
      return sa >= sb;
    case BPF_JSLT:
      return sa < sb;
    case BPF_JSLE:
      return sa <= sb;
  }
  return false;
}

}  // namespace

uint8_t* VmTranslate(VmEnv& env, uint64_t va, uint64_t size, MemFaultKind& fault) {
  return Translate(env, va, size, fault);
}

bool VmExecMemInsn(VmEnv& env, const Insn& insn, MemFaultKind& fault,
                   uint64_t& fault_va) {
  uint64_t* regs = env.regs;
  uint8_t cls = insn.Class();
  bool is_load = cls == BPF_LDX;
  uint64_t va = (is_load ? regs[insn.src] : regs[insn.dst]) +
                static_cast<uint64_t>(static_cast<int64_t>(insn.off));
  int size = insn.AccessSize();
  MemFaultKind fk = MemFaultKind::kBadAddress;
  uint8_t* p = Translate(env, va, static_cast<uint64_t>(size), fk);
  if (p == nullptr) {
    fault = fk;
    fault_va = va;
    return false;
  }
  if (is_load) {
    regs[insn.dst] = LoadSized(p, size);
    return true;
  }
  if (insn.IsAtomic()) {
    // 4- or 8-byte atomics on naturally aligned host memory.
    if (insn.imm == BPF_ATOMIC_CMPXCHG) {
      if (size == 8) {
        uint64_t expected = regs[R0];
        __atomic_compare_exchange_n(reinterpret_cast<uint64_t*>(p), &expected,
                                    regs[insn.src], false, __ATOMIC_SEQ_CST,
                                    __ATOMIC_SEQ_CST);
        regs[R0] = expected;
      } else {
        uint32_t expected = static_cast<uint32_t>(regs[R0]);
        __atomic_compare_exchange_n(reinterpret_cast<uint32_t*>(p), &expected,
                                    static_cast<uint32_t>(regs[insn.src]), false,
                                    __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
        regs[R0] = expected;
      }
    } else if (insn.imm == BPF_ATOMIC_XCHG) {
      if (size == 8) {
        regs[insn.src] = __atomic_exchange_n(reinterpret_cast<uint64_t*>(p),
                                             regs[insn.src], __ATOMIC_SEQ_CST);
      } else {
        regs[insn.src] = __atomic_exchange_n(reinterpret_cast<uint32_t*>(p),
                                             static_cast<uint32_t>(regs[insn.src]),
                                             __ATOMIC_SEQ_CST);
      }
    } else {  // ADD / ADD|FETCH
      if (size == 8) {
        uint64_t old = __atomic_fetch_add(reinterpret_cast<uint64_t*>(p),
                                          regs[insn.src], __ATOMIC_SEQ_CST);
        if ((insn.imm & BPF_ATOMIC_FETCH) != 0) {
          regs[insn.src] = old;
        }
      } else {
        uint32_t old = __atomic_fetch_add(reinterpret_cast<uint32_t*>(p),
                                          static_cast<uint32_t>(regs[insn.src]),
                                          __ATOMIC_SEQ_CST);
        if ((insn.imm & BPF_ATOMIC_FETCH) != 0) {
          regs[insn.src] = old;
        }
      }
    }
  } else if (cls == BPF_ST) {
    StoreSized(p, size, static_cast<uint64_t>(static_cast<int64_t>(insn.imm)));
  } else {
    StoreSized(p, size, regs[insn.src]);
  }
  return true;
}

const char* VmOutcomeName(VmResult::Outcome outcome) {
  switch (outcome) {
    case VmResult::Outcome::kOk:
      return "ok";
    case VmResult::Outcome::kFault:
      return "fault";
    case VmResult::Outcome::kHelperCancel:
      return "helper_cancel";
    case VmResult::Outcome::kHelperFault:
      return "helper_fault";
    case VmResult::Outcome::kBudgetExceeded:
      return "budget_exceeded";
  }
  return "?";
}

HelperOutcome VmCallHelper(VmEnv& env, int32_t helper_id, const HelperTable::Entry& entry,
                           const uint64_t args[5]) {
  if (KFLEX_FAULT_FIRE("helper.ret_err")) {
    const HelperContract* contract = FindHelperContract(helper_id);
    // Only fallible helpers are injected: releases must not be skipped (the
    // resource would leak past the cancellation unwinder) and void returns
    // have no error value an extension could observe.
    if (contract != nullptr && contract->releases == ResourceKind::kNone &&
        contract->ret != HelperRetType::kVoid) {
      HelperOutcome out;
      switch (contract->ret) {
        case HelperRetType::kMapValueOrNull:
        case HelperRetType::kHeapPtrOrNull:
        case HelperRetType::kSocketOrNull:
          out.ret = 0;  // NULL: the documented lookup/allocation failure
          break;
        case HelperRetType::kScalar:
          out.ret = static_cast<uint64_t>(int64_t{-14});  // -EFAULT
          break;
        case HelperRetType::kVoid:
          break;
      }
      KFLEX_TRACE(ObsEvent::kHelperCall, static_cast<uint64_t>(helper_id), out.ret);
      KFLEX_OBS_COUNT(kHelperCalls);
      return out;
    }
  }
  HelperOutcome out = entry.fn(env, args);
  // Semantic event shared by both engines: the JIT trampoline funnels every
  // helper call through here too, so golden traces match across engines.
  KFLEX_TRACE(ObsEvent::kHelperCall, static_cast<uint64_t>(helper_id), out.ret);
  KFLEX_OBS_COUNT(kHelperCalls);
  return out;
}

VmResult VmRun(std::span<const Insn> insns, VmEnv& env) {
  VmResult result;
  uint64_t* regs = env.regs;
  regs[R1] = kCtxRegion;
  regs[R10] = kStackRegion + kStackSize;

  size_t pc = 0;
  uint64_t executed = 0;
  uint64_t instr_executed = 0;
  const uint64_t budget = env.insn_budget;
  const std::vector<uint8_t>* instr_mask = env.instrumentation_mask;

  auto fault = [&](size_t at, MemFaultKind kind, uint64_t va) {
    result.outcome = VmResult::Outcome::kFault;
    result.fault_pc = at;
    result.fault_kind = kind;
    result.fault_va = va;
    result.insns_executed = executed;
    result.instr_insns_executed = instr_executed;
  };

  while (pc < insns.size()) {
    executed++;
    if (instr_mask != nullptr && pc < instr_mask->size() && (*instr_mask)[pc] != 0) {
      instr_executed++;
    }
    if (budget != 0 && executed > budget) {
      result.outcome = VmResult::Outcome::kBudgetExceeded;
      result.insns_executed = executed;
      result.instr_insns_executed = instr_executed;
      return result;
    }
    const Insn& insn = insns[pc];
    uint8_t cls = insn.Class();

    switch (cls) {
      case BPF_ALU64:
      case BPF_ALU: {
        bool is64 = cls == BPF_ALU64;
        uint8_t op = insn.AluOpField();
        if (op == BPF_NEG) {
          if (is64) {
            regs[insn.dst] = 0 - regs[insn.dst];
          } else {
            regs[insn.dst] = static_cast<uint32_t>(0 - static_cast<uint32_t>(regs[insn.dst]));
          }
          pc++;
          continue;
        }
        uint64_t b;
        if (insn.SrcField() == BPF_X) {
          b = regs[insn.src];
        } else {
          b = is64 ? static_cast<uint64_t>(static_cast<int64_t>(insn.imm))
                   : static_cast<uint32_t>(insn.imm);
        }
        if (is64) {
          regs[insn.dst] = AluEval64(op, regs[insn.dst], b);
        } else {
          regs[insn.dst] = AluEval32(op, static_cast<uint32_t>(regs[insn.dst]),
                                     static_cast<uint32_t>(b));
        }
        pc++;
        continue;
      }

      case BPF_LD: {
        if (insn.IsLdImm64()) {
          uint64_t imm = LdImm64Value(insn, insns[pc + 1]);
          if (insn.src == kPseudoMapId) {
            regs[insn.dst] = MapRegistry::HandleVaForId(static_cast<uint32_t>(imm));
          } else if (insn.src == kPseudoHeapVar) {
            // Normally concretized by Kie; resolved here for uninstrumented
            // (trusted) runs.
            regs[insn.dst] =
                (env.heap != nullptr ? env.heap->layout().kernel_base : 0) + imm;
          } else {
            regs[insn.dst] = imm;
          }
          pc += 2;
          continue;
        }
        if (insn.opcode == kKieFuelCheckOpcode) {
          if ((env.fuel_quantum != 0 && executed > env.fuel_quantum) ||
              (env.cancel != nullptr && env.cancel->load(std::memory_order_relaxed))) {
            fault(pc, MemFaultKind::kTerminate, 0);
            return result;
          }
          pc++;
          continue;
        }
        if (insn.opcode == kKieSanitizeOpcode || insn.opcode == kKieTranslateOpcode) {
          if (env.heap == nullptr) {
            fault(pc, MemFaultKind::kBadAddress, 0);
            return result;
          }
          const HeapLayout& layout = env.heap->layout();
          uint64_t base = insn.opcode == kKieSanitizeOpcode ? layout.kernel_base
                                                            : layout.user_base;
          regs[insn.dst] = base + (regs[insn.dst] & layout.mask());
          pc++;
          continue;
        }
        fault(pc, MemFaultKind::kBadAddress, 0);
        return result;
      }

      case BPF_LDX:
      case BPF_ST:
      case BPF_STX: {
        MemFaultKind fk = MemFaultKind::kNone;
        uint64_t fva = 0;
        if (!VmExecMemInsn(env, insn, fk, fva)) {
          fault(pc, fk, fva);
          return result;
        }
        pc++;
        continue;
      }

      case BPF_JMP:
      case BPF_JMP32: {
        uint8_t op = insn.AluOpField();
        if (op == BPF_CALL) {
          const HelperTable::Entry* helper =
              env.helpers != nullptr ? env.helpers->Find(insn.imm) : nullptr;
          if (helper == nullptr) {
            fault(pc, MemFaultKind::kBadAddress, static_cast<uint64_t>(insn.imm));
            return result;
          }
          executed += helper->virtual_cost;
          uint64_t args[5] = {regs[R1], regs[R2], regs[R3], regs[R4], regs[R5]};
          HelperOutcome out = VmCallHelper(env, insn.imm, *helper, args);
          if (env.helper_trace != nullptr) {
            env.helper_trace->emplace_back(insn.imm, out.ret);
          }
          if (out.cancel) {
            result.outcome = VmResult::Outcome::kHelperCancel;
            result.fault_pc = pc;
            result.insns_executed = executed;
            result.instr_insns_executed = instr_executed;
            return result;
          }
          if (out.fault) {
            result.outcome = VmResult::Outcome::kHelperFault;
            result.fault_pc = pc;
            result.insns_executed = executed;
            result.instr_insns_executed = instr_executed;
            return result;
          }
          regs[R0] = out.ret;
          pc++;
          continue;
        }
        if (op == BPF_EXIT) {
          result.outcome = VmResult::Outcome::kOk;
          result.ret = static_cast<int64_t>(regs[R0]);
          result.insns_executed = executed;
          result.instr_insns_executed = instr_executed;
          return result;
        }
        if (op == BPF_JA) {
          pc = static_cast<size_t>(static_cast<int64_t>(pc) + 1 + insn.off);
          continue;
        }
        uint64_t b = insn.SrcField() == BPF_X
                         ? regs[insn.src]
                         : (cls == BPF_JMP ? static_cast<uint64_t>(static_cast<int64_t>(insn.imm))
                                           : static_cast<uint32_t>(insn.imm));
        if (JmpEval(op, regs[insn.dst], b, cls == BPF_JMP)) {
          pc = static_cast<size_t>(static_cast<int64_t>(pc) + 1 + insn.off);
        } else {
          pc++;
        }
        continue;
      }

      default:
        fault(pc, MemFaultKind::kBadAddress, 0);
        return result;
    }
  }
  // Fell off the end (cannot happen for verified programs).
  fault(pc, MemFaultKind::kBadAddress, 0);
  return result;
}

}  // namespace kflex
