// The KFlex execution engine: an interpreter for (instrumented) eBPF
// bytecode with a software MMU over the simulated kernel address space.
//
// This stands in for the eBPF JIT + CPU of the real system. Memory accesses
// are translated per region; faults (guard zone, unpopulated heap page,
// unmapped address, SMAP) surface as VmResult::kFault with the faulting pc,
// which the runtime converts into an extension cancellation (§3.3). The
// KFlex-specific SANITIZE/TRANSLATE pseudo-instructions emitted by Kie are
// executed natively here, mirroring the augmented JIT of §4.2.
#ifndef SRC_RUNTIME_VM_H_
#define SRC_RUNTIME_VM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/ebpf/insn.h"
#include "src/runtime/heap.h"
#include "src/runtime/maps.h"

namespace kflex {

class HeapAllocator;
class ObjectRegistry;
struct VmEnv;

struct HelperOutcome {
  uint64_t ret = 0;
  // Helper observed the invocation's cancel flag while blocked (e.g., a spin
  // lock waiter): the runtime cancels the extension at this call site.
  bool cancel = false;
  // Helper signalled a hard fault (invalid handle etc.).
  bool fault = false;
};

using HelperFn = std::function<HelperOutcome(VmEnv&, const uint64_t args[5])>;

class HelperTable {
 public:
  struct Entry {
    HelperFn fn;
    // Virtual instruction cost of the helper's internal work, charged to the
    // invocation's executed-instruction count so that kernel-helper work
    // (map probing, socket lookup, allocation) is accounted in the same
    // currency as extension bytecode.
    uint64_t virtual_cost = 0;
    // The JIT v2 knows an interpreter-exact native fast path for this helper
    // and may emit it inline (bailing to `fn` whenever anything observable
    // could diverge). Only set for the stock registration; re-registering a
    // helper without it turns inlining off for subsequent compiles.
    bool inlineable = false;
  };

  void Register(int32_t id, HelperFn fn, uint64_t virtual_cost = 0,
                bool inlineable = false) {
    auto it = LowerBound(id);
    if (it != slots_.end() && it->id == id) {
      it->entry = Entry{std::move(fn), virtual_cost, inlineable};
    } else {
      slots_.insert(it, Slot{id, Entry{std::move(fn), virtual_cost, inlineable}});
    }
  }
  const Entry* Find(int32_t id) const {
    auto it = const_cast<HelperTable*>(this)->LowerBound(id);
    return it != slots_.end() && it->id == id ? &it->entry : nullptr;
  }
  // Registered helper ids in ascending order (drift self-checks compare this
  // against the static contract catalog in src/ebpf/helper_ids.h).
  std::vector<int32_t> Ids() const {
    std::vector<int32_t> ids;
    ids.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      ids.push_back(slot.id);
    }
    return ids;
  }

 private:
  // Flat sorted array: helper lookup is on the CALL hot path of both
  // engines, and registration is load-time-only, so a binary-searched
  // vector beats a node-based map (and keeps Entry pointers stable during
  // runs, which the JIT's helper trampoline relies on).
  struct Slot {
    int32_t id;
    Entry entry;
  };
  std::vector<Slot>::iterator LowerBound(int32_t id) {
    return std::lower_bound(
        slots_.begin(), slots_.end(), id,
        [](const Slot& s, int32_t v) { return s.id < v; });
  }
  std::vector<Slot> slots_;
};

// Everything one invocation needs. Stack memory is owned by the VM run.
struct VmEnv {
  ExtensionHeap* heap = nullptr;            // null for heap-less eBPF programs
  HeapAllocator* allocator = nullptr;
  MapRegistry* maps = nullptr;
  ObjectRegistry* objects = nullptr;
  const HelperTable* helpers = nullptr;
  uint8_t* ctx = nullptr;
  uint32_t ctx_size = 0;
  int cpu = 0;
  std::atomic<bool>* cancel = nullptr;      // invocation cancel flag
  uint64_t insn_budget = 0;                 // 0 = unlimited (test safety net)
  // Per-invocation quantum for clock-sampled cancellation points (FUELCHECK
  // instructions); 0 disables the check.
  uint64_t fuel_quantum = 0;
  // Optional per-pc flags marking Kie-inserted instructions (guards,
  // terminate loads); counted separately in VmResult.
  const std::vector<uint8_t>* instrumentation_mask = nullptr;
  // Optional helper-call trace: (helper id, returned value) appended per
  // call in execution order. Differential tests compare traces across
  // optimized/unoptimized runs of the same program.
  std::vector<std::pair<int32_t, uint64_t>>* helper_trace = nullptr;

  // Filled during execution; readable by the cancellation unwinder.
  uint64_t regs[kNumRegs] = {0};
  uint8_t stack[kStackSize] = {0};
};

struct VmResult {
  enum class Outcome {
    kOk = 0,
    kFault,          // memory fault -> cancellation point
    kHelperCancel,   // helper observed cancellation while blocked
    kHelperFault,    // helper hard failure
    kBudgetExceeded, // safety net tripped (tests only)
  };
  Outcome outcome = Outcome::kOk;
  int64_t ret = 0;
  size_t fault_pc = 0;
  MemFaultKind fault_kind = MemFaultKind::kNone;
  uint64_t fault_va = 0;
  uint64_t insns_executed = 0;
  // Of insns_executed, how many were Kie-inserted instrumentation.
  uint64_t instr_insns_executed = 0;
};

const char* VmOutcomeName(VmResult::Outcome outcome);

// Executes `insns` in `env`. R1 is set to the ctx VA, R10 to the stack top.
VmResult VmRun(std::span<const Insn> insns, VmEnv& env);

// The VM's address translation, exposed for helper implementations that take
// extension pointers (map keys, socket tuples, ...).
uint8_t* VmTranslate(VmEnv& env, uint64_t va, uint64_t size, MemFaultKind& fault);

// Executes one LDX/ST/STX instruction (including atomics) against `env`,
// with full translate + zero-extension semantics. Returns false on a memory
// fault, filling `fault` and `fault_va`. Shared between the interpreter loop
// and the JIT's cold memory stubs so both engines fault bit-for-bit alike.
bool VmExecMemInsn(VmEnv& env, const Insn& insn, MemFaultKind& fault,
                   uint64_t& fault_va);

// Invokes helper `helper_id` through `entry`, applying the `helper.ret_err`
// fault point: when it fires on a fallible helper the body is skipped and
// the helper's documented error value is returned instead (NULL for
// pointer-returning helpers, -EFAULT for status/scalar ones). Helpers that
// release resources, and void-returning helpers, are never injected —
// release operations cannot fail in the kernel, and skipping them would leak
// the resource the cancellation path is required to reclaim. Shared between
// the interpreter's CALL dispatch and the JIT's helper trampoline so both
// engines observe the same injected schedule.
HelperOutcome VmCallHelper(VmEnv& env, int32_t helper_id, const HelperTable::Entry& entry,
                           const uint64_t args[5]);

}  // namespace kflex

#endif  // SRC_RUNTIME_VM_H_
