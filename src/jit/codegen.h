// x86-64 template JIT backend (§4.2).
//
// JitCompile translates a verified + optimized + instrumented program — the
// exact instruction stream the interpreter would execute, including Kie's
// SANITIZE/TRANSLATE/FUELCHECK pseudo-instructions and C1 terminate loads —
// into native code in an mmap'd W^X code cache. The paper's register
// discipline is mirrored: r12 is pinned to the sanitized heap base for the
// whole invocation and r9 backs the bytecode-level RAX scratch register, so
// the optimizer's GuardPlan dominance elision (one SANITIZE, many reuses)
// becomes real native register reuse.
//
// The backend is a template JIT: each bytecode instruction expands to a fixed
// native sequence; memory accesses get an inline region fast path selected by
// Kie's per-instruction region hints, with a cold out-of-line stub that calls
// back into the interpreter's shared access routine for bit-for-bit parity on
// every slow or faulting case. Anything the templates cannot express reports
// a fallback reason and the runtime quietly keeps the interpreter.
#ifndef SRC_JIT_CODEGEN_H_
#define SRC_JIT_CODEGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ebpf/insn.h"
#include "src/jit/code_cache.h"
#include "src/runtime/layout.h"

namespace kflex {

struct InstrumentedProgram;
struct JitState;
class HelperTable;
class MapRegistry;

// Which execution engine runs an extension's instrumented bytecode. The JIT's
// optimizer passes are chosen by JitOptions, not by a separate engine value.
enum class ExecEngine : uint8_t {
  kInterp = 0,  // switch-dispatch interpreter (Vm)
  kJit = 1,     // native x86-64 template JIT, interpreter fallback
};

const char* ExecEngineName(ExecEngine engine);

struct JitOptions {
  // Emit inline region fast paths for memory accesses (heap/stack/ctx).
  // When false every access goes through the out-of-line interpreter stub —
  // still native dispatch, useful for isolating fast-path bugs.
  bool fast_paths = true;
  // Test hook: refuse to compile, as if the host were unsupported.
  bool force_fallback = false;

  // ---- v2 optimizer ----
  // Master switch; the three pass knobs below only apply when set. Each pass
  // is independently disableable so the differential harness can bisect a
  // miscompile to a single pass.
  bool v2 = false;
  // Liveness-driven spill/reload at callout sites (helper calls, slow-path
  // stubs): spill only live registers, reload only live registers whose
  // caller-saved host register the callout clobbered, instead of the v1
  // spill-all/reload-all of the full register file.
  bool regalloc = true;
  // Loop preheaders: emit loop-invariant MOV+SANITIZE guard pairs once
  // before the loop, and validate + cache the heap translation for small
  // constant-offset access clusters off an invariant base (the cached host
  // pointer lives in a dead callee-saved register, so this additionally
  // requires `regalloc`; with spill-all reloads the register would be
  // clobbered at the first callout).
  bool hoist_guards = true;
  // Inline the map_lookup helper fast path (array index / hash probe)
  // directly in JIT'd code, bailing to the ordinary helper callout whenever
  // anything is observable (tracing, metrics, chaos) or unusual. Needs the
  // compile-time environment overload of JitCompile; silently off otherwise.
  bool inline_helpers = true;
};

struct JitCompileStats {
  uint64_t code_bytes = 0;    // sealed native code size
  uint64_t compile_ns = 0;    // wall time spent in JitCompile
  uint64_t insns_compiled = 0;
  uint64_t mem_sites = 0;          // memory accesses with a cold stub
  uint64_t helper_sites = 0;       // helper call sites
  uint64_t inline_fast_paths = 0;  // accesses with an inline region check
  // ---- v2 ----
  uint64_t spill_sites = 0;        // callout sites with minimized spills
  uint64_t regs_spilled = 0;       // registers spilled across all sites
  uint64_t regs_reloaded = 0;      // registers reloaded across all sites
  uint64_t regs_spilled_v1 = 0;    // what spill-all would have written
  uint64_t inline_helper_sites = 0;  // helper calls with an inline fast path
  uint64_t hoisted_guards = 0;       // MOV+SANITIZE pairs moved to preheaders
  uint64_t cached_loops = 0;         // loops with a translation cache
  uint64_t cached_accesses = 0;      // heap accesses served by a cache
  uint64_t interval_regs = 0;        // registers with a nonempty live interval
  uint64_t interval_pcs = 0;         // summed live-interval lengths
};

// A compiled extension: sealed native code plus the bytecode copy the cold
// stubs re-decode for slow-path parity. Owned by the runtime's Extension.
struct JitProgram {
  using EntryFn = void (*)(JitState*);

  std::vector<Insn> insns;  // instrumented stream (stub re-decode source)
  HeapLayout heap;          // layout baked into the code (r12, SFI imms)
  CodeBuffer code;
  EntryFn entry = nullptr;
  JitCompileStats stats;
  JitOptions opts;  // options the code was compiled under
};

struct JitCompileResult {
  std::unique_ptr<JitProgram> program;  // null → fall back to interpreter
  std::string fallback_reason;          // set when program is null
};

// True when this build can emit and execute native code (x86-64 with mmap).
bool JitHostSupported();

// Compile-time environment for helper inlining: the registered helpers (to
// find inlineable entries and their virtual costs) and the map registry (to
// resolve a statically-known map id to its layout). Both pointers may be
// null; inlining is then disabled for the passes that need them.
struct JitCompileEnv {
  const HelperTable* helpers = nullptr;
  const MapRegistry* maps = nullptr;
};

// Compiles the instrumented program. On any unsupported construct returns a
// null program with a human-readable fallback reason; never throws.
JitCompileResult JitCompile(const InstrumentedProgram& iprog,
                            const JitOptions& options);
JitCompileResult JitCompile(const InstrumentedProgram& iprog,
                            const JitOptions& options, const JitCompileEnv& env);

}  // namespace kflex

#endif  // SRC_JIT_CODEGEN_H_
