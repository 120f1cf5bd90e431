// The engine rows the cross-engine suites (chaos matrix, golden traces) run
// every workload under: the reference interpreter (optimizer off), the
// optimized interpreter, the JIT, and the JIT with its v2 optimizer passes.
#ifndef TESTS_ENGINE_CONFIGS_H_
#define TESTS_ENGINE_CONFIGS_H_

#include <vector>

#include "src/runtime/runtime.h"

namespace kflex {

struct EngineConfig {
  const char* name;
  EngineChoice choice;
};

inline std::vector<EngineConfig> Engines() {
  // fast_paths=false sends every JIT memory access through the
  // interpreter-shared translation stub, so heap fault points and heap trace
  // events fire on the interpreter's schedule.
  JitOptions jit;
  jit.fast_paths = false;
  // The v2 row arms every optimizer pass. Tracing, metrics, a helper-trace
  // sink, or an armed helper.ret_err / map.update fault sets the compiled
  // program's slow_flags, so every inline helper site bails to the
  // interpreter-shared callout stub and helper events keep their schedule too.
  JitOptions jit2 = jit;
  jit2.v2 = true;
  return {
      {"ref-interp", {/*optimize=*/false, ExecEngine::kInterp, {}}},
      {"opt-interp", {/*optimize=*/true, ExecEngine::kInterp, {}}},
      {"jit", {/*optimize=*/true, ExecEngine::kJit, jit}},
      {"jit2", {/*optimize=*/true, ExecEngine::kJit, jit2}},
  };
}

}  // namespace kflex

#endif  // TESTS_ENGINE_CONFIGS_H_
