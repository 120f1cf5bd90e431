// Wall-clock microbenchmarks (google-benchmark) for the framework itself:
// interpreter dispatch, SFI sanitization, verifier and Kie throughput,
// allocator and spin-lock hot paths. These complement the simulated-time
// figure harnesses with real host-time numbers for the substrate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>

#include "bench/bench_common.h"
#include "src/obs/obs.h"
#include "src/apps/ds/ds.h"
#include "src/apps/ds/harness.h"
#include "src/apps/memcached.h"
#include "src/base/rng.h"
#include "src/ebpf/assembler.h"
#include "src/runtime/allocator.h"
#include "src/runtime/runtime.h"
#include "src/runtime/spinlock.h"
#include "src/verifier/verifier.h"

namespace kflex {
namespace {

Program TightLoopProgram(int iters) {
  Assembler a;
  a.MovImm(R2, iters);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R2, 0);
  a.AddImm(R0, 3);
  a.XorImm(R0, 7);
  a.SubImm(R2, 1);
  a.LoopEnd(loop);
  a.Exit();
  auto p = a.Finish("tight", Hook::kTracepoint, ExtensionMode::kKflex, 0);
  return std::move(p).value();
}

void BM_VmDispatch(benchmark::State& state) {
  Program p = TightLoopProgram(1024);
  VmEnv env;
  uint8_t ctx[64] = {0};
  env.ctx = ctx;
  env.ctx_size = sizeof(ctx);
  uint64_t insns = 0;
  for (auto _ : state) {
    VmResult r = VmRun(p.insns, env);
    benchmark::DoNotOptimize(r.ret);
    insns += r.insns_executed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(insns));
}
BENCHMARK(BM_VmDispatch);

void BM_SanitizedHeapStores(benchmark::State& state) {
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);  // unknown offset: guarded store
  a.MovImm(R4, 256);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R2, 0, 1);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.Exit();
  auto p = a.Finish("stores", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);

  Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  auto id = runtime.Load(*p, lo);
  uint8_t ctx[64] = {0};
  uint64_t stores = 0;
  for (auto _ : state) {
    InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    benchmark::DoNotOptimize(r.verdict);
    stores += 256;
  }
  state.SetItemsProcessed(static_cast<int64_t>(stores));
}
BENCHMARK(BM_SanitizedHeapStores);

// Guarded scatter through an unproven base inside a bounded loop: range
// analysis cannot elide these stores, but after the first store per
// iteration the optimizer's availability pass marks the rest dominated, so
// Kie skips their MOV+SANITIZE pair. Arg(0) = PR-1 pipeline (optimizer
// off), Arg(1) = optimizer on; compare wall time and the insns/invoke and
// instr_insns/invoke counters between the two.
void BM_OptimizedGuardedScatter(benchmark::State& state) {
  Assembler a;
  a.Ldx(BPF_W, R6, R1, 0);
  a.LoadHeapAddr(R7, 64);
  a.Add(R7, R6);  // unknown u32 offset: every store needs a guard
  a.MovImm(R4, 256);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R7, 0, 1);
  a.StImm(BPF_DW, R7, 8, 2);
  a.StImm(BPF_DW, R7, 16, 3);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.Exit();
  auto p = a.Finish("opt_scatter", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);

  Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  lo.optimize = state.range(0) != 0;
  auto id = runtime.Load(*p, lo);
  uint8_t ctx[64] = {0};
  uint64_t insns = 0;
  uint64_t instr_insns = 0;
  uint64_t invokes = 0;
  for (auto _ : state) {
    InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    benchmark::DoNotOptimize(r.verdict);
    insns += r.insns;
    instr_insns += r.instr_insns;
    invokes++;
  }
  state.SetItemsProcessed(static_cast<int64_t>(insns));
  state.counters["insns/invoke"] =
      benchmark::Counter(static_cast<double>(insns) / static_cast<double>(invokes));
  state.counters["instr_insns/invoke"] =
      benchmark::Counter(static_cast<double>(instr_insns) / static_cast<double>(invokes));
}
BENCHMARK(BM_OptimizedGuardedScatter)->Arg(0)->Arg(1);

// The guarded-scatter workload used across engine comparisons: 256 loop
// iterations x 3 guarded 8-byte stores through an unproven heap base.
Program GuardedScatterProgram() {
  Assembler a;
  a.Ldx(BPF_W, R6, R1, 0);
  a.LoadHeapAddr(R7, 64);
  a.Add(R7, R6);
  a.MovImm(R4, 256);
  a.MovImm(R0, 0);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R7, 0, 1);
  a.StImm(BPF_DW, R7, 8, 2);
  a.StImm(BPF_DW, R7, 16, 3);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.Exit();
  auto p = a.Finish("scatter", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);
  return std::move(p).value();
}

// The engine rows compared by BM_GuardedScatterEngine and the --json output;
// jit2 is the JIT compiled with JitOptions::v2.
struct BenchEngine {
  const char* name;
  ExecEngine engine;
  bool v2;
};
constexpr BenchEngine kBenchEngines[] = {
    {"interp", ExecEngine::kInterp, false},
    {"jit", ExecEngine::kJit, false},
    {"jit2", ExecEngine::kJit, true},
};

// Same optimized pipeline on every engine: Arg(0) = interpreter,
// Arg(1) = native JIT v1, Arg(2) = JIT v2 (regalloc + guard hoisting +
// inline helpers). The v1/interp wall-time ratio is the paper's core
// "compiled extensions" speedup on this substrate; the v2/v1 ratio is the
// optimizer's contribution on a hoistable guarded loop.
void BM_GuardedScatterEngine(benchmark::State& state) {
  Program p = GuardedScatterProgram();
  Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  const BenchEngine& engine = kBenchEngines[state.range(0)];
  lo.engine = engine.engine;
  lo.jit.v2 = engine.v2;
  auto id = runtime.Load(p, lo);
  EngineInfo info = runtime.engine_info(*id);
  if (info.used != lo.engine) {
    state.SkipWithError(("JIT fallback: " + info.fallback_reason).c_str());
    return;
  }
  uint8_t ctx[64] = {0};
  uint64_t insns = 0;
  for (auto _ : state) {
    InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    benchmark::DoNotOptimize(r.verdict);
    insns += r.insns;
  }
  state.SetItemsProcessed(static_cast<int64_t>(insns));
  state.SetLabel(engine.name);
  if (info.used != ExecEngine::kInterp) {
    state.counters["code_bytes"] =
        benchmark::Counter(static_cast<double>(info.stats.code_bytes));
  }
}
BENCHMARK(BM_GuardedScatterEngine)->Arg(0)->Arg(1)->Arg(2);

void BM_VerifierMemcached(benchmark::State& state) {
  Program p = BuildMemcachedExtension({});
  for (auto _ : state) {
    auto analysis = Verify(p, VerifyOptions{});
    benchmark::DoNotOptimize(analysis.ok());
  }
}
BENCHMARK(BM_VerifierMemcached);

void BM_KieInstrumentMemcached(benchmark::State& state) {
  Program p = BuildMemcachedExtension({});
  auto analysis = Verify(p, VerifyOptions{});
  HeapLayout layout = HeapLayout::ForSize(p.heap_size);
  for (auto _ : state) {
    auto ip = Instrument(p, *analysis, layout, KieOptions{});
    benchmark::DoNotOptimize(ip.ok());
  }
}
BENCHMARK(BM_KieInstrumentMemcached);

void BM_AllocatorAllocFree(benchmark::State& state) {
  HeapSpec spec;
  spec.size = 1 << 22;
  auto heap = ExtensionHeap::Create(spec);
  HeapAllocator alloc(heap.value().get(), 1);
  for (auto _ : state) {
    uint64_t off = alloc.Alloc(0, 96);
    benchmark::DoNotOptimize(off);
    alloc.Free(0, off);
  }
}
BENCHMARK(BM_AllocatorAllocFree);

void BM_SpinLockUncontended(benchmark::State& state) {
  alignas(8) uint64_t word = 0;
  for (auto _ : state) {
    SpinLockOps::Acquire(&word, SpinLockOps::kKernelOwner, nullptr);
    SpinLockOps::Release(&word);
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_HashMapLookupWallTime(benchmark::State& state) {
  Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
  auto ds = DsInstance::Create(runtime, BuildHashMap);
  for (uint64_t i = 1; i <= 4096; i++) {
    ds->Update(i, i);
  }
  Rng rng(1);
  for (auto _ : state) {
    auto v = ds->Lookup(1 + rng.NextBounded(4096));
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_HashMapLookupWallTime);

void BM_MemcachedGetWallTime(benchmark::State& state) {
  MockKernel kernel;
  auto driver = KflexMemcachedDriver::Create(kernel);
  for (uint64_t i = 0; i < 1024; i++) {
    driver->Set(0, i, "benchvalue");
  }
  Rng rng(2);
  for (auto _ : state) {
    auto r = driver->Get(0, rng.NextBounded(1024));
    benchmark::DoNotOptimize(r.hit);
  }
}
BENCHMARK(BM_MemcachedGetWallTime);

// With --json <path>, times the guarded-scatter workload per engine with a
// plain chrono loop (outside google-benchmark, so the rows are deterministic
// in shape) and writes machine-readable results including the static guard
// counts and compiled-code size.
int WriteEngineJson(const std::string& path) {
  BenchJson json;
  Program p = GuardedScatterProgram();
  for (const BenchEngine& engine : kBenchEngines) {
    Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
    LoadOptions lo;
    lo.heap_static_bytes = 128;
    lo.engine = engine.engine;
    lo.jit.v2 = engine.v2;
    auto id = runtime.Load(p, lo);
    if (!id.ok()) {
      std::fprintf(stderr, "load failed: %s\n", id.status().ToString().c_str());
      return 1;
    }
    EngineInfo info = runtime.engine_info(*id);
    // A JIT row that fell back is recorded as an interp row.
    const char* label = info.used == engine.engine ? engine.name : ExecEngineName(info.used);
    if (info.used != engine.engine) {
      std::fprintf(stderr, "note: JIT fell back to the interpreter (%s); "
                   "recording interpreter timings for the %s row\n",
                   info.fallback_reason.c_str(), engine.name);
    }
    const KieStats& ks = runtime.instrumented(*id).stats;
    uint8_t ctx[64] = {0};
    // Warm up (populates heap pages, faults in code), then measure.
    for (int i = 0; i < 50; i++) {
      runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    }
    constexpr int kOps = 2000;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; i++) {
      InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
      benchmark::DoNotOptimize(r.verdict);
    }
    auto t1 = std::chrono::steady_clock::now();
    double ns_per_op =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        kOps;
    auto& row = json.Add("guarded_scatter", label, ns_per_op);
    row.fields.emplace_back("guards_emitted", static_cast<int64_t>(ks.guards_emitted));
    row.fields.emplace_back("guards_elided", static_cast<int64_t>(ks.guards_elided));
    row.fields.emplace_back("guards_dominated", static_cast<int64_t>(ks.guards_dominated));
    row.fields.emplace_back("code_bytes", static_cast<int64_t>(info.stats.code_bytes));
    if (info.used == ExecEngine::kJit && engine.v2) {
      row.fields.emplace_back("hoisted_guards",
                              static_cast<int64_t>(info.stats.hoisted_guards));
      row.fields.emplace_back("cached_loops",
                              static_cast<int64_t>(info.stats.cached_loops));
      row.fields.emplace_back("cached_accesses",
                              static_cast<int64_t>(info.stats.cached_accesses));
      row.fields.emplace_back("regs_spilled",
                              static_cast<int64_t>(info.stats.regs_spilled));
      row.fields.emplace_back("regs_spilled_v1",
                              static_cast<int64_t>(info.stats.regs_spilled_v1));
      row.fields.emplace_back("inline_helper_sites",
                              static_cast<int64_t>(info.stats.inline_helper_sites));
    }
    std::printf("json row: workload=guarded_scatter engine=%s ns/op=%.1f\n", label,
                ns_per_op);
  }
  if (!json.Write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// With --obs-json <path>, times the same guarded-scatter workload per engine
// with observability fully off (the shipping default: one relaxed atomic
// load per hook) and fully on (tracing + metrics). The obs_off rows are the
// "observability costs nothing when unused" contract: they must stay within
// 2% of the BENCH_jit.json engine baselines (checked in as BENCH_obs.json;
// see docs/observability.md).
int WriteObsJson(const std::string& path) {
  BenchJson json;
  Program p = GuardedScatterProgram();
  for (int engine = 0; engine < 2; engine++) {
    Runtime runtime{RuntimeOptions{1, 1'000'000'000ULL}};
    LoadOptions lo;
    lo.heap_static_bytes = 128;
    lo.engine = engine != 0 ? ExecEngine::kJit : ExecEngine::kInterp;
    auto id = runtime.Load(p, lo);
    if (!id.ok()) {
      std::fprintf(stderr, "load failed: %s\n", id.status().ToString().c_str());
      return 1;
    }
    EngineInfo info = runtime.engine_info(*id);
    uint8_t ctx[64] = {0};
    for (int i = 0; i < 50; i++) {
      runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    }
    // The off/on delta being measured is a couple of percent — far below the
    // noise floor of a shared host. Alternate short off/on windows (so both
    // states sample identical frequency/steal conditions) and keep the
    // minimum per state: the best estimator of the noise-free cost.
    constexpr int kOps = 1000;
    constexpr int kWindows = 40;  // 20 per state, interleaved
    double best[2] = {0.0, 0.0};
    for (int w = 0; w < kWindows; w++) {
      const int obs = w & 1;
      std::optional<ScopedObsEnable> enabled;
      if (obs != 0) {
        enabled.emplace(/*trace=*/true, /*metrics=*/true);
      }
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kOps; i++) {
        InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
        benchmark::DoNotOptimize(r.verdict);
      }
      auto t1 = std::chrono::steady_clock::now();
      double window_ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
          kOps;
      if (best[obs] == 0.0 || window_ns < best[obs]) {
        best[obs] = window_ns;
      }
    }
    for (int obs = 0; obs < 2; obs++) {
      auto& row = json.Add(obs != 0 ? "guarded_scatter_obs_on" : "guarded_scatter_obs_off",
                           ExecEngineName(info.used), best[obs]);
      row.fields.emplace_back("trace_enabled", obs);
      row.fields.emplace_back("metrics_enabled", obs);
      std::printf("json row: workload=%s engine=%s ns/op=%.1f\n",
                  obs != 0 ? "guarded_scatter_obs_on" : "guarded_scatter_obs_off",
                  ExecEngineName(info.used), best[obs]);
    }
  }
  if (!json.Write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace kflex

int main(int argc, char** argv) {
  std::string json_path = kflex::ExtractJsonFlag(&argc, argv);
  std::string obs_json_path = kflex::ExtractFlagValue(&argc, argv, "--obs-json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (!json_path.empty()) {
    return kflex::WriteEngineJson(json_path);
  }
  if (!obs_json_path.empty()) {
    return kflex::WriteObsJson(obs_json_path);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
