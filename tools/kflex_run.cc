// kflex_run: load and execute a .kasm extension through the full pipeline,
// or drive a built-in production scenario.
//
//   kflex_run FILE.kasm [--dump] [--invoke N] [--ctx BYTE...]
//             [--engine interp|jit|jit2] [--jit-stats] [--fault point:spec]...
//   kflex_run --scenario=lb|ddos|traceagg|tenants [--invoke N] [--engine E]
//             [--metrics=json] [--trace=FILE]
//
//   --dump       print the verified program and its instrumented form
//   --invoke N   run the extension N times (default 1)
//   --ctx HEX    fill the leading context bytes from a hex string
//   --engine E   execution engine: interp (default), jit (native x86-64;
//                falls back to the interpreter on unsupported hosts), or
//                jit2 (the JIT with JitOptions::v2: register allocation,
//                helper inlining and loop-guard hoisting; see docs/jit.md)
//   --jit-stats  print compile statistics / fallback reason after loading
//   --fault F    arm deterministic fault injection; F is "point:spec" (see
//                docs/faults.md, e.g. heap.pagein:nth=3) or "list" to print
//                the registered fault points and exit. Repeatable. Prints
//                per-point hit/fail counters and the post-run invariant
//                sweep after the invocations.
//   --metrics=json  enable the metrics registry for the whole run and print
//                the observability snapshot as JSON after the invocations
//                (the stable schema kflex-top consumes; docs/observability.md)
//   --concurrency-report  print the shard-safety certificate computed at
//                load (docs/concurrency.md): the safety class gating
//                concurrent dispatch, the shared-state access counters, each
//                concurrency finding, and the lock-acquisition edges
//   --trace=FILE  enable the trace rings and write the resident events as
//                text to FILE after the run ("-" = stdout)
//   --shards=N   dispatch the invocations through the sharded runtime
//                (docs/sharding.md) with N worker shards instead of the mock
//                kernel: placement is gated by the shard-safety certificate,
//                requests are steered by the ctx flow hash, and
//                --metrics=json grows a "shards" array with the per-shard
//                dispatcher counters (rendered by kflex-top)
//   --scenario=S run a built-in production scenario instead of a .kasm file
//                (docs/scenarios.md): "lb" (Katran-style L4 load balancer),
//                "ddos" (SYN-flood filter + token-bucket rate limiter),
//                "traceagg" (tracepoint latency aggregator) drive --invoke N
//                synthetic events through the extension on the mock kernel;
//                "tenants" runs the multi-tenant SLO simulation (all of the
//                above plus an adversarial neighbor in one sharded runtime)
//
// Exit code: 0 on success, 1 on load/verification failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/netfn/netfn.h"
#include "src/ebpf/text_asm.h"
#include "src/fault/fault.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/obs/obs.h"
#include "src/shard/shard.h"
#include "src/shard/steering.h"
#include "src/sim/tenants.h"

using namespace kflex;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kflex_run FILE.kasm [--dump] [--invoke N] [--ctx HEX]\n"
               "                 [--engine interp|jit|jit2] [--jit-stats]\n"
               "                 [--fault point:spec | --fault list]...\n"
               "                 [--metrics=json] [--trace=FILE] [--concurrency-report]\n"
               "                 [--shards N]\n"
               "       kflex_run --scenario=lb|ddos|traceagg|tenants [--invoke N]\n"
               "                 [--engine interp|jit|jit2] [--metrics=json] [--trace=FILE]\n");
  return 1;
}

// The CLI name of an engine: jit2 is the JIT compiled with JitOptions::v2.
const char* EngineName(ExecEngine engine, const JitOptions& jit) {
  return engine == ExecEngine::kJit && jit.v2 ? "jit2" : ExecEngineName(engine);
}

// Writes the resident trace events as text to `trace_path` ("-" = stdout).
int DumpTrace(const std::string& trace_path) {
  FILE* out = stdout;
  if (trace_path != "-") {
    out = std::fopen(trace_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "kflex_run: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  for (const TraceEvent& e : Obs::Instance().SnapshotTrace()) {
    const ObsEventDef* def = FindObsEvent(e.code);
    std::fprintf(out, "ts=%llu cpu=%u ext=%u %s %s=%llu %s=%llu\n",
                 static_cast<unsigned long long>(e.ts_ns), e.cpu, e.ext,
                 def != nullptr ? def->name : "?",
                 def != nullptr ? def->arg0 : "a0",
                 static_cast<unsigned long long>(e.a0),
                 def != nullptr ? def->arg1 : "a1",
                 static_cast<unsigned long long>(e.a1));
  }
  std::fprintf(out, "# dropped=%llu emitted=%llu\n",
               static_cast<unsigned long long>(Obs::Instance().TraceDropped()),
               static_cast<unsigned long long>(Obs::Instance().TraceEmitted()));
  if (out != stdout) {
    std::fclose(out);
  }
  return 0;
}

// Prints the metrics snapshot JSON; `shards_json` (optional) is spliced in as
// a top-level "shards" array. The document starts at the first line that is
// exactly "{"; kflex-top skips any leading human-readable lines.
void PrintMetricsDoc(std::string doc, const std::string& shards_json) {
  if (!shards_json.empty()) {
    size_t brace = doc.rfind('}');
    if (brace != std::string::npos) {
      doc.insert(brace, ",\n  \"shards\": " + shards_json + "\n");
    }
  }
  std::printf("%s", doc.c_str());
}

// --scenario=lb|ddos|traceagg: one netfn extension on the mock kernel fed
// with --invoke N deterministic synthetic events.
int RunNetfnScenario(const std::string& scenario, int invocations,
                     const EngineChoice& choice, bool metrics_json, bool trace_on,
                     const std::string& trace_path) {
  MockKernel kernel;
  int rc = 0;
  if (scenario == "lb") {
    auto driver = L4LoadBalancerDriver::Create(kernel, 8, KieOptions{}, choice);
    if (!driver.ok()) {
      std::fprintf(stderr, "kflex_run: lb scenario: %s\n",
                   driver.status().ToString().c_str());
      return 1;
    }
    uint64_t tx = 0;
    for (int i = 0; i < invocations; i++) {
      // 32 flows cycling: every flow after its first packet is an affinity hit.
      uint32_t flow = static_cast<uint32_t>(i % 32);
      auto d = (*driver)->Route(0, 0x0A000000u | flow,
                                static_cast<uint16_t>(1024 + flow), 443, kProtoUdp);
      if (d.result.verdict == kXdpTx) {
        tx++;
      }
    }
    std::printf("lb: %d packet(s), %llu tx, affinity hits=%llu misses=%llu "
                "no-backend drops=%llu\n",
                invocations, static_cast<unsigned long long>(tx),
                static_cast<unsigned long long>((*driver)->AffinityHits()),
                static_cast<unsigned long long>((*driver)->AffinityMisses()),
                static_cast<unsigned long long>((*driver)->NoBackendDrops()));
  } else if (scenario == "ddos") {
    auto driver = DdosGuardDriver::Create(kernel, GuardConfig{}, KieOptions{}, choice);
    if (!driver.ok()) {
      std::fprintf(stderr, "kflex_run: ddos scenario: %s\n",
                   driver.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < invocations; i++) {
      uint32_t src = 0xC6336400u | static_cast<uint32_t>(i % 8);
      (*driver)->Deliver(0, src, i % 4 == 0 ? kProtoTcp : kProtoUdp,
                         static_cast<uint64_t>(i) * 800);
    }
    std::printf("ddos: %d packet(s), passed=%llu syn drops=%llu rate drops=%llu\n",
                invocations, static_cast<unsigned long long>((*driver)->Passed()),
                static_cast<unsigned long long>((*driver)->SynDrops()),
                static_cast<unsigned long long>((*driver)->RateDrops()));
  } else {  // traceagg
    auto driver = TraceAggDriver::Create(kernel, KieOptions{}, choice);
    if (!driver.ok()) {
      std::fprintf(stderr, "kflex_run: traceagg scenario: %s\n",
                   driver.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < invocations; i++) {
      (*driver)->Record(0, static_cast<uint32_t>(i % TraceAggLayout::kKinds),
                        100 + static_cast<uint64_t>(i) * 7);
    }
    for (int k = 0; k < TraceAggLayout::kKinds; k++) {
      std::printf("traceagg: kind %d count=%llu sum=%llu ns\n", k,
                  static_cast<unsigned long long>((*driver)->Count(static_cast<uint32_t>(k))),
                  static_cast<unsigned long long>((*driver)->Sum(static_cast<uint32_t>(k))));
    }
  }
  if (trace_on) {
    rc = DumpTrace(trace_path);
  }
  if (metrics_json) {
    PrintMetricsDoc(ObsSnapshotToJson(kernel.runtime().SnapshotMetrics()), "");
  }
  return rc;
}

// --scenario=tenants: the multi-tenant SLO simulation (src/sim/tenants.h).
int RunTenantsScenario(int invocations, const EngineChoice& engine, bool metrics_json,
                       bool trace_on, const std::string& trace_path) {
  TenantScenarioConfig config;
  config.num_shards = 2;
  config.total_requests = invocations > 1 ? static_cast<uint64_t>(invocations) : 4000;
  config.window = 128;
  config.adversary_period = 16;
  config.fuel_quantum_insns = 4000;
  config.engine = engine;
  auto result = RunTenantScenario(config);
  if (!result.ok()) {
    std::fprintf(stderr, "kflex_run: tenants scenario: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const TenantSlo& slo : result->tenants) {
    std::printf("tenant %-16s %-14s %-10s p50=%llu ns p99=%llu ns "
                "completed=%llu cancelled=%llu rejected=%llu drops=%llu\n",
                slo.name.c_str(), slo.shard_safety.c_str(),
                slo.replicated ? "replicated" : "pinned",
                static_cast<unsigned long long>(slo.p50_ns),
                static_cast<unsigned long long>(slo.p99_ns),
                static_cast<unsigned long long>(slo.completed),
                static_cast<unsigned long long>(slo.cancelled),
                static_cast<unsigned long long>(slo.rejected),
                static_cast<unsigned long long>(slo.verdict_drops));
  }
  int rc = trace_on ? DumpTrace(trace_path) : 0;
  if (metrics_json) {
    // Already carries the spliced "shards" array.
    std::printf("%s", result->metrics_json.c_str());
  }
  return rc;
}

bool ParseHex(const std::string& hex, uint8_t* out, size_t max) {
  if (hex.size() % 2 != 0 || hex.size() / 2 > max) {
    return false;
  }
  for (size_t i = 0; i < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') {
        return c - '0';
      }
      if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
      }
      if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
      }
      return -1;
    };
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out[i / 2] = static_cast<uint8_t>(hi << 4 | lo);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string path;
  int argstart = 1;
  if (argv[1][0] != '-') {
    path = argv[1];
    argstart = 2;
  }
  bool dump = false;
  bool jit_stats = false;
  int invocations = 1;
  std::string ctx_hex;
  std::string scenario;
  EngineChoice engine;
  std::vector<std::string> fault_specs;
  bool metrics_json = false;
  bool concurrency_report = false;
  bool trace_on = false;
  int num_shards = 0;  // 0: classic mock-kernel path
  std::string trace_path;
  for (int i = argstart; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--dump") {
      dump = true;
    } else if (arg == "--fault" || arg.rfind("--fault=", 0) == 0) {
      std::string f;
      if (arg == "--fault") {
        if (i + 1 >= argc) {
          return Usage();
        }
        f = argv[++i];
      } else {
        f = arg.substr(std::strlen("--fault="));
      }
      if (f == "list") {
        for (const std::string& name : FaultRegistry::Instance().Names()) {
          std::printf("%s\n", name.c_str());
        }
        return 0;
      }
      fault_specs.push_back(std::move(f));
    } else if (arg == "--invoke" && i + 1 < argc) {
      invocations = std::atoi(argv[++i]);
    } else if (arg == "--ctx" && i + 1 < argc) {
      ctx_hex = argv[++i];
    } else if (arg == "--engine" || arg.rfind("--engine=", 0) == 0) {
      std::string e;
      if (arg == "--engine") {
        if (i + 1 >= argc) {
          return Usage();
        }
        e = argv[++i];
      } else {
        e = arg.substr(std::strlen("--engine="));
      }
      if (e == "interp" || e == "jit" || e == "jit2") {
        engine.engine = e == "interp" ? ExecEngine::kInterp : ExecEngine::kJit;
        engine.jit.v2 = e == "jit2";
      } else {
        std::fprintf(stderr, "kflex_run: unknown engine '%s'\n", e.c_str());
        return Usage();
      }
    } else if (arg == "--jit-stats") {
      jit_stats = true;
    } else if (arg == "--shards" || arg.rfind("--shards=", 0) == 0) {
      std::string n;
      if (arg == "--shards") {
        if (i + 1 >= argc) {
          return Usage();
        }
        n = argv[++i];
      } else {
        n = arg.substr(std::strlen("--shards="));
      }
      num_shards = std::atoi(n.c_str());
      if (num_shards < 1) {
        std::fprintf(stderr, "kflex_run: bad --shards '%s'\n", n.c_str());
        return Usage();
      }
    } else if (arg == "--scenario" || arg.rfind("--scenario=", 0) == 0) {
      if (arg == "--scenario") {
        if (i + 1 >= argc) {
          return Usage();
        }
        scenario = argv[++i];
      } else {
        scenario = arg.substr(std::strlen("--scenario="));
      }
      if (scenario != "lb" && scenario != "ddos" && scenario != "traceagg" &&
          scenario != "tenants") {
        std::fprintf(stderr, "kflex_run: unknown scenario '%s'\n", scenario.c_str());
        return Usage();
      }
    } else if (arg == "--metrics" || arg == "--metrics=json") {
      metrics_json = true;
    } else if (arg == "--concurrency-report") {
      concurrency_report = true;
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      if (arg == "--trace") {
        if (i + 1 >= argc) {
          return Usage();
        }
        trace_path = argv[++i];
      } else {
        trace_path = arg.substr(std::strlen("--trace="));
      }
      trace_on = true;
    } else {
      return Usage();
    }
  }

  // Enable before the load so pipeline events (verifier decision, Kie stats,
  // load-time page-ins, JIT compile) land in the snapshot too.
  if (metrics_json) {
    Obs::Instance().EnableMetrics(true);
  }
  if (trace_on) {
    Obs::Instance().EnableTrace(true);
  }

  if (!scenario.empty()) {
    if (!path.empty()) {
      std::fprintf(stderr, "kflex_run: --scenario does not take a .kasm file\n");
      return Usage();
    }
    if (scenario == "tenants") {
      return RunTenantsScenario(invocations, engine, metrics_json, trace_on, trace_path);
    }
    return RunNetfnScenario(scenario, invocations, engine, metrics_json, trace_on,
                            trace_path);
  }
  if (path.empty()) {
    return Usage();
  }

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "kflex_run: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto program = ParseTextProgram(buffer.str());
  if (!program.ok()) {
    std::fprintf(stderr, "kflex_run: parse error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed '%s': %zu insns, hook=%s, heap=%llu\n", program->name.c_str(),
              program->size(), HookName(program->hook),
              static_cast<unsigned long long>(program->heap_size));

  RuntimeOptions runtime_options;
  for (const std::string& spec : fault_specs) {
    // Validate here for a friendly message; the runtime re-arms (idempotent)
    // and would abort on a bad spec.
    Status st = FaultRegistry::Instance().ArmSpec(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "kflex_run: bad --fault '%s': %s\n", spec.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    runtime_options.fault_specs.push_back(spec);
  }
  LoadOptions load_options;
  load_options.engine = engine.engine;
  load_options.jit = engine.jit;

  std::unique_ptr<MockKernel> kernel;
  std::unique_ptr<ShardedRuntime> sharded;
  Runtime* rt = nullptr;
  ExtensionId id = 0;     // the loaded extension (home replica when sharded)
  ShardExtId sharded_id = 0;
  if (num_shards > 0) {
    ShardedRuntimeOptions shard_options;
    shard_options.num_shards = num_shards;
    shard_options.runtime = runtime_options;
    sharded = std::make_unique<ShardedRuntime>(shard_options);
    rt = &sharded->runtime();
    auto sid = sharded->Load(*program, load_options);
    if (!sid.ok()) {
      std::fprintf(stderr, "kflex_run: load rejected: %s\n",
                   sid.status().ToString().c_str());
      return 1;
    }
    sharded_id = *sid;
    const ShardPlacement& place = sharded->placement(sharded_id);
    id = place.replicas[place.replicated ? static_cast<size_t>(place.home_shard) : 0];
    std::printf("sharded: %d shard(s), certificate=%s, %s (home shard %d, %zu replica%s)\n",
                num_shards, ShardSafetyName(place.safety),
                place.replicated ? "replicated" : "pinned", place.home_shard,
                place.replicas.size(), place.replicas.size() == 1 ? "" : "s");
  } else {
    kernel = std::make_unique<MockKernel>(runtime_options);
    rt = &kernel->runtime();
    auto loaded = rt->Load(*program, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "kflex_run: load rejected: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    id = *loaded;
  }
  const InstrumentedProgram& ip = rt->instrumented(id);
  std::printf(
      "verified + instrumented: %zu insns out, %zu guards (%zu elided), %zu formation, "
      "%zu cancellation points\n",
      ip.stats.insns_out, ip.stats.guards_emitted, ip.stats.guards_elided,
      ip.stats.formation_guards, ip.stats.cancellation_points);
  EngineInfo ei = rt->engine_info(id);
  std::printf("engine: requested=%s used=%s\n", EngineName(ei.requested, engine.jit),
              EngineName(ei.used, engine.jit));
  if (jit_stats) {
    if (ei.used == ExecEngine::kJit) {
      std::printf(
          "jit: %llu code bytes, compiled %llu insns in %.1f us, %llu mem sites "
          "(%llu inline fast paths), %llu helper sites\n",
          static_cast<unsigned long long>(ei.stats.code_bytes),
          static_cast<unsigned long long>(ei.stats.insns_compiled),
          static_cast<double>(ei.stats.compile_ns) / 1000.0,
          static_cast<unsigned long long>(ei.stats.mem_sites),
          static_cast<unsigned long long>(ei.stats.inline_fast_paths),
          static_cast<unsigned long long>(ei.stats.helper_sites));
      if (engine.jit.v2) {
        std::printf(
            "jit2: regalloc %llu live regs over %llu interval pcs, %llu callout "
            "sites spilled %llu regs (v1 would spill %llu), reloaded %llu\n",
            static_cast<unsigned long long>(ei.stats.interval_regs),
            static_cast<unsigned long long>(ei.stats.interval_pcs),
            static_cast<unsigned long long>(ei.stats.spill_sites),
            static_cast<unsigned long long>(ei.stats.regs_spilled),
            static_cast<unsigned long long>(ei.stats.regs_spilled_v1),
            static_cast<unsigned long long>(ei.stats.regs_reloaded));
        std::printf(
            "jit2: %llu inline helper sites, %llu hoisted guards, %llu cached "
            "loops\n",
            static_cast<unsigned long long>(ei.stats.inline_helper_sites),
            static_cast<unsigned long long>(ei.stats.hoisted_guards),
            static_cast<unsigned long long>(ei.stats.cached_loops));
      }
    } else if (ei.requested == ExecEngine::kJit) {
      std::printf("jit: fell back to interpreter: %s\n", ei.fallback_reason.c_str());
    } else {
      std::printf("jit: not requested\n");
    }
  }
  if (concurrency_report) {
    // The certificate computed at load (docs/concurrency.md): what the
    // sharded dispatcher consults before running invocations concurrently.
    const ConcurrencyReport& c = ip.concurrency;
    std::printf("concurrency: certificate=%s (engine_info: %s)\n", ShardSafetyName(c.safety),
                ShardSafetyName(ei.shard_safety));
    std::printf(
        "concurrency: %zu map access(es) (%zu unprotected), %zu heap access(es) "
        "(%zu unprotected), %zu atomic, %zu lock-protected, %zu lock-order edge(s)\n",
        c.map_accesses, c.unprotected_map_accesses, c.heap_accesses,
        c.unprotected_heap_accesses, c.atomic_accesses, c.locked_accesses, c.edges.size());
    for (const ConcurrencyFinding& f : c.findings) {
      std::printf("concurrency: pc %zu: [%s] %s\n", f.pc, ConcurrencyFindingKindName(f.kind),
                  f.message.c_str());
    }
    for (const LockOrderEdge& e : c.edges) {
      std::printf("concurrency: lock-order edge: heap offset %llu -> %llu (insn %zu)\n",
                  static_cast<unsigned long long>(e.from),
                  static_cast<unsigned long long>(e.to), e.pc);
    }
  }
  if (dump) {
    std::printf("---- verified program ----\n%s", ProgramToString(*program).c_str());
    std::printf("---- instrumented program ----\n%s", ProgramToString(ip.program).c_str());
  }
  if (sharded != nullptr || kernel->Attach(id).ok()) {
    uint8_t ctx[kCtxSize] = {0};
    if (!ctx_hex.empty() && !ParseHex(ctx_hex, ctx, sizeof(ctx))) {
      std::fprintf(stderr, "kflex_run: bad --ctx hex\n");
      return 1;
    }
    for (int i = 0; i < invocations; i++) {
      InvokeResult r;
      if (sharded != nullptr) {
        // Steer the way the dispatcher would: by the ctx flow hash (KV key
        // bytes when present, else the packet 5-tuple).
        r = sharded->InvokeSync(sharded_id, ShardHashKvCtx(ctx, sizeof(ctx)), ctx,
                                sizeof(ctx));
      } else {
        r = kernel->Deliver(program->hook, 0, ctx, sizeof(ctx));
      }
      std::printf("invocation %d: verdict=%lld insns=%llu%s\n", i + 1,
                  static_cast<long long>(r.verdict), static_cast<unsigned long long>(r.insns),
                  r.cancelled ? " (CANCELLED)" : "");
      if (r.cancelled) {
        break;
      }
    }
  }
  if (!fault_specs.empty()) {
    for (const FaultRegistry::PointStats& ps : FaultRegistry::Instance().Stats()) {
      if (!ps.armed) {
        continue;
      }
      std::printf("fault %s:%s hits=%llu fails=%llu\n", ps.name.c_str(), ps.policy.c_str(),
                  static_cast<unsigned long long>(ps.hits),
                  static_cast<unsigned long long>(ps.fails));
    }
    InvariantReport sweep = rt->SweepInvariants(id);
    std::printf("invariant sweep: %s\n", sweep.ToString().c_str());
  }
  if (trace_on && DumpTrace(trace_path) != 0) {
    return 1;
  }
  if (metrics_json) {
    // The "shards" splice is additive: the kflex-top schema check treats the
    // array as optional.
    PrintMetricsDoc(ObsSnapshotToJson(rt->SnapshotMetrics()),
                    sharded != nullptr ? sharded->StatsJson() : std::string());
  }
  return 0;
}
