// Golden-trace regression test: the *semantic* observability event stream —
// helper calls, demand page-ins, guard trips, cancellations — must be
// byte-identical across the four engine rows of tests/engine_configs.h
// (reference interpreter, optimized interpreter, JIT v1, JIT v2) for the same
// workload, and must match the checked-in golden file
// tests/golden/trace_events.txt. Engine-tagged
// pipeline events (jit.compile, jit.fallback, verifier/kie summaries) are
// excluded by construction: only events emitted on engine-shared slow paths
// participate.
//
// Regenerate the golden after an intentional semantic change with:
//   ./golden_trace_test --regen
// and review the diff like any other behavior change.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/memcached.h"
#include "src/apps/netfn/netfn.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/obs/obs.h"
#include "tests/engine_configs.h"

namespace kflex {
namespace {

bool g_regen = false;

// Projects the raw trace onto the engine-independent subset. Fields that are
// legitimately pipeline-dependent are dropped: the unwind pc moves when the
// optimizer reshapes the program, and obs extension ids depend on process
// history, so neither may appear in a golden line.
std::vector<std::string> Normalize(const std::vector<TraceEvent>& trace) {
  std::vector<std::string> out;
  char buf[128];
  for (const TraceEvent& e : trace) {
    switch (static_cast<ObsEvent>(e.code)) {
      case ObsEvent::kHelperCall:
        std::snprintf(buf, sizeof(buf), "helper.call id=%llu",
                      static_cast<unsigned long long>(e.a0));
        break;
      case ObsEvent::kHeapPageIn:
        std::snprintf(buf, sizeof(buf), "heap.pagein first=%llu n=%llu",
                      static_cast<unsigned long long>(e.a0),
                      static_cast<unsigned long long>(e.a1));
        break;
      case ObsEvent::kHeapGuardTrip:
        std::snprintf(buf, sizeof(buf), "heap.guard_trip kind=%llu va=0x%llx",
                      static_cast<unsigned long long>(e.a0),
                      static_cast<unsigned long long>(e.a1));
        break;
      case ObsEvent::kCancelRequested:
        std::snprintf(buf, sizeof(buf), "cancel.requested");
        break;
      case ObsEvent::kCancelUnwound:
        std::snprintf(buf, sizeof(buf), "cancel.unwound released=%llu",
                      static_cast<unsigned long long>(e.a1));
        break;
      default:
        continue;  // engine-tagged or non-semantic event
    }
    out.push_back(buf);
  }
  return out;
}

// ---- workload 1: guarded scatter + map counter ------------------------------

Program ScatterProgram(uint32_t map_id) {
  Assembler a;
  a.Mov(R9, R1);
  a.StImm(BPF_W, R10, -4, 0);
  a.StImm(BPF_DW, R10, -16, 1);
  a.LoadMapPtr(R1, map_id);
  a.Mov(R2, R10);
  a.AddImm(R2, -4);
  a.Mov(R3, R10);
  a.AddImm(R3, -16);
  a.MovImm(R4, 0);
  a.Call(kHelperMapUpdateElem);
  a.Ldx(BPF_W, R6, R9, 0);
  a.LoadHeapAddr(R7, 64);
  a.Add(R7, R6);
  a.MovImm(R4, 64);
  auto loop = a.LoopBegin();
  a.LoopBreakIfImm(loop, BPF_JEQ, R4, 0);
  a.StImm(BPF_DW, R7, 0, 1);
  a.StImm(BPF_DW, R7, 8, 2);
  a.StImm(BPF_DW, R7, 16, 3);
  a.SubImm(R4, 1);
  a.LoopEnd(loop);
  a.MovImm(R0, 1);
  a.Exit();
  auto p = a.Finish("golden_scatter", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

std::vector<std::string> RunScatter(const EngineConfig& engine) {
  ScopedObsEnable obs(/*trace=*/true, /*metrics=*/false);
  RuntimeOptions opts;
  opts.num_cpus = 1;
  Runtime runtime{opts};
  auto desc = runtime.maps().CreateArray(4, 8, 8);
  EXPECT_TRUE(desc.ok());
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  lo.optimize = engine.choice.optimize;
  lo.engine = engine.choice.engine;
  lo.jit = engine.choice.jit;
  auto id = runtime.Load(ScatterProgram(desc->id), lo);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  uint8_t ctx[64] = {0};
  for (int i = 0; i < 4; i++) {
    ctx[0] = static_cast<uint8_t>(i * 8);  // sweep the scatter base
    InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
    EXPECT_FALSE(r.cancelled);
  }
  return Normalize(Obs::Instance().SnapshotTrace());
}

// ---- workload 2: memcached GET/SET over the XDP hook ------------------------

std::vector<std::string> RunMemcached(const EngineConfig& engine) {
  ScopedObsEnable obs(/*trace=*/true, /*metrics=*/false);
  RuntimeOptions opts;
  opts.num_cpus = 1;
  MockKernel kernel(opts);
  auto drv = KflexMemcachedDriver::Create(kernel, {}, {}, engine.choice);
  EXPECT_TRUE(drv.ok()) << drv.status().ToString();
  EXPECT_TRUE(drv->Set(0, 1, "hello").served);
  auto get_hit = drv->Get(0, 1);
  EXPECT_TRUE(get_hit.hit);
  EXPECT_EQ(get_hit.value, "hello");
  EXPECT_FALSE(drv->Get(0, 2).hit);  // miss
  EXPECT_TRUE(drv->Set(0, 2, "a-second-value").served);
  EXPECT_TRUE(drv->Get(0, 2).hit);
  return Normalize(Obs::Instance().SnapshotTrace());
}

// ---- workload 3: page-fault probe (guard trip + cancellation unwind) --------

std::vector<std::string> RunPageFault(const EngineConfig& engine) {
  ScopedObsEnable obs(/*trace=*/true, /*metrics=*/false);
  RuntimeOptions opts;
  opts.num_cpus = 1;
  Runtime runtime{opts};
  Assembler a;
  a.LoadHeapAddr(R2, 512 * 1024);  // never populated: kNotPresent
  a.Ldx(BPF_DW, R3, R2, 0);
  a.MovImm(R0, 0);
  a.Exit();
  auto p = a.Finish("golden_pagefault", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 20);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  LoadOptions lo;
  lo.optimize = engine.choice.optimize;
  lo.engine = engine.choice.engine;
  lo.jit = engine.choice.jit;
  auto id = runtime.Load(*p, lo);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  uint8_t ctx[64] = {0};
  InvokeResult r = runtime.Invoke(*id, 0, ctx, sizeof(ctx));
  EXPECT_TRUE(r.cancelled);
  return Normalize(Obs::Instance().SnapshotTrace());
}

// ---- workload 4: L4 load balancer (affinity miss -> ring probe -> hit) ------

std::vector<std::string> RunNetfnLb(const EngineConfig& engine) {
  ScopedObsEnable obs(/*trace=*/true, /*metrics=*/false);
  RuntimeOptions opts;
  opts.num_cpus = 1;
  MockKernel kernel(opts);
  auto drv = L4LoadBalancerDriver::Create(kernel, /*num_backends=*/8, {}, engine.choice);
  EXPECT_TRUE(drv.ok()) << drv.status().ToString();
  // Two passes over the same four flows: the first pass misses affinity and
  // probes the rendezvous ring (flow-map update), the second hits the flow
  // map, so the helper-call stream captures both lb paths.
  for (int pass = 0; pass < 2; pass++) {
    for (uint32_t f = 0; f < 4; f++) {
      auto d = (*drv)->Route(0, 0x0A000000u + f, static_cast<uint16_t>(1024 + f),
                          443, kProtoUdp);
      EXPECT_FALSE(d.result.cancelled);
      EXPECT_EQ(d.result.verdict, kXdpTx);
    }
  }
  EXPECT_EQ((*drv)->AffinityHits(), 4u);
  EXPECT_EQ((*drv)->AffinityMisses(), 4u);
  return Normalize(Obs::Instance().SnapshotTrace());
}

// ---- workload 5: DDoS guard (pass -> rate-limit drop -> SYN-flood drop) -----

std::vector<std::string> RunNetfnGuard(const EngineConfig& engine) {
  ScopedObsEnable obs(/*trace=*/true, /*metrics=*/false);
  RuntimeOptions opts;
  opts.num_cpus = 1;
  MockKernel kernel(opts);
  GuardConfig cfg;
  cfg.syn_threshold = 4;  // trip the count-min filter quickly
  cfg.burst_tokens = 2;   // and the token bucket before it
  auto drv = DdosGuardDriver::Create(kernel, cfg, {}, engine.choice);
  EXPECT_TRUE(drv.ok()) << drv.status().ToString();
  // One aggressive TCP source plus a background UDP source; deterministic
  // virtual clock so token refill is identical on every engine.
  for (uint64_t i = 0; i < 8; i++) {
    auto r = (*drv)->Deliver(0, 0xC6336401u, kProtoTcp, /*now_ns=*/i * 100);
    EXPECT_FALSE(r.cancelled);
  }
  auto udp = (*drv)->Deliver(0, 0xC6336402u, kProtoUdp, /*now_ns=*/900);
  EXPECT_FALSE(udp.cancelled);
  EXPECT_EQ(udp.verdict, kXdpPass);
  EXPECT_GT((*drv)->SynDrops() + (*drv)->RateDrops(), 0u);
  return Normalize(Obs::Instance().SnapshotTrace());
}

// ---- workload 6: trace aggregator (lock-free; load-time page-in only) -------

std::vector<std::string> RunNetfnTraceAgg(const EngineConfig& engine) {
  ScopedObsEnable obs(/*trace=*/true, /*metrics=*/false);
  RuntimeOptions opts;
  opts.num_cpus = 1;
  MockKernel kernel(opts);
  auto drv = TraceAggDriver::Create(kernel, {}, engine.choice);
  EXPECT_TRUE(drv.ok()) << drv.status().ToString();
  for (uint32_t i = 0; i < 8; i++) {
    auto r = (*drv)->Record(0, i % TraceAggLayout::kKinds, 100 + i * 7);
    EXPECT_FALSE(r.cancelled);
  }
  EXPECT_EQ((*drv)->Count(0), 2u);
  // The aggregator is helper-free (atomic adds only, its kRaceFree
  // certificate); the semantic stream is exactly the static-heap population
  // at load, which still must agree across engines.
  return Normalize(Obs::Instance().SnapshotTrace());
}

// ---- golden comparison ------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<std::string> (*run)(const EngineConfig&);
};

const Workload kWorkloads[] = {
    {"scatter", RunScatter},
    {"memcached", RunMemcached},
    {"pagefault", RunPageFault},
    {"netfn_lb", RunNetfnLb},
    {"netfn_guard", RunNetfnGuard},
    {"netfn_traceagg", RunNetfnTraceAgg},
};

std::string RenderGolden(const std::vector<std::pair<std::string, std::vector<std::string>>>&
                             sections) {
  std::string out =
      "# Golden semantic trace (tests/golden_trace_test.cc). Regenerate with\n"
      "# `./golden_trace_test --regen` after an intentional semantic change.\n";
  for (const auto& [name, lines] : sections) {
    out += "# workload: " + name + "\n";
    for (const std::string& line : lines) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(GoldenTrace, SemanticStreamIdenticalAcrossEnginesAndMatchesGolden) {
  std::vector<std::pair<std::string, std::vector<std::string>>> sections;
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> reference;
    for (const EngineConfig& engine : Engines()) {
      std::vector<std::string> stream = w.run(engine);
      ASSERT_FALSE(stream.empty()) << w.name << " produced no semantic events";
      if (engine.choice.engine == ExecEngine::kInterp && !engine.choice.optimize) {
        reference = stream;
        continue;
      }
      EXPECT_EQ(stream, reference)
          << "workload '" << w.name << "': engine '" << engine.name
          << "' diverged from the reference interpreter's semantic stream";
    }
    sections.emplace_back(w.name, std::move(reference));
  }

  const std::string path = GOLDEN_TRACE_FILE;
  const std::string rendered = RenderGolden(sections);
  if (g_regen) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run ./golden_trace_test --regen)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), rendered)
      << "semantic trace diverged from " << path
      << "; if the change is intentional, regenerate with --regen and review "
         "the diff";
}

}  // namespace
}  // namespace kflex

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--regen") {
      kflex::g_regen = true;
    }
  }
  return RUN_ALL_TESTS();
}
