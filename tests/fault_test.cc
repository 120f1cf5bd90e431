// Deterministic fault injection (src/fault): spec grammar, schedule
// determinism, registry semantics, and the previously untested null/error
// paths each fault point simulates — allocator exhaustion, pager failures,
// code-cache refusals with engine fallback, map update failure, and
// helper-error injection that must never skip a release.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/fault/fault.h"
#include "src/jit/codegen.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/runtime/allocator.h"

namespace kflex {
namespace {

constexpr uint64_t kHeapSize = 1 << 20;

Program MustBuild(Assembler& a, uint64_t heap_size = kHeapSize) {
  auto p = a.Finish("t", Hook::kXdp, ExtensionMode::kKflex, heap_size);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

// ---- spec grammar -----------------------------------------------------------

TEST(FaultSpec, ParsesNth) {
  auto p = ParseFaultPolicy("nth=3");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->kind, FaultPolicy::Kind::kNth);
  EXPECT_EQ(p->n, 3u);
  EXPECT_EQ(p->times, 0u);
}

TEST(FaultSpec, ParsesEveryWithTimes) {
  auto p = ParseFaultPolicy("every=7,times=2");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->kind, FaultPolicy::Kind::kEveryN);
  EXPECT_EQ(p->n, 7u);
  EXPECT_EQ(p->times, 2u);
}

TEST(FaultSpec, ParsesProbSeedTimes) {
  auto p = ParseFaultPolicy("prob=0.25,seed=42,times=5");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->kind, FaultPolicy::Kind::kProb);
  EXPECT_EQ(p->prob_ppm, 250'000u);
  EXPECT_EQ(p->seed, 42u);
  EXPECT_EQ(p->times, 5u);
}

TEST(FaultSpec, ParsesProbEdgeValues) {
  auto one = ParseFaultPolicy("prob=1");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->prob_ppm, 1'000'000u);
  auto tiny = ParseFaultPolicy("prob=0.000001");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->prob_ppm, 1u);
  auto off = ParseFaultPolicy("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->kind, FaultPolicy::Kind::kOff);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "nth", "nth=0", "nth=x", "every=0", "prob=1.5",
                          "prob=0.1234567", "bogus=1", "nth=1,every=2",
                          "times=3", "nth=1,times=0"}) {
    EXPECT_FALSE(ParseFaultPolicy(bad).ok()) << "accepted: " << bad;
  }
  EXPECT_FALSE(ParseFaultSpec("no-colon").ok());
  EXPECT_FALSE(ParseFaultSpec(":nth=1").ok());
}

TEST(FaultSpec, ToStringRoundTrips) {
  for (const char* spec : {"nth=3", "every=7,times=2", "prob=0.250000,seed=42",
                           "prob=0.000001,seed=9,times=1"}) {
    auto p = ParseFaultPolicy(spec);
    ASSERT_TRUE(p.ok()) << spec;
    auto again = ParseFaultPolicy(p->ToString());
    ASSERT_TRUE(again.ok()) << p->ToString();
    EXPECT_EQ(again->kind, p->kind);
    EXPECT_EQ(again->n, p->n);
    EXPECT_EQ(again->prob_ppm, p->prob_ppm);
    EXPECT_EQ(again->seed, p->seed);
    EXPECT_EQ(again->times, p->times);
  }
}

// ---- schedule determinism ---------------------------------------------------

TEST(FaultSchedule, NthFiresExactlyOnce) {
  auto p = ParseFaultPolicy("nth=5");
  ASSERT_TRUE(p.ok());
  int fires = 0;
  for (uint64_t hit = 0; hit < 100; hit++) {
    if (FaultScheduleFires(*p, hit)) {
      EXPECT_EQ(hit, 4u);  // 1-based nth == 0-based hit 4
      fires++;
    }
  }
  EXPECT_EQ(fires, 1);
}

TEST(FaultSchedule, EveryNFiresPeriodically) {
  auto p = ParseFaultPolicy("every=3");
  ASSERT_TRUE(p.ok());
  for (uint64_t hit = 0; hit < 30; hit++) {
    EXPECT_EQ(FaultScheduleFires(*p, hit), (hit + 1) % 3 == 0) << hit;
  }
}

TEST(FaultSchedule, ProbIsPureFunctionOfSeedAndHit) {
  auto p = ParseFaultPolicy("prob=0.25,seed=1234");
  ASSERT_TRUE(p.ok());
  std::set<uint64_t> first;
  for (uint64_t hit = 0; hit < 10'000; hit++) {
    if (FaultScheduleFires(*p, hit)) {
      first.insert(hit);
    }
  }
  // Replay: identical schedule, no state consulted.
  for (uint64_t hit = 0; hit < 10'000; hit++) {
    EXPECT_EQ(FaultScheduleFires(*p, hit), first.count(hit) != 0) << hit;
  }
  // The rate is in the right ballpark for 25%.
  EXPECT_GT(first.size(), 2'200u);
  EXPECT_LT(first.size(), 2'800u);
  // A different seed yields a different schedule.
  auto other = ParseFaultPolicy("prob=0.25,seed=1235");
  ASSERT_TRUE(other.ok());
  bool differs = false;
  for (uint64_t hit = 0; hit < 10'000 && !differs; hit++) {
    differs = FaultScheduleFires(*other, hit) != (first.count(hit) != 0);
  }
  EXPECT_TRUE(differs);
}

// ---- registry ---------------------------------------------------------------

TEST(FaultRegistryTest, CatalogIsPreRegistered) {
  std::vector<std::string> names = FaultRegistry::Instance().Names();
  for (const char* expected :
       {"alloc.slab", "alloc.percpu", "heap.pagein", "heap.guard", "jit.mmap",
        "jit.mprotect", "map.update", "helper.ret_err", "lock.delay"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing catalog point " << expected;
  }
}

TEST(FaultRegistryTest, ArmingUnknownPointFails) {
  Status s = FaultRegistry::Instance().ArmSpec("alloc.bogus:nth=1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// The catalog is closed: a fire site naming a point outside it fails a check
// on first use instead of creating a point.
TEST(FaultRegistryDeathTest, FireSiteOutsideTheCatalogFailsACheck) {
  EXPECT_DEATH(FaultRegistry::Instance().Point("alloc.bogus"), "not in the catalog");
}

TEST(FaultRegistryTest, ScopedInjectionDisarmsAndResetsOnExit) {
  {
    ScopedFaultInjection faults{"alloc.slab:nth=1"};
    FaultPoint* point = FaultRegistry::Instance().Find("alloc.slab");
    ASSERT_NE(point, nullptr);
    EXPECT_TRUE(point->armed());
    EXPECT_TRUE(point->ShouldFail());  // nth=1: first hit fails
    EXPECT_EQ(point->fails(), 1u);
  }
  FaultPoint* point = FaultRegistry::Instance().Find("alloc.slab");
  ASSERT_NE(point, nullptr);
  EXPECT_FALSE(point->armed());
  EXPECT_EQ(point->hits(), 0u);
  EXPECT_EQ(point->fails(), 0u);
}

TEST(FaultRegistryTest, TimesCapsTotalFailures) {
  ScopedFaultInjection faults{"alloc.slab:every=1,times=2"};
  FaultPoint* point = FaultRegistry::Instance().Find("alloc.slab");
  ASSERT_NE(point, nullptr);
  int fails = 0;
  for (int i = 0; i < 10; i++) {
    fails += point->ShouldFail() ? 1 : 0;
  }
  EXPECT_EQ(fails, 2);
}

TEST(FaultRegistryTest, ArmFromEnvParsesSpecList) {
  ASSERT_EQ(setenv("KFLEX_FAULT_TEST_ENV", "alloc.slab:nth=3;heap.pagein:every=2", 1), 0);
  ASSERT_TRUE(FaultRegistry::Instance().ArmFromEnv("KFLEX_FAULT_TEST_ENV").ok());
  EXPECT_TRUE(FaultRegistry::Instance().Find("alloc.slab")->armed());
  EXPECT_TRUE(FaultRegistry::Instance().Find("heap.pagein")->armed());
  FaultRegistry::Instance().DisarmAll();
  FaultRegistry::Instance().ResetCounters();

  ASSERT_EQ(setenv("KFLEX_FAULT_TEST_ENV", "alloc.slab:nth=oops", 1), 0);
  EXPECT_FALSE(FaultRegistry::Instance().ArmFromEnv("KFLEX_FAULT_TEST_ENV").ok());
  unsetenv("KFLEX_FAULT_TEST_ENV");
}

// ---- allocator exhaustion (real, uninjected null path) ----------------------

TEST(AllocatorExhaustion, EverySizeClassExhaustsCleanly) {
  for (int cls = 0; cls < HeapAllocator::kNumClasses; cls++) {
    HeapSpec spec;
    spec.size = 1 << 16;  // minimum heap: few pages, exhausts fast
    auto heap = ExtensionHeap::Create(spec);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    HeapAllocator alloc(heap->get(), /*num_cpus=*/1);

    uint64_t size = HeapAllocator::ClassSize(cls);
    std::vector<uint64_t> offs;
    while (true) {
      uint64_t off = alloc.Alloc(0, size);
      if (off == 0) {
        break;
      }
      offs.push_back(off);
      ASSERT_LT(offs.size(), 100'000u);  // safety net
    }
    EXPECT_FALSE(offs.empty()) << "class " << cls << " never allocated";
    EXPECT_GT(alloc.GetStats().failures, 0u);
    // Exhausted allocator still balances.
    EXPECT_TRUE(alloc.Audit().empty())
        << "class " << cls << ":\n" << alloc.Audit()[0];
    for (uint64_t off : offs) {
      EXPECT_TRUE(alloc.Free(0, off));
    }
    EXPECT_TRUE(alloc.Audit().empty()) << "class " << cls << " after free";
  }
}

// ---- injected allocator failures --------------------------------------------

// An extension that kflex_mallocs 64 bytes and reports what it saw: verdict 1
// on success (after touching the memory and freeing it), 0 on NULL.
Program MallocProbeProgram() {
  Assembler a;
  a.MovImm(R1, 64);
  a.Call(kHelperKflexMalloc);
  {
    auto null = a.IfImm(BPF_JEQ, R0, 0);
    a.MovImm(R0, 0);
    a.Exit();
    a.EndIf(null);
  }
  a.StImm(BPF_DW, R0, 0, 1);
  a.Mov(R1, R0);
  a.Call(kHelperKflexFree);
  a.MovImm(R0, 1);
  a.Exit();
  return MustBuild(a);
}

TEST(InjectedAllocFault, SlabCarveFailureYieldsNullNotCancellation) {
  MockKernel kernel;
  auto id = kernel.runtime().Load(MallocProbeProgram(), LoadOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  ScopedFaultInjection faults{"alloc.slab:nth=1"};
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled) << "--fault=alloc.slab:nth=1";
  EXPECT_EQ(r.verdict, 0) << "extension must observe NULL";
  InvariantReport sweep = kernel.runtime().SweepInvariants(*id);
  EXPECT_TRUE(sweep.ok()) << sweep.ToString();

  // The schedule was nth=1: the next invocation allocates normally.
  InvokeResult r2 = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_EQ(r2.verdict, 1);
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());
}

TEST(InjectedAllocFault, PercpuFailureYieldsNullNotCancellation) {
  MockKernel kernel;
  auto id = kernel.runtime().Load(MallocProbeProgram(), LoadOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  ScopedFaultInjection faults{"alloc.percpu:nth=1"};
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled) << "--fault=alloc.percpu:nth=1";
  EXPECT_EQ(r.verdict, 0);
  EXPECT_GT(kernel.runtime().allocator(*id)->GetStats().failures, 0u);
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());
}

// ---- injected pager failures ------------------------------------------------

// Straight-line store into the static heap area (populated at load): only
// the store itself goes through TranslateKernel, so nth=1 hits mid-store.
Program StaticStoreProgram() {
  Assembler a;
  a.LoadHeapAddr(R6, 64);
  a.StImm(BPF_DW, R6, 0, 42);
  a.MovImm(R0, 7);
  a.Exit();
  return MustBuild(a);
}

TEST(InjectedPagerFault, PageinFailureMidStoreCancels) {
  MockKernel kernel;
  LoadOptions lo;
  lo.heap_static_bytes = 64;
  auto id = kernel.runtime().Load(StaticStoreProgram(), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  KvPacket pkt;
  {
    ScopedFaultInjection faults{"heap.pagein:nth=1"};
    InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
    EXPECT_TRUE(r.cancelled) << "--fault=heap.pagein:nth=1";
    EXPECT_EQ(r.fault_kind, MemFaultKind::kNotPresent);
    EXPECT_EQ(r.verdict, kXdpPass);
    InvariantReport sweep = kernel.runtime().SweepInvariants(*id);
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
    EXPECT_TRUE(kernel.runtime().IsUnloaded(*id));
  }
  // Disarmed + reset: the extension runs clean again.
  kernel.runtime().Reset(*id);
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 7);
}

TEST(InjectedPagerFault, GuardFaultInjectionCancelsAsGuardZone) {
  MockKernel kernel;
  LoadOptions lo;
  lo.heap_static_bytes = 64;
  auto id = kernel.runtime().Load(StaticStoreProgram(), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  ScopedFaultInjection faults{"heap.guard:nth=1"};
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_TRUE(r.cancelled) << "--fault=heap.guard:nth=1";
  EXPECT_EQ(r.fault_kind, MemFaultKind::kGuardZone);
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());
}

// ---- injected code-cache refusals: the auto-fallback matrix -----------------

TEST(InjectedJitFault, MmapRefusalFallsBackToInterpreter) {
  if (!JitHostSupported()) {
    GTEST_SKIP() << "JIT backend unsupported on this host";
  }
  MockKernel kernel;
  LoadOptions lo;
  lo.heap_static_bytes = 64;
  lo.engine = ExecEngine::kJit;

  ScopedFaultInjection faults{"jit.mmap:nth=1"};
  auto id = kernel.runtime().Load(StaticStoreProgram(), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  EngineInfo ei = kernel.runtime().engine_info(*id);
  EXPECT_EQ(ei.requested, ExecEngine::kJit);
  EXPECT_EQ(ei.used, ExecEngine::kInterp) << "--fault=jit.mmap:nth=1";
  EXPECT_NE(ei.fallback_reason.find("(mmap)"), std::string::npos)
      << "fallback reason: " << ei.fallback_reason;

  // The interpreter serves the invocation; load never fails on engine.
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 7);
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());

  // The nth=1 schedule is spent: a second load compiles natively.
  auto id2 = kernel.runtime().Load(StaticStoreProgram(), lo);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(kernel.runtime().engine_info(*id2).used, ExecEngine::kJit);
}

TEST(InjectedJitFault, MprotectRefusalFallsBackToInterpreter) {
  if (!JitHostSupported()) {
    GTEST_SKIP() << "JIT backend unsupported on this host";
  }
  MockKernel kernel;
  LoadOptions lo;
  lo.heap_static_bytes = 64;
  lo.engine = ExecEngine::kJit;

  ScopedFaultInjection faults{"jit.mprotect:nth=1"};
  auto id = kernel.runtime().Load(StaticStoreProgram(), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  EngineInfo ei = kernel.runtime().engine_info(*id);
  EXPECT_EQ(ei.requested, ExecEngine::kJit);
  EXPECT_EQ(ei.used, ExecEngine::kInterp) << "--fault=jit.mprotect:nth=1";
  EXPECT_NE(ei.fallback_reason.find("(mprotect)"), std::string::npos)
      << "fallback reason: " << ei.fallback_reason;

  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 7);
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());
}

// ---- injected map failure ---------------------------------------------------

TEST(InjectedMapFault, UpdateReturnsEnomem) {
  MapRegistry maps;
  auto desc = maps.CreateArray(/*key_size=*/4, /*value_size=*/8, /*max_entries=*/4);
  ASSERT_TRUE(desc.ok());
  Map* map = maps.Find(desc->id);
  ASSERT_NE(map, nullptr);

  uint32_t key = 1;
  uint64_t value = 99;
  ScopedFaultInjection faults{"map.update:nth=1"};
  EXPECT_EQ(map->Update(reinterpret_cast<uint8_t*>(&key),
                        reinterpret_cast<uint8_t*>(&value)),
            -12)
      << "--fault=map.update:nth=1";
  // Schedule spent: the retry lands.
  EXPECT_EQ(map->Update(reinterpret_cast<uint8_t*>(&key),
                        reinterpret_cast<uint8_t*>(&value)),
            0);
}

// ---- injected helper errors -------------------------------------------------

TEST(InjectedHelperFault, MallocHelperReturnsNullOnInjection) {
  MockKernel kernel;
  auto id = kernel.runtime().Load(MallocProbeProgram(), LoadOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  ScopedFaultInjection faults{"helper.ret_err:nth=1"};
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled) << "--fault=helper.ret_err:nth=1";
  EXPECT_EQ(r.verdict, 0) << "malloc body skipped, NULL returned";
  // The skipped body allocated nothing: accounting still balances.
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());
}

// sk_lookup (hit 1) is injectable, sk_release (hit 2) must NOT be: a release
// helper whose body were skipped would leak the socket reference.
TEST(InjectedHelperFault, ReleaseHelpersAreNeverInjected) {
  MockKernel kernel;
  kernel.sockets().Bind(0x0A000001, 7000, kProtoUdp);

  Assembler a;
  a.StImm(BPF_W, R10, -16, 0x0A000001);
  a.StImm(BPF_W, R10, -12, 7000);
  a.Mov(R2, R10);
  a.AddImm(R2, -16);
  a.MovImm(R3, 8);
  a.MovImm(R4, 0);
  a.MovImm(R5, 0);
  a.Call(kHelperSkLookupUdp);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Mov(R1, R0);
  a.Call(kHelperSkRelease);
  a.MovImm(R0, 1);
  a.Else(iff);
  a.MovImm(R0, 0);
  a.EndIf(iff);
  a.Exit();
  auto id = kernel.runtime().Load(MustBuild(a), LoadOptions{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  // nth=2 targets the second helper call (sk_release). The exemption makes
  // the schedule a no-op: the release body must run anyway.
  ScopedFaultInjection faults{"helper.ret_err:nth=2"};
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 1) << "socket lookup + release must both execute";
  EXPECT_TRUE(kernel.Quiescent()) << "socket reference leaked";
  EXPECT_EQ(kernel.sockets().TotalExtraRefs(), 0);
  EXPECT_TRUE(kernel.runtime().SweepInvariants(*id).ok());
}

// ---- RuntimeOptions arming --------------------------------------------------

TEST(RuntimeFaultSpecs, OptionsArmTheRegistry) {
  RuntimeOptions opts;
  opts.fault_specs = {"alloc.slab:nth=1"};
  {
    MockKernel kernel{opts};
    auto id = kernel.runtime().Load(MallocProbeProgram(), LoadOptions{});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(kernel.Attach(*id).ok());
    KvPacket pkt;
    InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
    EXPECT_EQ(r.verdict, 0) << "RuntimeOptions fault_specs must arm alloc.slab";
  }
  FaultRegistry::Instance().DisarmAll();
  FaultRegistry::Instance().ResetCounters();
}

}  // namespace
}  // namespace kflex
