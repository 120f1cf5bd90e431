// End-to-end runtime tests: load -> verify -> instrument -> invoke through
// the mock kernel, SFI containment, allocator behaviour, spin locks, maps,
// heaps, and the eBPF backward-compatibility mode.
#include "src/runtime/runtime.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/base/rng.h"
#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "src/runtime/spinlock.h"

namespace kflex {
namespace {

constexpr uint64_t kHeapSize = 1 << 20;

Program MustBuild(Assembler& a, ExtensionMode mode = ExtensionMode::kKflex,
                  uint64_t heap = kHeapSize, Hook hook = Hook::kXdp) {
  auto p = a.Finish("t", hook, mode, heap);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(RuntimeE2E, HeapGlobalRoundTrip) {
  MockKernel kernel;
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 4242);
  a.Ldx(BPF_DW, R0, R2, 0);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  auto id = kernel.runtime().Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_TRUE(r.attached);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 4242);

  uint64_t stored;
  std::memcpy(&stored, kernel.runtime().heap(*id)->HostAt(64), 8);
  EXPECT_EQ(stored, 4242u);
}

// Invoke's cpu argument selects a per-CPU allocator arena and watchdog slot;
// out-of-range values must be rejected (attached=false), not trusted — shard
// workers compute it, and a bad index would corrupt a foreign arena.
TEST(RuntimeE2E, InvokeRejectsOutOfRangeCpu) {
  ScopedObsEnable metrics_on(/*trace=*/false, /*metrics=*/true);
  RuntimeOptions opts;
  opts.num_cpus = 2;
  Runtime runtime{opts};
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 1);
  a.MovImm(R0, 0);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  auto id = runtime.Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  uint8_t ctx[64] = {0};
  EXPECT_TRUE(runtime.Invoke(*id, 0, ctx, sizeof(ctx)).attached);
  EXPECT_TRUE(runtime.Invoke(*id, 1, ctx, sizeof(ctx)).attached);
  EXPECT_FALSE(runtime.Invoke(*id, 2, ctx, sizeof(ctx)).attached)
      << "cpu == num_cpus is out of range";
  EXPECT_FALSE(runtime.Invoke(*id, -1, ctx, sizeof(ctx)).attached);
  EXPECT_FALSE(runtime.Invoke(*id, 1 << 20, ctx, sizeof(ctx)).attached);
  // Rejected invocations leave no trace in the metrics or invariants.
  uint64_t invocations = 0;
  for (const ObsExtSnapshot& ext : runtime.SnapshotMetrics().extensions) {
    if (ext.id == runtime.obs_id(*id)) {
      invocations = ext.counters[static_cast<size_t>(ObsCounter::kInvocations)];
    }
  }
  EXPECT_EQ(invocations, 2u);
  InvariantReport sweep = runtime.SweepInvariants(*id);
  EXPECT_TRUE(sweep.ok()) << sweep.ToString();
}

// Quiesced detach (Runtime::Unload): subsequent Invokes bounce, the heap
// survives, and Reset re-arms — the sharded dispatcher's unload primitive.
TEST(RuntimeE2E, UnloadDetachesWithoutCancellation) {
  Runtime runtime;
  Assembler a;
  a.LoadHeapAddr(R2, 64);
  a.StImm(BPF_DW, R2, 0, 7);
  a.MovImm(R0, 0);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  auto id = runtime.Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok());
  uint8_t ctx[64] = {0};
  ASSERT_TRUE(runtime.Invoke(*id, 0, ctx, sizeof(ctx)).attached);

  runtime.Unload(*id);
  EXPECT_TRUE(runtime.IsUnloaded(*id));
  EXPECT_FALSE(runtime.Invoke(*id, 0, ctx, sizeof(ctx)).attached);
  EXPECT_EQ(runtime.GetStats(*id).cancellations, 0u)
      << "quiesced unload is not a cancellation";
  ASSERT_NE(runtime.heap(*id), nullptr);
  uint64_t stored;
  std::memcpy(&stored, runtime.heap(*id)->HostAt(64), 8);
  EXPECT_EQ(stored, 7u) << "the heap survives the detach (§3.4)";

  runtime.Reset(*id);
  EXPECT_TRUE(runtime.Invoke(*id, 0, ctx, sizeof(ctx)).attached);
}

TEST(RuntimeE2E, OutOfBoundsWriteIsContainedBySfi) {
  MockKernel kernel;
  Assembler a;
  // ptr = heap[64] + unknown scalar from ctx: Kie must guard the store.
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 7777);
  a.MovImm(R0, 0);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  auto id = kernel.runtime().Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  KvPacket pkt;
  // Offset chosen so that the unmasked address would be far outside the
  // heap but the masked address lands back on the metadata page.
  uint64_t delta = kHeapSize * 3;  // masks to 0 -> final addr = heap[64]
  std::memcpy(pkt.data(), &delta, 8);
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled) << VmOutcomeName(r.outcome);
  uint64_t stored;
  std::memcpy(&stored, kernel.runtime().heap(*id)->HostAt(64), 8);
  EXPECT_EQ(stored, 7777u);  // contained within the heap
}

TEST(RuntimeE2E, UnpopulatedPageAccessCancelsC2) {
  MockKernel kernel;
  Assembler a;
  a.Ldx(BPF_DW, R3, R1, 0);
  a.LoadHeapAddr(R2, 64);
  a.Add(R2, R3);
  a.StImm(BPF_DW, R2, 0, 1);
  a.MovImm(R0, 0);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 256;
  auto id = kernel.runtime().Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(kernel.Attach(*id).ok());

  KvPacket pkt;
  uint64_t delta = kHeapSize / 2;  // masked address stays on an unpopulated page
  std::memcpy(pkt.data(), &delta, 8);
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.fault_kind, MemFaultKind::kNotPresent);
  EXPECT_EQ(r.verdict, kXdpPass);  // XDP default on cancellation
  EXPECT_TRUE(kernel.runtime().IsUnloaded(*id));
  EXPECT_TRUE(kernel.Quiescent());
}

TEST(RuntimeE2E, MallocedMemoryIsUsable) {
  MockKernel kernel;
  Assembler a;
  a.MovImm(R1, 96);
  a.Call(kHelperKflexMalloc);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.Mov(R6, R0);
  a.StImm(BPF_DW, R6, 0, 31337);
  a.Ldx(BPF_DW, R7, R6, 0);
  a.Mov(R0, R7);
  a.Else(iff);
  a.MovImm(R0, 0);
  a.EndIf(iff);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 64;
  auto id = kernel.runtime().Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 31337);
}

TEST(RuntimeE2E, EbpfModeProgramStillRuns) {
  MockKernel kernel;
  auto desc = kernel.runtime().maps().CreateArray(4, 8, 16);
  ASSERT_TRUE(desc.ok());
  Assembler a;
  a.LoadMapPtr(R1, desc->id);
  a.StImm(BPF_W, R10, -4, 3);
  a.Mov(R2, R10);
  a.AddImm(R2, -4);
  a.Call(kHelperMapLookupElem);
  auto iff = a.IfImm(BPF_JNE, R0, 0);
  a.StImm(BPF_DW, R0, 0, 555);
  a.Ldx(BPF_DW, R0, R0, 0);
  a.EndIf(iff);
  a.Exit();
  auto id = kernel.runtime().Load(MustBuild(a, ExtensionMode::kEbpf, /*heap=*/0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());
  KvPacket pkt;
  InvokeResult r = kernel.Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.verdict, 555);
}

TEST(RuntimeE2E, SpinLockProtectsCounterAcrossThreads) {
  MockKernel kernel{RuntimeOptions{4, 1'000'000'000ULL}};
  Assembler a;
  // lock; counter++ (non-atomically: load, add, store); unlock.
  a.LoadHeapAddr(R1, 64);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R2, 72);
  a.Ldx(BPF_DW, R3, R2, 0);
  a.AddImm(R3, 1);
  a.Stx(BPF_DW, R2, 0, R3);
  a.LoadHeapAddr(R1, 64);
  a.Call(kHelperKflexSpinUnlock);
  a.MovImm(R0, 0);
  a.Exit();
  LoadOptions lo;
  lo.heap_static_bytes = 64;
  auto id = kernel.runtime().Load(MustBuild(a), lo);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(kernel.Attach(*id).ok());

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&kernel, t] {
      KvPacket pkt;
      for (int i = 0; i < kIters; i++) {
        kernel.Deliver(Hook::kXdp, t, pkt.data(), pkt.size());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t counter;
  std::memcpy(&counter, kernel.runtime().heap(*id)->HostAt(72), 8);
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads * kIters));
}

TEST(Allocator, SizeClassesAndReuse) {
  HeapSpec spec;
  spec.size = kHeapSize;
  auto heap = ExtensionHeap::Create(spec);
  ASSERT_TRUE(heap.ok());
  HeapAllocator alloc(heap.value().get(), 2);

  EXPECT_EQ(HeapAllocator::ClassForSize(1), 0);
  EXPECT_EQ(HeapAllocator::ClassForSize(16), 0);
  EXPECT_EQ(HeapAllocator::ClassForSize(17), 1);
  EXPECT_EQ(HeapAllocator::ClassForSize(4096), 8);
  EXPECT_EQ(HeapAllocator::ClassForSize(4097), -1);

  uint64_t a1 = alloc.Alloc(0, 100);
  uint64_t a2 = alloc.Alloc(0, 100);
  ASSERT_NE(a1, 0u);
  ASSERT_NE(a2, 0u);
  EXPECT_NE(a1, a2);
  EXPECT_TRUE(alloc.Free(0, a1));
  uint64_t a3 = alloc.Alloc(0, 100);
  EXPECT_EQ(a3, a1);  // per-CPU cache LIFO reuse
  EXPECT_FALSE(alloc.Free(0, a2 + 4));  // interior pointer rejected
  EXPECT_FALSE(alloc.Free(0, 64));      // static region not allocator-owned
}

TEST(Allocator, RandomizedAllocFreeStress) {
  HeapSpec spec;
  spec.size = kHeapSize;
  auto heap = ExtensionHeap::Create(spec);
  ASSERT_TRUE(heap.ok());
  HeapAllocator alloc(heap.value().get(), 2);
  Rng rng(99);
  std::vector<std::pair<uint64_t, uint64_t>> live;  // (off, size)
  for (int i = 0; i < 20000; i++) {
    if (live.empty() || rng.NextBounded(100) < 60) {
      uint64_t size = 1 + rng.NextBounded(4096);
      uint64_t off = alloc.Alloc(static_cast<int>(rng.NextBounded(2)), size);
      if (off != 0) {
        // No overlap with any live allocation.
        uint64_t cls_size =
            HeapAllocator::ClassSize(HeapAllocator::ClassForSize(size));
        for (const auto& [o, s] : live) {
          ASSERT_TRUE(off + cls_size <= o || o + s <= off)
              << "overlap: " << off << " vs " << o;
        }
        live.emplace_back(off, cls_size);
      }
    } else {
      size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(alloc.Free(static_cast<int>(rng.NextBounded(2)), live[idx].first));
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    }
  }
}

// The §4.1 refiller: one pass stocks every CPU's cache for every size class,
// so each CPU's first allocation of any class is a cache hit and carves
// nothing.
TEST(Allocator, RefillCachesStocksEveryCpuAndClass) {
  HeapSpec spec;
  spec.size = kHeapSize;
  auto heap = ExtensionHeap::Create(spec);
  ASSERT_TRUE(heap.ok());
  HeapAllocator alloc(heap.value().get(), 2);
  alloc.RefillCaches();
  const uint64_t carved = alloc.GetStats().pages_carved;
  EXPECT_GT(carved, 0u);
  for (int cpu = 0; cpu < 2; cpu++) {
    for (int cls = 0; cls < HeapAllocator::kNumClasses; cls++) {
      EXPECT_NE(alloc.Alloc(cpu, HeapAllocator::ClassSize(cls)), 0u) << cpu << "/" << cls;
    }
  }
  HeapAllocator::Stats stats = alloc.GetStats();
  EXPECT_EQ(stats.cache_hits, 2u * HeapAllocator::kNumClasses);
  EXPECT_EQ(stats.pages_carved, carved);
  EXPECT_TRUE(alloc.Audit().empty());
}

TEST(SpinLock, MutualExclusionStress) {
  alignas(8) uint64_t word = 0;
  uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&word, &counter] {
      for (int i = 0; i < kIters; i++) {
        ASSERT_TRUE(SpinLockOps::Acquire(&word, SpinLockOps::kKernelOwner, nullptr));
        counter++;
        SpinLockOps::Release(&word);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads * kIters));
  EXPECT_FALSE(SpinLockOps::IsHeld(&word));
}

TEST(SpinLock, CancelWhileWaiting) {
  alignas(8) uint64_t word = 0;
  ASSERT_TRUE(SpinLockOps::Acquire(&word, SpinLockOps::kUserOwner, nullptr));
  std::atomic<bool> cancel{false};
  std::thread waiter([&word, &cancel] {
    EXPECT_FALSE(SpinLockOps::Acquire(&word, SpinLockOps::kKernelOwner, &cancel));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel.store(true);
  waiter.join();
  SpinLockOps::Release(&word);
}

TEST(Maps, HashMapInsertLookupDelete) {
  MapRegistry registry;
  auto desc = registry.CreateHash(8, 16, 128);
  ASSERT_TRUE(desc.ok());
  Map* map = registry.Find(desc->id);
  ASSERT_NE(map, nullptr);

  uint64_t key = 0xABCD;
  uint8_t value[16] = {1, 2, 3};
  EXPECT_EQ(map->Update(reinterpret_cast<uint8_t*>(&key), value), 0);
  uint64_t va = map->Lookup(reinterpret_cast<uint8_t*>(&key));
  ASSERT_NE(va, 0u);
  uint8_t* host = map->TranslateValue(va, 16);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host[0], 1);
  EXPECT_EQ(map->Delete(reinterpret_cast<uint8_t*>(&key)), 0);
  EXPECT_EQ(map->Lookup(reinterpret_cast<uint8_t*>(&key)), 0u);
  EXPECT_EQ(map->Delete(reinterpret_cast<uint8_t*>(&key)), -1);
}

TEST(Maps, HashMapCapacityBound) {
  MapRegistry registry;
  auto desc = registry.CreateHash(8, 8, 4);
  ASSERT_TRUE(desc.ok());
  Map* map = registry.Find(desc->id);
  uint8_t value[8] = {0};
  for (uint64_t k = 0; k < 4; k++) {
    EXPECT_EQ(map->Update(reinterpret_cast<uint8_t*>(&k), value), 0);
  }
  uint64_t k = 99;
  EXPECT_EQ(map->Update(reinterpret_cast<uint8_t*>(&k), value), -1);
  // Overwriting an existing key still works at capacity.
  k = 2;
  EXPECT_EQ(map->Update(reinterpret_cast<uint8_t*>(&k), value), 0);
}

// A map handle is kMapRegion + (id << 32), so id 4096 would land exactly on
// kKernelObjRegion: the registry stops at 4095.
TEST(Maps, IdsStayBelowKernelObjectRegion) {
  MapRegistry registry;
  for (uint32_t id = 1; id <= 4095; id++) {
    auto desc = registry.CreateArray(4, 8, 1);
    ASSERT_TRUE(desc.ok()) << desc.status().ToString();
    ASSERT_EQ(desc->id, id);
  }
  Map* last = registry.Find(4095);
  ASSERT_NE(last, nullptr);
  const uint64_t va = last->value_area_va();
  EXPECT_LT(va + 8, kKernelObjRegion);
  EXPECT_EQ(registry.FindByVa(va), last);
  EXPECT_NE(last->TranslateValue(va, 8), nullptr);

  auto refused = registry.CreateArray(4, 8, 1);
  ASSERT_FALSE(refused.ok()) << "map 4096 was accepted";
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(registry.Descriptors().size(), 4095u);
}

TEST(Maps, RandomizedVsReferenceModel) {
  MapRegistry registry;
  auto desc = registry.CreateHash(8, 8, 256);
  ASSERT_TRUE(desc.ok());
  Map* map = registry.Find(desc->id);
  std::map<uint64_t, uint64_t> model;
  Rng rng(7);
  for (int i = 0; i < 20000; i++) {
    uint64_t key = rng.NextBounded(512);
    switch (rng.NextBounded(3)) {
      case 0: {
        uint64_t value = rng.Next();
        int rc = map->Update(reinterpret_cast<uint8_t*>(&key),
                             reinterpret_cast<uint8_t*>(&value));
        if (model.size() < 256 || model.count(key) != 0) {
          ASSERT_EQ(rc, 0);
          model[key] = value;
        } else {
          ASSERT_EQ(rc, -1);
        }
        break;
      }
      case 1: {
        uint64_t va = map->Lookup(reinterpret_cast<uint8_t*>(&key));
        if (model.count(key) != 0) {
          ASSERT_NE(va, 0u);
          uint64_t got;
          std::memcpy(&got, map->TranslateValue(va, 8), 8);
          ASSERT_EQ(got, model[key]);
        } else {
          ASSERT_EQ(va, 0u);
        }
        break;
      }
      case 2: {
        int rc = map->Delete(reinterpret_cast<uint8_t*>(&key));
        ASSERT_EQ(rc == 0, model.erase(key) == 1);
        break;
      }
    }
  }
}

TEST(Heap, UserAndKernelViewsShareMemory) {
  HeapSpec spec;
  spec.size = kHeapSize;
  auto heap = ExtensionHeap::Create(spec);
  ASSERT_TRUE(heap.ok());
  const HeapLayout& layout = heap.value()->layout();
  MemFaultKind fk = MemFaultKind::kNone;
  uint8_t* kernel_view = heap.value()->TranslateKernel(layout.kernel_base + 64, 8, fk);
  ASSERT_NE(kernel_view, nullptr);
  uint8_t* user_view = heap.value()->TranslateUser(layout.user_base + 64, 8, fk);
  ASSERT_NE(user_view, nullptr);
  EXPECT_EQ(kernel_view, user_view);
  // Bases are size-aligned: one mask extracts the same offset in both views.
  EXPECT_EQ(layout.kernel_base & layout.mask(), 0u);
  EXPECT_EQ(layout.user_base & layout.mask(), 0u);
}

}  // namespace
}  // namespace kflex
