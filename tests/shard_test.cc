// Sharded-dispatch end-to-end tests (docs/sharding.md), the `shard` ctest
// tier. The tsan preset builds this binary with -fsanitize=thread and runs
// it together with the concurrency tier, so every scenario here must be
// data-race-free by construction:
//
//  * steering determinism: a key hashes to one shard, forever;
//  * certificate-gated placement: race-free / lock-protected programs
//    replicate across shards, serial-only programs pin to a home shard and
//    steered-elsewhere requests are forwarded (counted + traced);
//  * batched dispatch computes exactly what one-at-a-time Runtime::Invoke
//    computes;
//  * quiesced unload drains in-flight batches and leaves the invariant
//    sweep green;
//  * a 4-shard mixed-extension run with multiple producers (the MPMC
//    ingress), stealing and forwarding all active;
//  * every accepted request completes exactly once, even a stolen pinned
//    request that cannot go back home;
//  * loads and map creation racing submits: the registries an invocation
//    reads grow while it runs.
//
// Interpreter engine only (the default): JIT code is not TSan-instrumented.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/ebpf/assembler.h"
#include "src/ebpf/helper_ids.h"
#include "src/kernel/packet.h"
#include "src/obs/obs.h"
#include "src/shard/ingress.h"
#include "src/shard/shard.h"
#include "src/shard/steering.h"

namespace kflex {
namespace {

constexpr uint64_t kHeapSize = 1 << 20;
// Shared heap words, past the reserved metadata at the front of the heap.
constexpr uint64_t kLockOff = 64;
constexpr uint64_t kCounterOff = 72;

Program MustBuild(Assembler& a, const char* name) {
  auto p = a.Finish(name, Hook::kXdp, ExtensionMode::kKflex, kHeapSize);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

// counter += 1 via the atomic fetch-add instruction: certified race-free.
Program AtomicCounterProgram() {
  Assembler a;
  a.LoadHeapAddr(R2, kCounterOff);
  a.MovImm(R3, 1);
  a.AtomicAdd(BPF_DW, R2, 0, R3);
  a.MovImm(R0, 0);
  a.Exit();
  return MustBuild(a, "atomic_counter");
}

// lock; counter++ (plain load/add/store); unlock: certified lock-protected.
Program LockedCounterProgram() {
  Assembler a;
  a.LoadHeapAddr(R1, kLockOff);
  a.Call(kHelperKflexSpinLock);
  a.LoadHeapAddr(R2, kCounterOff);
  a.Ldx(BPF_DW, R3, R2, 0);
  a.AddImm(R3, 1);
  a.Stx(BPF_DW, R2, 0, R3);
  a.LoadHeapAddr(R1, kLockOff);
  a.Call(kHelperKflexSpinUnlock);
  a.MovImm(R0, 0);
  a.Exit();
  return MustBuild(a, "locked_counter");
}

// counter++ with no lock and no atomic: certified serial-only, so the
// dispatcher pins it and the race never materializes.
Program RacyCounterProgram() {
  Assembler a;
  a.LoadHeapAddr(R2, kCounterOff);
  a.Ldx(BPF_DW, R3, R2, 0);
  a.AddImm(R3, 1);
  a.Stx(BPF_DW, R2, 0, R3);
  a.MovImm(R0, 0);
  a.Exit();
  return MustBuild(a, "racy_counter");
}

LoadOptions StaticHeapOptions() {
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  return lo;
}

uint64_t ReadHeapWord(Runtime& runtime, ExtensionId id, uint64_t off) {
  uint64_t v = 0;
  std::memcpy(&v, runtime.heap(id)->HostAt(off), sizeof(v));
  return v;
}

uint64_t SumCounters(ShardedRuntime& sharded, ShardExtId id) {
  uint64_t total = 0;
  for (ExtensionId rid : sharded.placement(id).replicas) {
    total += ReadHeapWord(sharded.runtime(), rid, kCounterOff);
  }
  return total;
}

// Completion callback: counts completed-attached requests.
void CountDone(const InvokeResult& result, void* user) {
  if (result.attached && !result.cancelled) {
    static_cast<std::atomic<uint64_t>*>(user)->fetch_add(1, std::memory_order_relaxed);
  }
}

ShardRequest CountedRequest(ShardExtId ext, uint64_t flow_hash, uint8_t* ctx,
                            uint32_t ctx_size, std::atomic<uint64_t>* done) {
  ShardRequest req;
  req.ext = ext;
  req.ctx = ctx;
  req.ctx_size = ctx_size;
  req.flow_hash = flow_hash;
  req.on_done = CountDone;
  req.user = done;
  return req;
}

// ---- steering ---------------------------------------------------------------

TEST(Steering, DeterministicPerKey) {
  for (uint64_t key = 0; key < 64; key++) {
    uint64_t h = ShardHashKey(key);
    EXPECT_EQ(h, ShardHashKey(key));
    for (int n : {1, 2, 4, 8}) {
      int shard = ShardForHash(h, n);
      EXPECT_EQ(shard, ShardForHash(h, n)) << "steering must be a pure function";
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, n);
    }
  }
}

TEST(Steering, KvCtxHashesKeyBytesAndFallsBackToTuple) {
  KvPacket a, b, c;
  a.SetKeyU64(42);
  b.SetKeyU64(42);
  b.SetTuple(0x0a000001, 1111, 11211);  // different flow, same key
  c.SetKeyU64(43);
  EXPECT_EQ(ShardHashKvCtx(a.data(), a.size()), ShardHashKvCtx(b.data(), b.size()))
      << "key-carrying requests steer by key, not by 5-tuple";
  EXPECT_NE(ShardHashKvCtx(a.data(), a.size()), ShardHashKvCtx(c.data(), c.size()));

  KvPacket keyless1, keyless2;
  keyless1.SetTuple(0x0a000001, 1111, 80);
  keyless2.SetTuple(0x0a000002, 2222, 80);
  EXPECT_NE(ShardHashKvCtx(keyless1.data(), keyless1.size()),
            ShardHashKvCtx(keyless2.data(), keyless2.size()));
}

TEST(Steering, SpreadsAcrossShards) {
  std::set<int> hit;
  for (uint64_t key = 0; key < 1000; key++) {
    hit.insert(ShardForHash(ShardHashKey(key), 8));
  }
  EXPECT_EQ(hit.size(), 8u) << "1000 keys must reach all 8 shards";
}

// ---- the ingress ring -------------------------------------------------------

TEST(Ingress, FifoBoundedNonBlocking) {
  IngressQueue<int> q(8);
  EXPECT_TRUE(q.EmptyApprox());
  int v = 0;
  EXPECT_FALSE(q.Pop(&v));
  for (int i = 0; i < 8; i++) {
    EXPECT_TRUE(q.Push(i));
  }
  EXPECT_FALSE(q.Push(99)) << "full ring must fail the push, not block";
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i) << "single-consumer drain preserves FIFO order";
  }
  EXPECT_FALSE(q.Pop(&v));
}

TEST(Ingress, MultiProducerCountsExact) {
  IngressQueue<int> q(1024);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; i++) {
        while (!q.Push(1)) {
          std::this_thread::yield();
        }
      }
    });
  }
  int drained = 0;
  int v = 0;
  while (drained < kProducers * kPerProducer) {
    if (q.Pop(&v)) {
      drained += v;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(drained, kProducers * kPerProducer);
  EXPECT_TRUE(q.EmptyApprox());
}

// ---- certificate-gated placement --------------------------------------------

TEST(Placement, CertificateGated) {
  ShardedRuntimeOptions opts;
  opts.num_shards = 4;
  ShardedRuntime sharded{opts};

  auto atomic_id = sharded.Load(AtomicCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(atomic_id.ok()) << atomic_id.status().ToString();
  const ShardPlacement& atomic_place = sharded.placement(*atomic_id);
  EXPECT_EQ(atomic_place.safety, ShardSafety::kRaceFree);
  EXPECT_TRUE(atomic_place.replicated);
  EXPECT_EQ(atomic_place.replicas.size(), 4u);

  auto locked_id = sharded.Load(LockedCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(locked_id.ok()) << locked_id.status().ToString();
  const ShardPlacement& locked_place = sharded.placement(*locked_id);
  EXPECT_EQ(locked_place.safety, ShardSafety::kLockProtected);
  EXPECT_TRUE(locked_place.replicated);
  EXPECT_EQ(locked_place.replicas.size(), 4u);

  auto racy_id = sharded.Load(RacyCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(racy_id.ok()) << racy_id.status().ToString();
  const ShardPlacement& racy_place = sharded.placement(*racy_id);
  EXPECT_EQ(racy_place.safety, ShardSafety::kSerialOnly);
  EXPECT_FALSE(racy_place.replicated);
  EXPECT_EQ(racy_place.replicas.size(), 1u);
  EXPECT_GE(racy_place.home_shard, 0);
  EXPECT_LT(racy_place.home_shard, 4);

  // Replicas are distinct extensions with distinct heaps (per-shard state).
  std::set<ExtensionId> distinct(atomic_place.replicas.begin(),
                                 atomic_place.replicas.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_NE(sharded.runtime().heap(atomic_place.replicas[0]),
            sharded.runtime().heap(atomic_place.replicas[1]));
}

TEST(Placement, SerialOnlyPinsAndForwards) {
  ScopedObsEnable obs{/*trace=*/true, /*metrics=*/false};
  ShardedRuntimeOptions opts;
  opts.num_shards = 4;
  ShardedRuntime sharded{opts};
  auto id = sharded.Load(RacyCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(id.ok());
  const ShardPlacement& place = sharded.placement(*id);
  const int home = place.home_shard;

  constexpr uint64_t kRequests = 200;
  std::atomic<uint64_t> done{0};
  uint8_t ctx[64] = {0};
  for (uint64_t i = 0; i < kRequests; i++) {
    ASSERT_TRUE(sharded.Submit(CountedRequest(*id, ShardHashKey(i), ctx, sizeof(ctx), &done)));
  }
  sharded.Flush();

  EXPECT_EQ(done.load(), kRequests);
  EXPECT_EQ(SumCounters(sharded, *id), kRequests)
      << "a pinned extension must count exactly: no concurrent entry";

  std::vector<ShardStats> stats = sharded.SnapshotStats();
  uint64_t forwarded = 0;
  for (int s = 0; s < 4; s++) {
    forwarded += stats[s].forwarded;
    if (s != home) {
      EXPECT_EQ(stats[s].invoked, 0u)
          << "serial-only invocations must only run on the home shard";
    }
  }
  EXPECT_EQ(stats[home].invoked, kRequests);
  EXPECT_GT(forwarded, 0u) << "requests steered off-home must be forwarded";

  bool saw_forward_event = false;
  for (const TraceEvent& e : Obs::Instance().SnapshotTrace()) {
    if (e.code == static_cast<uint16_t>(ObsEvent::kShardForward)) {
      saw_forward_event = true;
      EXPECT_EQ(e.a1, static_cast<uint64_t>(home));
    }
  }
  EXPECT_TRUE(saw_forward_event);
}

TEST(Placement, ReplicatedCountsExactAcrossShards) {
  ShardedRuntimeOptions opts;
  opts.num_shards = 4;
  ShardedRuntime sharded{opts};
  auto id = sharded.Load(AtomicCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(id.ok());

  constexpr uint64_t kRequests = 400;
  std::atomic<uint64_t> done{0};
  uint8_t ctx[64] = {0};
  for (uint64_t i = 0; i < kRequests; i++) {
    ASSERT_TRUE(sharded.Submit(CountedRequest(*id, ShardHashKey(i), ctx, sizeof(ctx), &done)));
  }
  sharded.Flush();
  EXPECT_EQ(done.load(), kRequests);
  EXPECT_EQ(SumCounters(sharded, *id), kRequests)
      << "replicated per-shard counters must sum to the request count";
}

// ---- batched dispatch equivalence -------------------------------------------

TEST(Batching, EquivalentToOneAtATimeInvoke) {
  constexpr uint64_t kRequests = 256;
  uint8_t ctx[64] = {0};

  // Reference: one-at-a-time Runtime::Invoke on a single CPU.
  RuntimeOptions ropts;
  ropts.num_cpus = 1;
  Runtime reference{ropts};
  auto ref_id = reference.Load(LockedCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(ref_id.ok());
  for (uint64_t i = 0; i < kRequests; i++) {
    InvokeResult r = reference.Invoke(*ref_id, 0, ctx, sizeof(ctx));
    ASSERT_TRUE(r.attached);
    ASSERT_EQ(r.outcome, VmResult::Outcome::kOk);
  }
  uint64_t ref_count = ReadHeapWord(reference, *ref_id, kCounterOff);
  ASSERT_EQ(ref_count, kRequests);

  // Batched: same program, same request count, through rings and batches.
  ShardedRuntimeOptions opts;
  opts.num_shards = 2;
  opts.batch_size = 8;
  ShardedRuntime sharded{opts};
  auto id = sharded.Load(LockedCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(id.ok());
  std::atomic<uint64_t> done{0};
  for (uint64_t i = 0; i < kRequests; i++) {
    InvokeResult r = sharded.InvokeSync(*id, ShardHashKey(i), ctx, sizeof(ctx));
    ASSERT_TRUE(r.attached);
    ASSERT_EQ(r.outcome, VmResult::Outcome::kOk);
    ASSERT_EQ(r.verdict, 0);
  }
  (void)done;
  EXPECT_EQ(SumCounters(sharded, *id), ref_count)
      << "batched dispatch must compute exactly what serial Invoke computes";

  // Batch accounting: every invocation belongs to a batch, occupancy never
  // exceeds the configured size.
  uint64_t invoked = 0, occupancy = 0, batches = 0;
  for (const ShardStats& s : sharded.SnapshotStats()) {
    invoked += s.invoked;
    occupancy += s.batch_occupancy_sum;
    batches += s.batches;
    if (s.batches > 0) {
      EXPECT_LE(s.batch_occupancy_sum, s.batches * 8);
    }
  }
  EXPECT_EQ(invoked, kRequests);
  EXPECT_EQ(occupancy, invoked);
  EXPECT_GT(batches, 0u);
}

// ---- quiesced unload --------------------------------------------------------

TEST(Unload, QuiescedDrainsInFlightBatches) {
  ShardedRuntimeOptions opts;
  opts.num_shards = 2;
  opts.batch_size = 8;
  ShardedRuntime sharded{opts};
  auto id = sharded.Load(LockedCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(id.ok());

  // Saturate the rings, then unload while workers are mid-drain.
  std::atomic<uint64_t> done{0};
  uint8_t ctx[64] = {0};
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < 600; i++) {
    if (sharded.Submit(CountedRequest(*id, ShardHashKey(i), ctx, sizeof(ctx), &done))) {
      accepted++;
    }
  }
  sharded.UnloadQuiesced(*id);

  // Every accepted request completed before the detach; none ran after.
  EXPECT_EQ(done.load(), accepted);
  EXPECT_EQ(SumCounters(sharded, *id), accepted);
  for (ExtensionId rid : sharded.placement(*id).replicas) {
    EXPECT_TRUE(sharded.runtime().IsUnloaded(rid));
    InvariantReport sweep = sharded.runtime().SweepInvariants(rid);
    EXPECT_TRUE(sweep.ok()) << sweep.ToString();
  }

  // Post-unload submits are rejected, not enqueued.
  EXPECT_FALSE(sharded.Submit(CountedRequest(*id, 1, ctx, sizeof(ctx), &done)));
  InvokeResult r = sharded.InvokeSync(*id, 2, ctx, sizeof(ctx));
  EXPECT_FALSE(r.attached);
}

// ---- the 4-shard mixed run (the tsan-preset scenario) -----------------------

TEST(FourShards, MixedExtensionsMultiProducer) {
  ShardedRuntimeOptions opts;
  opts.num_shards = 4;
  opts.batch_size = 16;
  ShardedRuntime sharded{opts};
  auto atomic_id = sharded.Load(AtomicCounterProgram(), StaticHeapOptions());
  auto locked_id = sharded.Load(LockedCounterProgram(), StaticHeapOptions());
  auto racy_id = sharded.Load(RacyCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(atomic_id.ok() && locked_id.ok() && racy_id.ok());

  constexpr int kProducers = 2;
  constexpr uint64_t kPerProducer = 300;  // per extension
  std::atomic<uint64_t> done{0};
  std::atomic<uint64_t> accepted{0};
  static uint8_t ctx[kProducers][64];  // workers read it after Submit returns
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      ShardExtId exts[3] = {*atomic_id, *locked_id, *racy_id};
      for (uint64_t i = 0; i < kPerProducer * 3; i++) {
        uint64_t key = static_cast<uint64_t>(p) * 100003 + i;
        ShardRequest req =
            CountedRequest(exts[i % 3], ShardHashKey(key), ctx[p], sizeof(ctx[p]), &done);
        while (!sharded.Submit(req)) {
          std::this_thread::yield();  // ring momentarily full: retry
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  sharded.Flush();

  const uint64_t expected = kProducers * kPerProducer;
  EXPECT_EQ(done.load(), 3 * expected);
  EXPECT_EQ(SumCounters(sharded, *atomic_id), expected);
  EXPECT_EQ(SumCounters(sharded, *locked_id), expected);
  EXPECT_EQ(SumCounters(sharded, *racy_id), expected)
      << "the serial-only extension must stay exact: pinning prevented the race";

  uint64_t invoked = 0;
  for (const ShardStats& s : sharded.SnapshotStats()) {
    invoked += s.invoked;
    EXPECT_EQ(s.queue_depth, 0u);
  }
  EXPECT_EQ(invoked, 3 * expected);

  for (ShardExtId id : {*atomic_id, *locked_id, *racy_id}) {
    for (ExtensionId rid : sharded.placement(id).replicas) {
      InvariantReport sweep = sharded.runtime().SweepInvariants(rid);
      EXPECT_TRUE(sweep.ok()) << sweep.ToString();
    }
  }
}

// ---- completion under stealing ----------------------------------------------

struct Completions {
  std::atomic<uint64_t> all{0};
  std::atomic<uint64_t> unattached{0};
};

void CountCompletion(const InvokeResult& result, void* user) {
  auto* c = static_cast<Completions*>(user);
  if (!result.attached) {
    c->unattached.fetch_add(1, std::memory_order_relaxed);
  }
  c->all.fetch_add(1, std::memory_order_relaxed);
}

TEST(Steal, AcceptedPinnedRequestAlwaysCompletes) {
  // Rings of two slots: a thief that pops a pinned request races the
  // producers for the slot its pop freed, and often loses the push back.
  ShardedRuntimeOptions opts;
  opts.num_shards = 4;
  opts.queue_capacity = 2;
  ShardedRuntime sharded{opts};
  auto id = sharded.Load(RacyCounterProgram(), StaticHeapOptions());
  ASSERT_TRUE(id.ok());
  ASSERT_FALSE(sharded.placement(*id).replicated);

  constexpr int kProducers = 3;
  constexpr uint64_t kSubmits = 20000;
  Completions completions;
  std::atomic<uint64_t> accepted{0};
  static uint8_t ctx[64];  // workers read it after Submit returns
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kSubmits; i++) {
        ShardRequest req;
        req.ext = *id;
        req.ctx = ctx;
        req.ctx_size = sizeof(ctx);
        req.flow_hash = ShardHashKey(static_cast<uint64_t>(p) * kSubmits + i);
        req.on_done = CountCompletion;
        req.user = &completions;
        if (sharded.Submit(req)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  sharded.Flush();

  EXPECT_EQ(completions.all.load(), accepted.load())
      << "every accepted request must run its callback exactly once";
  uint64_t dropped = 0;
  for (const ShardStats& s : sharded.SnapshotStats()) {
    dropped += s.dropped;
  }
  EXPECT_LE(completions.unattached.load(), dropped)
      << "a pinned request that could not go home is counted as a drop";
  EXPECT_EQ(SumCounters(sharded, *id), accepted.load() - completions.unattached.load())
      << "every attached completion ran the extension once";
}

// ---- registries growing under traffic ---------------------------------------

constexpr uint64_t kStoredValue = 0x5eed000000000001ULL;

// Looks up element 0 of map `map_id` and returns it, read through an atomic
// fetch-add of 0 so the certificate stays race-free (replicated).
Program MapReaderProgram(uint32_t map_id) {
  Assembler a;
  a.LoadMapPtr(R1, map_id);
  a.StImm(BPF_W, R10, -4, 0);
  a.Mov(R2, R10);
  a.AddImm(R2, -4);
  a.Call(kHelperMapLookupElem);
  a.MovImm(R1, 0);
  auto found = a.IfImm(BPF_JNE, R0, 0);
  a.AtomicAdd(BPF_DW, R0, 0, R1, /*fetch=*/true);
  a.EndIf(found);
  a.Mov(R0, R1);
  a.Exit();
  auto p = a.Finish("map_reader", Hook::kXdp, ExtensionMode::kEbpf, /*heap_size=*/0);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

StatusOr<MapDescriptor> CreateStoredMap(MapRegistry& maps) {
  auto desc = maps.CreateArray(4, 8, 1);
  if (desc.ok()) {
    const uint32_t key = 0;
    const uint64_t value = kStoredValue;
    EXPECT_EQ(maps.Find(desc->id)->Update(reinterpret_cast<const uint8_t*>(&key),
                                          reinterpret_cast<const uint8_t*>(&value)),
              0);
  }
  return desc;
}

struct ReaderTally {
  std::atomic<uint64_t> done{0};
  std::atomic<uint64_t> wrong{0};
};

void CountRead(const InvokeResult& result, void* user) {
  auto* tally = static_cast<ReaderTally*>(user);
  if (!result.attached || result.cancelled ||
      static_cast<uint64_t>(result.verdict) != kStoredValue) {
    tally->wrong.fetch_add(1, std::memory_order_relaxed);
  }
  tally->done.fetch_add(1, std::memory_order_relaxed);
}

TEST(Registries, LoadAndMapCreationRaceSubmits) {
  // Every table an invocation reads without a lock (both runtimes'
  // extensions, the maps, the obs slots) grows while producers submit.
  ShardedRuntimeOptions opts;
  opts.num_shards = 2;
  ShardedRuntime sharded{opts};
  MapRegistry& maps = sharded.runtime().maps();
  auto map = CreateStoredMap(maps);
  ASSERT_TRUE(map.ok());
  auto id = sharded.Load(MapReaderProgram(map->id));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(sharded.placement(*id).safety, ShardSafety::kRaceFree);

  constexpr int kProducers = 3;
  constexpr int kGrowth = 64;
  ReaderTally tally;
  std::atomic<uint64_t> accepted{0};
  std::atomic<bool> stop{false};
  static uint8_t ctx[64];  // workers read it after Submit returns
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; !stop.load(std::memory_order_acquire); i++) {
        ShardRequest req;
        req.ext = *id;
        req.ctx = ctx;
        req.ctx_size = sizeof(ctx);
        req.flow_hash = ShardHashKey((static_cast<uint64_t>(p) << 32) | i);
        req.on_done = CountRead;
        req.user = &tally;
        if (sharded.Submit(req)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int i = 0; i < kGrowth; i++) {
    auto grown = CreateStoredMap(maps);
    EXPECT_TRUE(grown.ok());
    if (grown.ok()) {
      EXPECT_TRUE(sharded.Load(MapReaderProgram(grown->id)).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : producers) {
    t.join();
  }
  sharded.Flush();

  EXPECT_GT(accepted.load(), 0u);
  EXPECT_EQ(tally.done.load(), accepted.load());
  EXPECT_EQ(tally.wrong.load(), 0u)
      << "every completion must be attached and read the stored value";
  EXPECT_EQ(maps.Descriptors().size(), static_cast<size_t>(kGrowth + 1));
}

}  // namespace
}  // namespace kflex
