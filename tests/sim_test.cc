// Closed-loop simulator: deterministic scenarios with analytically known
// outcomes, plus smoke checks that the paper's qualitative ordering
// (KFlex > BMC > user space) emerges from the real data planes. Open-loop
// core: exact CostModel pricing, seed determinism and the price of an
// unattached request on a one-shard runtime.
#include "src/sim/closedloop.h"

#include <gtest/gtest.h>

#include "src/ebpf/assembler.h"
#include "src/kernel/costmodel.h"
#include "src/sim/kv_models.h"
#include "src/sim/openloop.h"

namespace kflex {
namespace {

// Fixed-service-time model for analytic checks.
class FixedModel : public ServiceModel {
 public:
  explicit FixedModel(uint64_t ns) : ns_(ns) {}
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override {
    calls_++;
    return ns_;
  }
  uint64_t calls() const { return calls_; }

 private:
  uint64_t ns_;
  uint64_t calls_ = 0;
};

TEST(ClosedLoop, SaturatedThroughputMatchesServiceRate) {
  // Many clients, 4 servers, 1 us per request -> ~4 requests/us total.
  FixedModel model(1000);
  ClosedLoopConfig config;
  config.server_threads = 4;
  config.clients = 256;
  config.total_requests = 50'000;
  config.key_space = 100;
  ClosedLoopResult result = RunClosedLoop(model, config);
  EXPECT_NEAR(result.throughput_mops, 4.0, 0.4);
  EXPECT_EQ(model.calls(), config.total_requests);
}

TEST(ClosedLoop, LatencyScalesWithLoad) {
  FixedModel model(1000);
  ClosedLoopConfig light;
  light.server_threads = 8;
  light.clients = 8;  // one client per server: no queueing
  light.total_requests = 20'000;
  light.key_space = 100;
  ClosedLoopResult idle = RunClosedLoop(model, light);

  ClosedLoopConfig heavy = light;
  heavy.clients = 512;
  ClosedLoopResult busy = RunClosedLoop(model, heavy);

  // Under light load latency ~= rtt + service.
  EXPECT_LT(idle.latency.Percentile(0.5), light.rtt_ns + 1000 + 500);
  EXPECT_GT(busy.latency.Percentile(0.99), idle.latency.Percentile(0.99) * 4);
}

TEST(ClosedLoop, BackgroundTaskInflatesTail) {
  FixedModel model(1000);
  ClosedLoopConfig config;
  config.server_threads = 4;
  config.clients = 64;
  config.total_requests = 50'000;
  config.key_space = 100;
  ClosedLoopResult base = RunClosedLoop(model, config);

  BackgroundTask task;
  task.interval_ns = 2'000'000;                      // every 2 ms
  task.run = [](uint64_t) { return 400'000ULL; };    // 400 us stall
  ClosedLoopResult with_gc = RunClosedLoop(model, config, &task);

  EXPECT_GT(with_gc.latency.Percentile(0.99), base.latency.Percentile(0.99));
  EXPECT_LT(with_gc.throughput_mops, base.throughput_mops);
}

TEST(KvModels, MemcachedOrderingMatchesPaper) {
  CostModel cost;
  constexpr int kThreads = 2;
  constexpr uint64_t kKeys = 512;

  auto kflex = KflexMemcachedSystem::Create(cost, kThreads);
  ASSERT_TRUE(kflex.ok()) << kflex.status().ToString();
  (*kflex)->Prepopulate(kKeys);
  auto bmc = BmcSystem::Create(cost, kThreads);
  ASSERT_TRUE(bmc.ok());
  (*bmc)->Prepopulate(kKeys);
  auto user = UserMemcachedSystem::Create(cost, kThreads);
  ASSERT_TRUE(user.ok());
  (*user)->Prepopulate(kKeys);

  ClosedLoopConfig config;
  config.server_threads = kThreads;
  config.clients = 64;
  config.total_requests = 20'000;
  config.key_space = kKeys;
  config.get_fraction = 0.5;

  double kflex_mops = RunClosedLoop(**kflex, config).throughput_mops;
  double bmc_mops = RunClosedLoop(**bmc, config).throughput_mops;
  double user_mops = RunClosedLoop(**user, config).throughput_mops;

  EXPECT_GT(kflex_mops, bmc_mops) << "KFlex must beat BMC on mixed workloads";
  EXPECT_GT(bmc_mops, user_mops) << "BMC must beat pure user space";
  double speedup = kflex_mops / user_mops;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 6.0);
}

TEST(KvModels, RedisOrderingMatchesPaper) {
  CostModel cost;
  constexpr int kThreads = 2;
  constexpr uint64_t kKeys = 512;
  auto kflex = KflexRedisSystem::Create(cost, kThreads);
  ASSERT_TRUE(kflex.ok()) << kflex.status().ToString();
  (*kflex)->Prepopulate(kKeys);
  auto keydb = UserRedisSystem::Create(cost, kThreads);
  ASSERT_TRUE(keydb.ok());
  (*keydb)->Prepopulate(kKeys);

  ClosedLoopConfig config;
  config.server_threads = kThreads;
  config.clients = 64;
  config.total_requests = 20'000;
  config.key_space = kKeys;
  config.get_fraction = 0.9;

  double kflex_mops = RunClosedLoop(**kflex, config).throughput_mops;
  double keydb_mops = RunClosedLoop(**keydb, config).throughput_mops;
  double speedup = kflex_mops / keydb_mops;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 4.0) << "sk_skb keeps the TCP stack: gains must be moderate";
}

TEST(ClosedLoop, DeterministicForSeed) {
  FixedModel model_a(1500);
  FixedModel model_b(1500);
  ClosedLoopConfig config;
  config.server_threads = 4;
  config.clients = 128;
  config.total_requests = 30'000;
  config.key_space = 1000;
  config.seed = 77;
  ClosedLoopResult a = RunClosedLoop(model_a, config);
  ClosedLoopResult b = RunClosedLoop(model_b, config);
  EXPECT_EQ(a.simulated_ns, b.simulated_ns);
  EXPECT_EQ(a.latency.Percentile(0.99), b.latency.Percentile(0.99));
  EXPECT_DOUBLE_EQ(a.throughput_mops, b.throughput_mops);
}

TEST(ClosedLoop, MoreServersMoreThroughput) {
  FixedModel model(2000);
  ClosedLoopConfig config;
  config.clients = 256;
  config.total_requests = 30'000;
  config.key_space = 100;
  config.server_threads = 2;
  double two = RunClosedLoop(model, config).throughput_mops;
  config.server_threads = 8;
  double eight = RunClosedLoop(model, config).throughput_mops;
  EXPECT_GT(eight, two * 3.0) << "saturated throughput must scale with servers";
}

TEST(ClosedLoop, OpMixFollowsGetFraction) {
  class CountingModel : public ServiceModel {
   public:
    uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override {
      (op == KvOp::kGet ? gets : sets)++;
      return 500;
    }
    uint64_t gets = 0;
    uint64_t sets = 0;
  };
  CountingModel model;
  ClosedLoopConfig config;
  config.server_threads = 2;
  config.clients = 32;
  config.total_requests = 40'000;
  config.key_space = 100;
  config.get_fraction = 0.9;
  RunClosedLoop(model, config);
  double frac =
      static_cast<double>(model.gets) / static_cast<double>(model.gets + model.sets);
  EXPECT_NEAR(frac, 0.9, 0.01);
}

// ---- the open-loop core (src/sim/openloop.h) ----

constexpr uint32_t kOpenLoopCtx = 64;

// One guarded heap store through a ctx offset. The ctx stays zeroed, so
// every request retires the same plain and instrumentation instructions.
StatusOr<ShardExtId> LoadFixedStore(ShardedRuntime& sharded) {
  Assembler a;
  a.Ldx(BPF_W, R2, R1, 0);
  a.LoadHeapAddr(R3, 64);
  a.Add(R3, R2);
  a.StImm(BPF_DW, R3, 0, 1);
  a.MovImm(R0, 0);
  a.Exit();
  auto p = a.Finish("fixed_store", Hook::kTracepoint, ExtensionMode::kKflex, 1 << 16);
  if (!p.ok()) {
    return p.status();
  }
  LoadOptions lo;
  lo.heap_static_bytes = 128;
  return sharded.Load(*p, lo);
}

uint64_t ZeroCtx(uint64_t, uint64_t, uint64_t client, uint8_t*, uint32_t) { return client; }

OpenLoopConfig SmallOpenLoop() {
  OpenLoopConfig config;
  config.clients = 1000;
  config.total_requests = 2000;
  config.key_space = 1000;
  config.window = 128;
  return config;
}

TEST(OpenLoop, CapacityIsPricedByTheCostModel) {
  ShardedRuntime sharded;  // one shard
  auto ext = LoadFixedStore(sharded);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  uint8_t ctx[kOpenLoopCtx] = {0};
  InvokeResult one = sharded.InvokeSync(*ext, 0, ctx, sizeof(ctx));
  ASSERT_TRUE(one.attached && !one.cancelled);
  ASSERT_GT(one.instr_insns, 0u) << "the store should carry a Kie guard";
  const CostModel cost;
  const uint64_t service = cost.XdpPathUdp() + cost.ComputeNs(one.insns, one.instr_insns);

  OpenLoopConfig config = SmallOpenLoop();
  OpenLoopResult r = RunOpenLoop(sharded, *ext, config, kOpenLoopCtx, ZeroCtx);
  EXPECT_EQ(r.total_insns, config.total_requests * one.insns);
  EXPECT_EQ(r.simulated_busy_ns, config.total_requests * service);
  EXPECT_DOUBLE_EQ(r.throughput_mops * 1e6, 1e9 / static_cast<double>(service));
}

TEST(OpenLoop, SameSeedGivesIdenticalHistograms) {
  Histogram runs[2];
  for (Histogram& h : runs) {
    ShardedRuntime sharded;
    auto ext = LoadFixedStore(sharded);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    h = RunOpenLoop(sharded, *ext, SmallOpenLoop(), kOpenLoopCtx, ZeroCtx).latency;
  }
  EXPECT_GT(runs[0].count(), 0u);
  EXPECT_EQ(runs[0].min(), runs[1].min());
  EXPECT_EQ(runs[0].Summary(), runs[1].Summary());
}

TEST(OpenLoop, UnattachedRequestPaysTheFixedPathOnly) {
  ShardedRuntime sharded;
  auto ext = LoadFixedStore(sharded);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  // Detach the replica under the dispatcher: requests still run through the
  // shard, and Runtime::Invoke answers attached=false without executing.
  sharded.runtime().Unload(sharded.placement(*ext).replicas.front());

  OpenLoopPlan plan;
  plan.total_requests = 200;
  plan.window = 32;
  plan.ctx_stride = kOpenLoopCtx;
  OpenLoopHooks hooks;
  hooks.build = [&](uint64_t i, uint8_t*) {
    OpenLoopRequest req;
    req.ext = *ext;
    req.ctx_size = kOpenLoopCtx;
    req.flow_hash = i;
    return req;
  };
  uint64_t unattached = 0;
  hooks.account = [&](uint8_t, const InvokeResult& r) { unattached += r.attached ? 0 : 1; };
  hooks.record = [](uint8_t, uint64_t) {};
  OpenLoopTotals totals = RunOpenLoopCore(sharded, plan, hooks);
  EXPECT_EQ(unattached, plan.total_requests);
  EXPECT_EQ(totals.busy_ns, plan.total_requests * CostModel{}.XdpPathUdp());
}

}  // namespace
}  // namespace kflex
