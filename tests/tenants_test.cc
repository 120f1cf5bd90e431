// Multi-tenant scenario harness (src/sim/tenants.h): concurrent netfn
// tenants in one ShardedRuntime, certificate-gated placement, SLO
// accounting, and cancellation fairness against the adversarial neighbor.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/tenants.h"

namespace kflex {
namespace {

TenantScenarioConfig SmokeConfig() {
  TenantScenarioConfig config;
  config.num_shards = 2;
  config.total_requests = 2000;
  config.window = 128;
  config.fuel_quantum_insns = 3000;
  return config;
}

TEST(TenantScenario, BaselineRunsCleanWithoutAdversary) {
  TenantScenarioConfig config = SmokeConfig();
  config.adversary_period = 0;
  auto result = RunTenantScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tenants.size(), 3u);
  uint64_t total = 0;
  for (const TenantSlo& slo : result->tenants) {
    // Without a misbehaving neighbor every request completes: no budget
    // cancellations, no unloaded-slot rejects, live latency percentiles.
    EXPECT_EQ(slo.completed, slo.requests) << slo.name;
    EXPECT_EQ(slo.cancelled, 0u) << slo.name;
    EXPECT_EQ(slo.rejected, 0u) << slo.name;
    EXPECT_EQ(slo.obs_cancellations, 0u) << slo.name;
    EXPECT_EQ(slo.obs_invocations, slo.requests) << slo.name;
    EXPECT_GT(slo.p99_ns, 0u) << slo.name;
    EXPECT_GE(slo.p99_ns, slo.p50_ns) << slo.name;
    total += slo.requests;
  }
  EXPECT_EQ(total, config.total_requests);
  EXPECT_GT(result->capacity_rps, 0.0);
  EXPECT_EQ(result->shard_stats.size(), 2u);
}

TEST(TenantScenario, PlacementIsCertificateGated) {
  auto result = RunTenantScenario(SmokeConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tenants.size(), 4u);
  // Both XDP packet tenants funnel every shared access through their spin
  // lock; the aggregator is all atomics; the neighbor's naked heap store
  // demotes it to serial-only, pinning it to a home shard.
  EXPECT_EQ(result->tenants[0].name, "netfn_lb");
  EXPECT_EQ(result->tenants[0].shard_safety, "lock-protected");
  EXPECT_TRUE(result->tenants[0].replicated);
  EXPECT_EQ(result->tenants[1].name, "netfn_guard");
  EXPECT_EQ(result->tenants[1].shard_safety, "lock-protected");
  EXPECT_TRUE(result->tenants[1].replicated);
  EXPECT_EQ(result->tenants[2].name, "netfn_traceagg");
  EXPECT_EQ(result->tenants[2].shard_safety, "race-free");
  EXPECT_TRUE(result->tenants[2].replicated);
  EXPECT_EQ(result->tenants[3].name, "netfn_adversary");
  EXPECT_EQ(result->tenants[3].shard_safety, "serial-only");
  EXPECT_FALSE(result->tenants[3].replicated);
}

TEST(TenantScenario, AdversaryIsCancelledWithinBudgetAndNeighborsStayClean) {
  TenantScenarioConfig config = SmokeConfig();
  auto result = RunTenantScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->tenants.size(), 4u);
  const TenantSlo& adversary = result->tenants[3];
  // The neighbor's unbounded loop trips the fuel budget at least once per
  // re-arm window, and the overrun stays near the quantum (clock-sampled
  // cancellation points fire within one sampling stride of the budget).
  EXPECT_GT(adversary.cancelled, 0u);
  EXPECT_EQ(adversary.completed, 0u);
  EXPECT_GT(adversary.rejected, 0u);
  EXPECT_EQ(adversary.cancelled + adversary.rejected, adversary.requests);
  EXPECT_GE(adversary.max_cancel_insns, config.fuel_quantum_insns * 9 / 10);
  EXPECT_LE(adversary.max_cancel_insns,
            config.fuel_quantum_insns + config.fuel_quantum_insns / 2 + 1024);
  EXPECT_EQ(adversary.obs_cancellations, adversary.cancelled);
  // Cancellation is scoped to the offender: the well-behaved tenants never
  // get cancelled and never see an unloaded slot.
  for (int t = 0; t < 3; t++) {
    const TenantSlo& slo = result->tenants[static_cast<size_t>(t)];
    EXPECT_EQ(slo.cancelled, 0u) << slo.name;
    EXPECT_EQ(slo.rejected, 0u) << slo.name;
    EXPECT_EQ(slo.obs_cancellations, 0u) << slo.name;
    EXPECT_EQ(slo.completed, slo.requests) << slo.name;
  }
}

TEST(TenantScenario, MetricsJsonCarriesExtensionsAndShards) {
  auto result = RunTenantScenario(SmokeConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The document is the kflex_run --metrics=json shape (kflex-top
  // --check-schema validates it end-to-end in the tenants-smoke ctest entry).
  EXPECT_NE(result->metrics_json.find("\"extensions\""), std::string::npos);
  EXPECT_NE(result->metrics_json.find("\"shards\""), std::string::npos);
  EXPECT_NE(result->metrics_json.find("netfn_lb"), std::string::npos);
  EXPECT_NE(result->metrics_json.find("netfn_adversary"), std::string::npos);
}

TEST(TenantScenario, RejectsBadConfig) {
  TenantScenarioConfig config = SmokeConfig();
  config.total_requests = 0;
  EXPECT_FALSE(RunTenantScenario(config).ok());
  config = SmokeConfig();
  config.num_shards = 0;
  EXPECT_FALSE(RunTenantScenario(config).ok());
  // No positive replay rate: the arrival gaps would be infinite or negative.
  for (double load : {0.0, -0.5}) {
    config = SmokeConfig();
    config.offered_load = load;
    EXPECT_FALSE(RunTenantScenario(config).ok()) << load;
  }
  // More shards than a replay record can name.
  config = SmokeConfig();
  config.num_shards = 257;
  EXPECT_FALSE(RunTenantScenario(config).ok());
}

}  // namespace
}  // namespace kflex
