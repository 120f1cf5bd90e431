// Multi-tenant SLO harness (ROADMAP item 4, docs/scenarios.md): loads the
// three netfn tenants (L4 load balancer, DDoS guard, trace aggregator) plus
// an optional adversarial neighbor into ONE ShardedRuntime, drives
// deterministic mixed traffic through the shared open-loop core
// (RunOpenLoopCore in src/sim/openloop.h), and distills per-tenant SLOs — p99
// latency, drop rate, cancellation fairness — from per-extension obs metrics
// and runtime stats.
//
// Unlike RunOpenLoop, this scenario *tolerates* cancellations: the
// adversarial neighbor (an unbounded loop under CancellationMode::
// kClockSampled) is budget-cancelled by fuel_quantum_insns on every
// invocation, priced at the instructions it actually burned, and re-armed
// (Runtime::Reset) at the next window boundary — which is exactly the
// interference model the SLO assertions quantify.
#ifndef SRC_SIM_TENANTS_H_
#define SRC_SIM_TENANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/runtime/runtime.h"
#include "src/shard/shard.h"

namespace kflex {

struct TenantScenarioConfig {
  int num_shards = 4;
  uint64_t total_requests = 20000;
  uint32_t window = 256;  // submit/flush batch (and neighbor re-arm cadence)
  uint64_t seed = 42;
  // Every adversary_period-th request goes to the adversarial neighbor;
  // 0 disables the neighbor entirely (the baseline run).
  uint32_t adversary_period = 16;
  // The neighbor's cancellation budget (RuntimeOptions::fuel_quantum_insns).
  uint64_t fuel_quantum_insns = 4000;
  // Latency replay.
  double offered_load = 0.6;
  int burst_size = 8;
  int warmup_pct = 10;
  // When nonzero, replay arrivals at this absolute rate (requests per
  // second) instead of offered_load x measured capacity — lets the bench
  // replay the baseline and the contended run at the same offered traffic.
  double replay_rate_rps = 0;
  // Workload shape.
  uint64_t key_space = 4096;
  double zipf_theta = 0.99;
  uint32_t num_backends = 8;
  uint32_t syn_threshold = 600;
  uint32_t burst_tokens = 64;
  uint32_t refill_per_tick = 512;
  // Engine for every tenant (the runtime still falls back per-extension
  // when an engine cannot honor an option).
  EngineChoice engine;
};

struct TenantSlo {
  std::string name;
  // Certificate-gated placement, as the dispatcher resolved it.
  std::string shard_safety;
  bool replicated = false;
  // Phase-1 outcome counts.
  uint64_t requests = 0;   // submitted to this tenant
  uint64_t completed = 0;  // attached && !cancelled
  uint64_t cancelled = 0;  // budget cancellations (the neighbor)
  uint64_t rejected = 0;   // arrived between a cancellation and the re-arm
  uint64_t verdict_drops = 0;  // kXdpDrop policy verdicts
  uint64_t total_insns = 0;
  uint64_t max_cancel_insns = 0;  // worst budget overrun observed
  // Per-extension obs metrics, summed over shard replicas.
  uint64_t obs_invocations = 0;
  uint64_t obs_cancellations = 0;
  // Phase-2 simulated latency.
  Histogram latency;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

struct TenantScenarioResult {
  std::vector<TenantSlo> tenants;  // lb, guard, traceagg [, adversary]
  uint64_t simulated_busy_ns = 0;  // busiest shard
  double capacity_rps = 0;         // requests / busiest-shard-busy
  double replay_rate_rps = 0;      // arrival rate used in phase 2
  std::vector<ShardStats> shard_stats;
  // ObsSnapshotToJson document with the dispatcher's "shards" array spliced
  // in — the same shape kflex_run --metrics=json emits, so kflex-top
  // --check-schema validates it.
  std::string metrics_json;
};

// Returns InvalidArgument, before loading anything, for a config the
// open-loop core cannot run (CheckOpenLoopPlan in openloop.h).
StatusOr<TenantScenarioResult> RunTenantScenario(const TenantScenarioConfig& config);

// The misbehaving neighbor: an unbounded loop hammering its private heap.
// Unprotected heap stores -> kSerialOnly certificate (pinned to its home
// shard); no loop bound -> only loadable because Kie plants cancellation
// points, and under kClockSampled every invocation is fuel-cancelled.
Program BuildAdversarialNeighbor();

}  // namespace kflex

#endif  // SRC_SIM_TENANTS_H_
