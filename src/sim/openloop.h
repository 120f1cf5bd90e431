// Open-loop burst load generation against the sharded dispatcher
// (docs/sharding.md; the scaling experiments behind BENCH_scale.json).
//
// Unlike the closed loop (closedloop.h), arrivals here are independent of
// completions: a population of 10^5-10^6 clients emits bursts on an
// exponential schedule, so queueing delay is visible (the open-loop property
// the tail-at-scale literature insists on). Every request is *actually
// executed* through the real threaded ShardedRuntime — steering decisions,
// ingress rings, batches, forward/steal counters are all real — and its
// measured instruction counts price it in simulated time. CostModel alone
// sets that price (XdpPathUdp() + ComputeNs(insns, instr_insns)), so the
// figures are modelled, not wall-clock measurements. The host has however
// many cores it has (often one); throughput and latency come from the
// discrete-event replay over per-shard virtual clocks, so the reported
// scaling reflects the dispatcher's steering balance and the workload's
// shard-parallelism, not the build machine.
//
// Two phases per run:
//   1. capacity: execute all requests, accumulate per-shard busy time;
//      saturated throughput = requests / busiest-shard-busy-ns (the
//      bottleneck shard governs, which is what pins serial-only extensions
//      to the single-shard figure).
//   2. latency replay: re-run arithmetic only, with the burst arrival
//      schedule offered at `offered_load` x the measured capacity, giving
//      the latency distribution at a sane operating point.
//
// RunOpenLoopCore runs both phases for two callers: RunOpenLoop below (one
// extension, Zipf keys over a client population) and RunTenantScenario
// (tenants.h: a tenant mix that tolerates cancellation).
#ifndef SRC_SIM_OPENLOOP_H_
#define SRC_SIM_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/shard/shard.h"

namespace kflex {

// What the core runs, whichever caller builds the requests. Fields named as
// in OpenLoopConfig below mean the same there.
struct OpenLoopPlan {
  uint64_t total_requests = 0;
  uint64_t window = 0;
  uint32_t ctx_stride = 0;  // ctx bytes reserved, and zeroed, per request
  int burst_size = 8;
  int warmup_pct = 10;
  uint64_t seed = 0;  // the replay's arrival draws
  // The replay's arrival rate: replay_rate_rps (requests per second) when
  // positive, else offered_load x the measured capacity.
  double offered_load = 0.7;
  double replay_rate_rps = 0;
};

// One request, as the caller describes it.
struct OpenLoopRequest {
  ShardExtId ext = 0;
  uint32_t ctx_size = 0;
  uint64_t flow_hash = 0;
  uint8_t tag = 0;  // the caller's class for the request (a tenant)
};

struct OpenLoopHooks {
  // Fills request i's zeroed ctx and says where the request goes.
  std::function<OpenLoopRequest(uint64_t i, uint8_t* ctx)> build;
  // Accounts each result in submission order, once its window has drained.
  std::function<void(uint8_t tag, const InvokeResult& result)> account;
  // Runs after each window is accounted; may be empty.
  std::function<void()> end_window;
  // Receives each replayed latency after the warm-up (simulated ns).
  std::function<void(uint8_t tag, uint64_t latency_ns)> record;
};

struct OpenLoopTotals {
  uint64_t busy_ns = 0;        // the busiest shard's simulated busy time, >= 1
  double replay_rate_rps = 0;  // the arrival rate phase 2 replayed at
};

// InvalidArgument for a plan the core cannot run on `num_shards` shards: no
// requests, window or ctx; fewer than 1 or more than 256 shards (a replay
// record names its shard in one byte); a warm-up outside [0, 100) percent; or
// no positive replay rate (the arrival gaps would be infinite or negative).
Status CheckOpenLoopPlan(const OpenLoopPlan& plan, int num_shards);

// Runs both phases for `plan`, which must pass CheckOpenLoopPlan. Each
// request is priced once, at CostModel{}.XdpPathUdp() +
// CostModel{}.ComputeNs(insns, instr_insns); an unattached request executed
// nothing and pays the fixed path cost only.
OpenLoopTotals RunOpenLoopCore(ShardedRuntime& sharded, const OpenLoopPlan& plan,
                               const OpenLoopHooks& hooks);

struct OpenLoopConfig {
  // Distinct clients (flows). Steering sees this many different 5-tuples;
  // the scale bench runs 10^5 (smoke) to 10^6 (full).
  uint64_t clients = 1'000'000;
  uint64_t total_requests = 100'000;
  // Requests arrive in bursts of this size (one burst = one arrival event),
  // modelling coalesced NIC RX and the bursty arrivals of many independent
  // clients.
  int burst_size = 8;
  // Offered load for the latency replay, as a fraction of measured capacity.
  double offered_load = 0.7;
  // Heavy-tailed key popularity (paper: Zipf s = 0.99).
  uint64_t key_space = 100'000;
  double zipf_theta = 0.99;
  uint64_t seed = 42;
  // Fraction (percent) of leading samples discarded as warm-up.
  int warmup_pct = 10;
  // Execution window: requests submitted to the dispatcher before each
  // drain barrier. Bounded so a million-request run needs O(window) memory.
  uint64_t window = 2048;
};

// Fills the ctx buffer for request i and returns its flow hash (what the
// caller would pass to ShardedRuntime::Submit).
using RequestBuilder = std::function<uint64_t(uint64_t i, uint64_t key, uint64_t client,
                                              uint8_t* ctx, uint32_t ctx_size)>;

struct OpenLoopResult {
  // Saturated capacity (million requests per simulated second): the scaling
  // figure (Fig. 8/9 analogue).
  double throughput_mops = 0;
  // Latency distribution at offered_load x capacity (simulated ns).
  Histogram latency;
  uint64_t measured_requests = 0;
  uint64_t simulated_busy_ns = 0;  // busiest shard's busy time
  uint64_t total_insns = 0;
  // Dispatcher counters after the run (forward/steal/drop/batch occupancy).
  std::vector<ShardStats> shard_stats;
};

// Every request must complete: a cancellation or an unattached result aborts,
// since it means the workload is misconfigured.
OpenLoopResult RunOpenLoop(ShardedRuntime& sharded, ShardExtId ext,
                           const OpenLoopConfig& config, uint32_t ctx_size,
                           const RequestBuilder& build);

}  // namespace kflex

#endif  // SRC_SIM_OPENLOOP_H_
