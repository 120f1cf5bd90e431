#include "src/sim/openloop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/kernel/costmodel.h"
#include "src/obs/obs.h"

namespace kflex {

namespace {

struct Slot {
  InvokeResult result;
};

void WriteSlot(const InvokeResult& result, void* user) {
  static_cast<Slot*>(user)->result = result;
}

// Per-request pricing record kept for the latency replay.
struct Priced {
  uint32_t service_ns = 0;
  uint8_t shard = 0;
  uint8_t tag = 0;
};

constexpr int kMaxShards = std::numeric_limits<decltype(Priced::shard)>::max() + 1;

}  // namespace

Status CheckOpenLoopPlan(const OpenLoopPlan& plan, int num_shards) {
  if (plan.total_requests == 0 || plan.window == 0 || plan.ctx_stride == 0) {
    return InvalidArgument("open loop: no requests, window or ctx");
  }
  if (num_shards < 1 || num_shards > kMaxShards) {
    return InvalidArgument("open loop: shard count must be in [1, " +
                           std::to_string(kMaxShards) + "]");
  }
  if (plan.warmup_pct < 0 || plan.warmup_pct >= 100) {
    return InvalidArgument("open loop: warm-up must be in [0, 100) percent");
  }
  if (!(plan.replay_rate_rps > 0) && !(plan.offered_load > 0)) {
    return InvalidArgument("open loop: the replay needs a positive arrival rate");
  }
  return OkStatus();
}

OpenLoopTotals RunOpenLoopCore(ShardedRuntime& sharded, const OpenLoopPlan& plan,
                               const OpenLoopHooks& hooks) {
  const int num_shards = sharded.num_shards();
  KFLEX_CHECK(CheckOpenLoopPlan(plan, num_shards).ok());
  const CostModel cost;

  // ---- phase 1: capacity (real execution, per-shard busy accounting) ----
  std::vector<Priced> priced(plan.total_requests);
  std::vector<uint64_t> busy(static_cast<size_t>(num_shards), 0);
  std::vector<uint8_t> ctx_pool(plan.window * plan.ctx_stride);
  std::vector<Slot> slots(plan.window);
  std::vector<OpenLoopRequest> requests(plan.window);

  uint64_t submitted = 0;
  while (submitted < plan.total_requests) {
    uint64_t n = std::min(plan.window, plan.total_requests - submitted);
    for (uint64_t w = 0; w < n; w++) {
      uint8_t* ctx = ctx_pool.data() + w * plan.ctx_stride;
      std::fill(ctx, ctx + plan.ctx_stride, 0);
      requests[w] = hooks.build(submitted + w, ctx);
      slots[w].result = InvokeResult{};
      ShardRequest req;
      req.ext = requests[w].ext;
      req.ctx = ctx;
      req.ctx_size = requests[w].ctx_size;
      req.flow_hash = requests[w].flow_hash;
      req.on_done = WriteSlot;
      req.user = &slots[w];
      // The generator is open-loop in simulated time; in host time we
      // backpressure on a full ring rather than drop (drops here would just
      // measure the build machine).
      while (!sharded.Submit(req)) {
        std::this_thread::yield();
      }
    }
    sharded.Flush();
    for (uint64_t w = 0; w < n; w++) {
      const OpenLoopRequest& req = requests[w];
      const InvokeResult& r = slots[w].result;
      hooks.account(req.tag, r);
      uint64_t service = cost.XdpPathUdp() + cost.ComputeNs(r.insns, r.instr_insns);
      const ShardPlacement& place = sharded.placement(req.ext);
      int shard = place.replicated ? ShardForHash(req.flow_hash, num_shards)
                                   : place.home_shard;
      Priced& p = priced[submitted + w];
      p.service_ns = static_cast<uint32_t>(service);
      p.shard = static_cast<uint8_t>(shard);
      p.tag = req.tag;
      busy[static_cast<size_t>(shard)] += service;
    }
    submitted += n;
    if (hooks.end_window) {
      hooks.end_window();
    }
    KFLEX_TRACE(ObsEvent::kSimProgress, submitted, 0);
  }

  OpenLoopTotals totals;
  totals.busy_ns = std::max<uint64_t>(1, *std::max_element(busy.begin(), busy.end()));

  // ---- phase 2: latency replay ----
  // Burst arrivals on an exponential schedule: one burst every
  // burst_size / offered_rate ns on average.
  double offered_rate =  // requests per simulated ns
      plan.replay_rate_rps > 0
          ? plan.replay_rate_rps * 1e-9
          : plan.offered_load * static_cast<double>(plan.total_requests) /
                static_cast<double>(totals.busy_ns);
  totals.replay_rate_rps = offered_rate * 1e9;
  const uint64_t burst = static_cast<uint64_t>(std::max(1, plan.burst_size));
  double mean_burst_gap = static_cast<double>(burst) / offered_rate;
  std::vector<uint64_t> clock(static_cast<size_t>(num_shards), 0);
  Rng replay_rng(plan.seed ^ 0x5eedULL);
  double arrival = 0;
  uint64_t warmup = plan.total_requests * static_cast<uint64_t>(plan.warmup_pct) / 100;
  for (uint64_t i = 0; i < plan.total_requests; i++) {
    if (i % burst == 0) {
      double u = replay_rng.NextDouble();
      arrival += -std::log(u <= 0 ? 1e-12 : u) * mean_burst_gap;
    }
    const Priced& p = priced[i];
    uint64_t at = static_cast<uint64_t>(arrival);
    uint64_t start = std::max(at, clock[p.shard]);
    uint64_t done = start + p.service_ns;
    clock[p.shard] = done;
    if (i >= warmup) {
      hooks.record(p.tag, done - at);
    }
  }
  return totals;
}

OpenLoopResult RunOpenLoop(ShardedRuntime& sharded, ShardExtId ext,
                           const OpenLoopConfig& config, uint32_t ctx_size,
                           const RequestBuilder& build) {
  OpenLoopPlan plan;
  plan.total_requests = config.total_requests;
  plan.window = config.window;
  plan.ctx_stride = ctx_size;
  plan.burst_size = config.burst_size;
  plan.warmup_pct = config.warmup_pct;
  plan.seed = config.seed;
  plan.offered_load = config.offered_load;

  Rng rng(config.seed);
  ZipfGenerator zipf(config.key_space, config.zipf_theta);
  OpenLoopResult result;
  OpenLoopHooks hooks;
  hooks.build = [&](uint64_t i, uint8_t* ctx) {
    uint64_t key = zipf.Next(rng);
    uint64_t client = rng.Next() % std::max<uint64_t>(1, config.clients);
    OpenLoopRequest req;
    req.ext = ext;
    req.ctx_size = ctx_size;
    req.flow_hash = build(i, key, client, ctx, ctx_size);
    return req;
  };
  hooks.account = [&](uint8_t, const InvokeResult& r) {
    // A cancellation here means the workload is misconfigured (e.g. writes
    // outside the populated heap); the generator has no recovery story.
    KFLEX_CHECK(r.attached && !r.cancelled);
    result.total_insns += r.insns;
  };
  hooks.record = [&](uint8_t, uint64_t latency_ns) { result.latency.Record(latency_ns); };

  result.simulated_busy_ns = RunOpenLoopCore(sharded, plan, hooks).busy_ns;
  result.measured_requests = config.total_requests;
  result.throughput_mops = static_cast<double>(result.measured_requests) * 1000.0 /
                           static_cast<double>(result.simulated_busy_ns);
  result.shard_stats = sharded.SnapshotStats();
  return result;
}

}  // namespace kflex
