// netfn_sharded: the three network functions (L4 load balancer, DDoS guard,
// trace aggregator) in one ShardedRuntime with three shards, fed by one
// generator thread. The traffic has the shape of the repository's multi-tenant
// scenario (src/sim/tenants.cc with the TenantScenarioConfig defaults): half
// load balancer over Zipf-popular 5-tuple flows, a quarter DDoS guard over a
// few sources, a quarter trace aggregator. Packets are steered by the library's
// RSS hash of their 5-tuple. Phase 1 is a closed loop with a fixed in-flight
// window (capacity); phase 2 an open loop with Poisson arrivals at a fixed rate
// (latency, timed from each request's scheduled send time). The programs are
// short, so dispatch, ingress, batching, stealing and the per-invoke floor
// dominate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/apps/netfn/netfn.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/kernel/packet.h"
#include "src/shard/shard.h"
#include "src/shard/steering.h"
#include "src/sim/tenants.h"
#include "src/uapi/user_heap.h"
#include "workloads.h"

namespace perfbench {

using namespace kflex;

namespace {

constexpr int kShards = 3;
constexpr int kWindow = 256;             // closed-loop requests in flight
constexpr double kOpenRate = 50000;      // open-loop arrivals per second
constexpr size_t kSlots = 1 << 12;       // open-loop requests in flight, at most
constexpr size_t kStreamLen = 1 << 18;   // cycled; generated before timing
constexpr uint64_t kWarmupRequests = 20000;
constexpr uint64_t kCountRequests = 100000;
// The scenario's traffic shape: 4096 LB flows, which fit the load balancer's
// 8192-entry flow-affinity map, and the guard and backend settings.
const TenantScenarioConfig kShape;
constexpr uint32_t kSources = 64;                // DDoS-guard source addresses
constexpr uint64_t kVirtualNsPerRequest = 800;   // guard token-refill clock

enum Fn : uint8_t { kLb = 0, kGuard = 1, kAgg = 2, kNumFns = 3 };
const char* const kFnNames[kNumFns] = {"lb", "ddos", "traceagg"};

struct Request {
  uint8_t fn = kLb;
  uint8_t proto = kProtoUdp;
  uint16_t port = 0;
  uint32_t ip = 0;      // source address; trace-aggregator event kind
  uint64_t value = 0;   // trace-aggregator latency sample
};

struct Inputs {
  std::vector<Request> stream;
  std::vector<double> gaps;  // unit-mean exponential inter-arrival gaps
};

// Half load balancer, a quarter guard, a quarter trace aggregator; LB flows
// Zipf-popular, half of the guard packets TCP, as in the scenario.
Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  ZipfGenerator zipf(kShape.key_space, kShape.zipf_theta);
  in.stream.resize(kStreamLen);
  for (size_t i = 0; i < kStreamLen; i++) {
    Request& r = in.stream[i];
    uint64_t lane = rng.NextBounded(8);
    if (lane < 4) {
      uint64_t f = zipf.Next(rng);
      r.fn = kLb;
      r.ip = 0x0A000000u | static_cast<uint32_t>(f & 0xFFFFFF);
      r.port = static_cast<uint16_t>(1024 + (f % 32768));
      r.proto = kProtoUdp;
    } else if (lane < 6) {
      uint64_t src = rng.NextBounded(kSources);
      r.fn = kGuard;
      r.ip = 0xC6336400u | static_cast<uint32_t>(src);
      r.port = 4242;
      r.proto = rng.NextBounded(2) == 0 ? kProtoTcp : kProtoUdp;
    } else {
      r.fn = kAgg;
      r.ip = static_cast<uint32_t>(rng.NextBounded(4));
      r.value = 100 + rng.NextBounded(4096);
    }
  }
  in.gaps.resize(kStreamLen);
  for (double& g : in.gaps) {
    double u = rng.NextDouble();
    g = -std::log(u <= 0 ? 1e-12 : u);
  }
  return in;
}

// A request in flight: its ctx buffer and the completion the worker posts.
struct Slot {
  std::atomic<bool> done{false};
  uint8_t fn = kNumFns;  // kNumFns: no request
  InvokeResult result;
  uint64_t sched_ns = 0;
  uint64_t done_ns = 0;
  alignas(64) uint8_t ctx[kCtxSize] = {};
};

void OnDone(const InvokeResult& result, void* user) {
  Slot* s = static_cast<Slot*>(user);
  s->result = result;
  s->done_ns = NowNs();
  s->done.store(true, std::memory_order_release);
}

// Writes the request's fields into a ctx buffer. The buffer is reused: its
// header is cleared first so that no field of an earlier request leaks in.
void FillCtx(const Request& r, uint64_t seq, uint8_t* ctx) {
  std::memset(ctx, 0, kDsCtxSize);
  if (r.fn == kAgg) {
    uint64_t kind = r.ip;
    std::memcpy(ctx + kDsOffOp, &kind, 8);
    std::memcpy(ctx + kDsOffValue, &r.value, 8);
    return;
  }
  const uint16_t dport = 443;
  std::memcpy(ctx + kOffSrcIp, &r.ip, 4);
  std::memcpy(ctx + kOffSrcPort, &r.port, 2);
  std::memcpy(ctx + kOffDstPort, &dport, 2);
  ctx[kOffProto] = r.proto;
  uint64_t now = seq * kVirtualNsPerRequest;
  std::memcpy(ctx + kOffZScore, &now, 8);
}

bool GoodResult(uint8_t fn, const InvokeResult& r) {
  if (!r.attached || r.cancelled) {
    return false;
  }
  switch (fn) {
    case kLb:
      return r.verdict == kXdpTx || r.verdict == kXdpDrop;
    case kGuard:
      return r.verdict == kXdpPass || r.verdict == kXdpDrop;
    default:
      return true;
  }
}

// The three functions loaded into one ShardedRuntime.
struct Netfn {
  std::unique_ptr<ShardedRuntime> sharded;
  ShardExtId ids[kNumFns] = {};
  uint32_t ctx_size[kNumFns] = {kCtxSize, kCtxSize, kDsCtxSize};
  uint64_t sent[kNumFns] = {};  // requests each function has served
  uint64_t seq = 0;             // next request; indexes the stream
  uint64_t bad = 0;             // completions that were not good results

  const Request& Next(const Inputs& in) { return in.stream[seq % in.stream.size()]; }

  void Submit(const Request& r, Slot& slot) {
    FillCtx(r, seq, slot.ctx);
    slot.fn = r.fn;
    slot.done.store(false, std::memory_order_relaxed);
    ShardRequest req;
    req.ext = ids[r.fn];
    req.ctx = slot.ctx;
    req.ctx_size = ctx_size[r.fn];
    // Packets are steered by their 5-tuple; trace events carry no flow and
    // are spread by sequence number.
    req.flow_hash =
        r.fn == kAgg ? ShardHashKey(seq) : ShardHashKvCtx(slot.ctx, ctx_size[r.fn]);
    req.on_done = OnDone;
    req.user = &slot;
    seq++;
    sent[r.fn]++;
    while (!sharded->Submit(req)) {
      std::this_thread::yield();  // ring full: counted as a drop by the shard
    }
  }

  void Complete(const Slot& slot, Report& report) {
    if (!GoodResult(slot.fn, slot.result)) {
      bad++;
      report.Fail(std::string(kFnNames[slot.fn]) + " request was not served");
    }
  }
};

std::unique_ptr<Netfn> SetUp(int shards, Report& report) {
  auto nf = std::make_unique<Netfn>();
  ShardedRuntimeOptions so;
  so.num_shards = shards;
  nf->sharded = std::make_unique<ShardedRuntime>(so);
  Runtime& rt = nf->sharded->runtime();

  StatusOr<LbBuild> lb = BuildL4LoadBalancer(rt.maps(), kShape.num_backends);
  GuardConfig gc;
  gc.syn_threshold = kShape.syn_threshold;
  gc.burst_tokens = kShape.burst_tokens;
  gc.refill_per_tick = kShape.refill_per_tick;
  StatusOr<Program> guard = BuildDdosGuard(gc);
  StatusOr<Program> agg = BuildTraceAggregator();
  if (!lb.ok() || !guard.ok() || !agg.ok()) {
    report.Fail("netfn programs did not build");
    return nullptr;
  }
  const Program* programs[kNumFns] = {&lb->program, &*guard, &*agg};
  const uint64_t statics[kNumFns] = {lb->static_bytes, GuardLayout::kStaticBytes,
                                     TraceAggLayout::kStaticBytes};
  for (int f = 0; f < kNumFns; f++) {
    LoadOptions lo = ShippedLoadOptions();
    lo.heap_static_bytes = statics[f];
    StatusOr<ShardExtId> id = nf->sharded->Load(*programs[f], lo);
    if (!id.ok()) {
      report.Fail(std::string(kFnNames[f]) + " did not load: " + id.status().message());
      return nullptr;
    }
    nf->ids[f] = *id;
    for (ExtensionId replica : nf->sharded->placement(*id).replicas) {
      if (!RunsNative(rt.engine_info(replica))) {
        report.Fail(std::string(kFnNames[f]) + " fell back from the JIT");
        return nullptr;
      }
    }
  }
  for (uint32_t b = 0; b < kShape.num_backends; b++) {
    if (!SetLbBackendHealth(rt.maps(), *lb, b, true).ok()) {
      report.Fail("lb backend health update failed");
      return nullptr;
    }
  }
  std::vector<uint64_t> ring = BuildLbRing(std::vector<uint8_t>(kShape.num_backends, 1));
  for (ExtensionId replica : nf->sharded->placement(nf->ids[kLb]).replicas) {
    if (!InstallLbRing(rt.heap(replica), ring)) {
      report.Fail("lb ring install failed");
      return nullptr;
    }
  }
  return nf;
}

// Closed loop: kWindow requests in flight, each completion replaced by the
// next request, until `deadline_ns` or `max_requests` completions. With
// `spans`, every Submit gets a shard.submit span. Returns completions.
// With `win`, completions before the deadline are counted per window.
uint64_t ClosedLoop(Netfn& nf, const Inputs& in, uint64_t deadline_ns, uint64_t max_requests,
                    SpanRecorder* spans, Report& report, Windows* win = nullptr) {
  std::unique_ptr<Slot[]> slots(new Slot[kWindow]);
  auto submit = [&](Slot& s) {
    const Request& r = nf.Next(in);
    if (spans != nullptr) {
      ScopedSpan span(*spans, "shard.submit", 0, nf.seq);
      nf.Submit(r, s);
    } else {
      nf.Submit(r, s);
    }
  };
  uint64_t submitted = 0;
  for (int i = 0; i < kWindow && submitted < max_requests; i++, submitted++) {
    submit(slots[i]);
  }
  uint64_t completed = 0;
  bool open = true;
  while (completed < submitted) {
    // Leave room in the span store for the per-function invoke timings.
    if (open && (NowNs() >= deadline_ns || submitted >= max_requests ||
                 (spans != nullptr && spans->free() < (kNumFns + 1) * kMaxTimedBatches))) {
      open = false;
    }
    for (int i = 0; i < kWindow; i++) {
      Slot& s = slots[i];
      if (s.fn == kNumFns || !s.done.load(std::memory_order_acquire)) {
        continue;
      }
      nf.Complete(s, report);
      completed++;
      if (open && win != nullptr) {
        win->AddOps(win->At(NowNs()), 1, 0);
      }
      if (open) {
        submit(s);
        submitted++;
      } else {
        s.fn = kNumFns;  // retired
      }
    }
  }
  return completed;
}

// Open loop: Poisson arrivals at kOpenRate until `deadline_ns`. Latency is
// completion time minus scheduled send time; lateness is actual minus
// scheduled send time. Returns completions.
uint64_t OpenLoop(Netfn& nf, const Inputs& in, uint64_t deadline_ns, Windows& latency,
                  Samples& late, Report& report) {
  std::unique_ptr<Slot[]> slots(new Slot[kSlots]);
  const double ns_per_unit = 1e9 / kOpenRate;
  uint64_t issued = 0;     // slots handed out, in order
  uint64_t harvested = 0;  // completed slots, in order
  double sched = static_cast<double>(NowNs());
  size_t gap = 0;
  auto harvest = [&] {
    while (harvested < issued) {
      Slot& s = slots[harvested % kSlots];
      if (!s.done.load(std::memory_order_acquire)) {
        break;
      }
      nf.Complete(s, report);
      latency.AddSample(latency.At(s.sched_ns), static_cast<double>(s.done_ns - s.sched_ns));
      harvested++;
    }
  };
  while (true) {
    const uint64_t due = static_cast<uint64_t>(sched);
    if (due >= deadline_ns) {
      break;
    }
    uint64_t now = NowNs();
    while (now < due) {
      harvest();
      now = NowNs();
    }
    while (issued - harvested >= kSlots) {  // backlog fills the slot pool
      harvest();
    }
    Slot& s = slots[issued % kSlots];
    s.sched_ns = due;
    nf.Submit(nf.Next(in), s);
    late.Add(static_cast<double>(NowNs() - due));
    issued++;
    sched += in.gaps[gap++ % in.gaps.size()] * ns_per_unit;
  }
  const uint64_t drain_deadline = NowNs() + 10'000'000'000ULL;
  while (harvested < issued && NowNs() < drain_deadline) {
    harvest();
  }
  if (harvested < issued) {
    report.Fail("open loop: requests never completed");
  }
  return harvested;
}

uint64_t ReadHeapWord(Runtime& rt, ExtensionId replica, uint64_t off) {
  UserHeapView view(rt.heap(replica));
  uint64_t v = 0;
  view.Load(view.AddrOf(off), v);
  return v;
}

// The replicas' own counters must add up to the requests each function was
// sent: LB backend packets + no-backend drops; guard passes + SYN and rate
// drops; trace-aggregator counts. Returns the number of missing or extra
// requests.
uint64_t CheckCounters(Netfn& nf, Report& report) {
  Runtime& rt = nf.sharded->runtime();
  uint64_t seen[kNumFns] = {};
  for (ExtensionId r : nf.sharded->placement(nf.ids[kLb]).replicas) {
    for (uint32_t b = 0; b < LbLayout::kMaxBackends; b++) {
      seen[kLb] += ReadHeapWord(rt, r, LbLayout::kStatsOff + b * 8);
    }
    seen[kLb] += ReadHeapWord(rt, r, LbLayout::kNoBackendOff);
  }
  for (ExtensionId r : nf.sharded->placement(nf.ids[kGuard]).replicas) {
    seen[kGuard] += ReadHeapWord(rt, r, GuardLayout::kPassOff) +
                    ReadHeapWord(rt, r, GuardLayout::kSynDropOff) +
                    ReadHeapWord(rt, r, GuardLayout::kRateDropOff);
  }
  for (ExtensionId r : nf.sharded->placement(nf.ids[kAgg]).replicas) {
    for (uint64_t k = 0; k < TraceAggLayout::kKinds; k++) {
      seen[kAgg] += ReadHeapWord(rt, r,
                                 TraceAggLayout::kBaseOff + k * TraceAggLayout::kKindStride +
                                     TraceAggLayout::kCountOff);
    }
  }
  uint64_t off = 0;
  for (int f = 0; f < kNumFns; f++) {
    if (seen[f] != nf.sent[f]) {
      off += seen[f] > nf.sent[f] ? seen[f] - nf.sent[f] : nf.sent[f] - seen[f];
      report.Fail(std::string(kFnNames[f]) + " counters saw " + std::to_string(seen[f]) +
                  " requests, sent " + std::to_string(nf.sent[f]));
    }
  }
  return off;
}

// Set-up of one run: inputs, the sharded runtime with its three functions,
// and a checked warm-up.
std::unique_ptr<Netfn> SetUpWarm(int shards, const Inputs& in, Report& report) {
  std::unique_ptr<Netfn> nf = SetUp(shards, report);
  if (nf != nullptr) {
    ClosedLoop(*nf, in, UINT64_MAX, kWarmupRequests, nullptr, report);
  }
  return nf;
}

}  // namespace

void RunNetfnSharded(const Options& opts, Report& report) {
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<Netfn> nf;
  for (int r = 0; r < kSetupRepeats; r++) {
    nf.reset();
    const uint64_t t0 = NowNs();
    in = MakeInputs(opts.seed);
    nf = SetUpWarm(kShards, in, report);
    setup_s.push_back(SecondsSince(t0));
    if (nf == nullptr) {
      return;
    }
  }
  report.Note("closed loop: " + std::to_string(kWindow) + " in flight; open loop: Poisson, " +
              std::to_string(static_cast<uint64_t>(kOpenRate)) + " requests/s; " +
              std::to_string(kShards) + " shards + 1 generator thread");

  // Phase 1: capacity.
  const uint64_t bad_before = nf->bad;
  const uint64_t p1_start = NowNs();
  const uint64_t p1_end = p1_start + static_cast<uint64_t>(opts.seconds * 0.3e9);
  Windows capacity(kWindows, p1_start, p1_end, 1, opts.seed);
  const uint64_t p1_done = ClosedLoop(*nf, in, p1_end, UINT64_MAX, nullptr, report, &capacity);
  capacity.BusyWholeWindows();

  // Phase 2: latency at a fixed offered rate.
  const uint64_t p2_start = NowNs();
  const uint64_t p2_end = p2_start + static_cast<uint64_t>(opts.seconds * 0.7e9);
  Windows latency(kWindows, p2_start, p2_end, 1 << 15, opts.seed);
  Samples late(1 << 16, opts.seed + 1);
  const uint64_t p2_done = OpenLoop(*nf, in, p2_end, latency, late, report);

  uint64_t failed = (nf->bad - bad_before) + CheckCounters(*nf, report);
  report.attempted = p1_done + p2_done;
  report.failed = failed;
  ReportWindows(latency, "open-loop latency", report);
  report.Note("generator late p99 " + std::to_string(Percentile(late.values(), 0.99) * 1e-3) +
              " us");
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("throughput_ops_s", capacity.Rate(), "1/s", capacity.ops());
  report.Add("latency_p50_us", latency.Percentile(0.5) * 1e-3, "us", latency.samples());
  report.Add("latency_p99_us", latency.Percentile(0.99) * 1e-3, "us", latency.samples());
  report.Add("peak_rss_mb", ReadUsage().peak_rss_mb, "MB");
}

void TraceNetfnSharded(const Options& opts, double budget_s, bool primary, SpanRecorder& spans,
                       Report& report) {
  const uint64_t start = NowNs();
  auto at = [&](double share) { return start + static_cast<uint64_t>(budget_s * share * 1e9); };
  Inputs in = MakeInputs(opts.seed);
  std::unique_ptr<Netfn> nf = SetUpWarm(kShards, in, report);
  if (nf == nullptr) {
    return;
  }

  // Untraced closed loop: capacity at 3 shards, CPU per request.
  const Usage cpu0 = ReadUsage();
  uint64_t t0 = NowNs();
  const uint64_t untraced = ClosedLoop(*nf, in, at(0.25), UINT64_MAX, nullptr, report);
  const double untraced_rate = static_cast<double>(untraced) / SecondsSince(t0);
  const double cpu_ns = (ReadUsage().cpu_s - cpu0.cpu_s) * 1e9 / static_cast<double>(untraced);

  // Traced closed loop: Submit spans and the shards' own counters.
  std::vector<ShardStats> before = nf->sharded->SnapshotStats();
  t0 = NowNs();
  const uint64_t traced = ClosedLoop(*nf, in, at(0.45), UINT64_MAX, &spans, report);
  const double traced_rate = static_cast<double>(traced) / SecondsSince(t0);
  report.attempted += untraced + traced;
  std::vector<ShardStats> after = nf->sharded->SnapshotStats();
  ShardStats d;
  uint64_t max_invoked = 0;
  for (size_t s = 0; s < after.size(); s++) {
    const uint64_t invoked = after[s].invoked - before[s].invoked;
    d.invoked += invoked;
    d.enqueued += after[s].enqueued - before[s].enqueued;
    d.dropped += after[s].dropped - before[s].dropped;
    d.batches += after[s].batches - before[s].batches;
    d.batch_occupancy_sum += after[s].batch_occupancy_sum - before[s].batch_occupancy_sum;
    d.stolen += after[s].stolen - before[s].stolen;
    max_invoked = std::max(max_invoked, invoked);
  }
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  std::vector<double> submit_ns = spans.Durations("shard.submit");
  report.Add("shard.submit_ns", Median(submit_ns), "ns", submit_ns.size());
  report.Add("shard.batch_occupancy", ratio(d.batch_occupancy_sum, d.batches), "count",
             d.batches);
  report.Add("shard.steal_ratio", ratio(d.stolen, d.invoked), "ratio", d.invoked);
  report.Add("shard.drop_ratio", ratio(d.dropped, d.enqueued + d.dropped), "ratio",
             d.enqueued + d.dropped);
  report.Add("shard.imbalance", ratio(max_invoked * after.size(), d.invoked), "ratio");
  report.Add("shard.cpu_ns_per_op", cpu_ns, "ns", untraced);

  // Single-thread service time of each function on shard 0's replica, called
  // directly while the shards are idle.
  Runtime& rt = nf->sharded->runtime();
  for (int f = 0; f < kNumFns; f++) {
    const ExtensionId replica = nf->sharded->ReplicaFor(nf->ids[f], 0);
    std::vector<const Request*> mine;
    for (const Request& r : in.stream) {
      if (r.fn == f) {
        mine.push_back(&r);
      }
    }
    alignas(64) uint8_t ctx[kCtxSize] = {};
    size_t i = 0;
    uint64_t batches = 0;
    double ns = TimeBatches(spans, "runtime.invoke_x64", 64, budget_s * 0.05, [&] {
      FillCtx(*mine[i++ % mine.size()], nf->seq++, ctx);
      nf->sent[f]++;
      if (!GoodResult(static_cast<uint8_t>(f), rt.Invoke(replica, 0, ctx, nf->ctx_size[f]))) {
        nf->bad++;
      }
    }, &batches);
    report.attempted += batches * 64;
    report.Add(std::string("runtime.invoke_ns.") + kFnNames[f], ns, "ns", batches);
  }

  if (primary) {
    Windows latency(1, NowNs(), at(0.7), 1 << 16, opts.seed);
    Samples late(1 << 16, opts.seed + 1);
    report.attempted += OpenLoop(*nf, in, at(0.7), latency, late, report);
    report.Add("bench.gen_late_p99_us", Percentile(late.values(), 0.99) * 1e-3, "us",
               late.values().size());
    report.Add("bench.trace_overhead", untraced_rate / traced_rate, "ratio");
  }
  CheckCounters(*nf, report);
  if (nf->bad != 0) {
    report.Fail("netfn traced pass: requests were not served");
  }
  nf.reset();

  if (primary) {
    // Obs counting pass: a separate instance with metrics on.
    ScopedObsEnable metrics_on(/*trace=*/false, /*metrics=*/true);
    std::unique_ptr<Netfn> counted = SetUp(kShards, report);
    if (counted == nullptr) {
      return;
    }
    const ObsCounts c0 = ObsTotals(counted->sharded->runtime());
    const uint64_t n = ClosedLoop(*counted, in, UINT64_MAX, kCountRequests, nullptr, report);
    const ObsCounts c1 = ObsTotals(counted->sharded->runtime());
    report.attempted += n;
    ReportObsCounters(c0, c1, n, report);
  }

  // Scaling: capacity at 3 shards over capacity at 1 shard, same inputs.
  std::unique_ptr<Netfn> one = SetUpWarm(1, in, report);
  if (one == nullptr) {
    return;
  }
  t0 = NowNs();
  const uint64_t single_end = std::max<uint64_t>(at(1.0), t0 + 100'000'000ULL);
  const uint64_t single = ClosedLoop(*one, in, single_end, UINT64_MAX, nullptr, report);
  const double single_rate = static_cast<double>(single) / SecondsSince(t0);
  report.attempted += single;
  CheckCounters(*one, report);
  report.Add("shard.scaling", untraced_rate / single_rate, "ratio");
}

}  // namespace perfbench
