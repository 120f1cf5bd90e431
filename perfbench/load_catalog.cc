// load_catalog: every shipped program loaded into a fresh Runtime on the
// shipped engine, round after round; nothing is invoked. The verifier, the
// optimizer, Kie, the concurrency analysis, the JIT and heap creation do all
// the work. The seed shuffles the load order of each round.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/ds/ds.h"
#include "src/apps/memcached.h"
#include "src/apps/netfn/netfn.h"
#include "src/apps/redis.h"
#include "src/apps/tracer.h"
#include "src/base/rng.h"
#include "src/jit/codegen.h"
#include "src/kie/kie.h"
#include "src/runtime/heap.h"
#include "src/verifier/concurrency.h"
#include "src/verifier/opt.h"
#include "src/verifier/verifier.h"
#include "workloads.h"

namespace perfbench {

using namespace kflex;

namespace {

struct Entry {
  std::string name;
  Program program;
  LoadOptions options;
  int share_with = -1;  // catalog index of the entry whose heap this one shares
};

// The catalog, built against `maps` (BMC and the load balancer own maps).
// Order: Memcached, BMC, Redis; the data structures (three ops sharing one
// heap each); load balancer, DDoS guard, trace aggregator; the two tracer
// programs; the co-design Memcached.
std::vector<Entry> BuildCatalog(MapRegistry& maps, Report& report) {
  std::vector<Entry> c;
  auto add = [&](std::string name, Program program, uint64_t static_bytes, int share_with,
                 const KieOptions& kie) {
    Entry e;
    e.name = std::move(name);
    e.program = std::move(program);
    e.options = ShippedLoadOptions();
    e.options.heap_static_bytes = static_bytes;
    e.options.kie = kie;
    e.share_with = share_with;
    c.push_back(std::move(e));
  };
  add("memcached", BuildMemcachedExtension(), MemcachedLayout::kStaticBytes, -1, {});
  StatusOr<MapDescriptor> bmc_map = maps.CreateHash(32, kBmcValueSize, 1 << 16);
  if (!bmc_map.ok()) {
    report.Fail("bmc map: " + bmc_map.status().message());
    return {};
  }
  add("bmc", BuildBmcProgram(bmc_map->id), 0, -1, {});
  add("redis", BuildRedisExtension(), RedisLayout::kStaticBytes, -1, {});

  const std::pair<const char*, DsBuild (*)(DsOp, uint64_t)> ds[] = {
      {"linked_list", BuildLinkedList}, {"hashmap", BuildHashMap},
      {"rbtree", BuildRbTree},          {"skiplist", BuildSkipList},
      {"count_min", BuildCountMinSketch}, {"count_sketch", BuildCountSketch},
  };
  for (const auto& [name, build] : ds) {
    const int owner = static_cast<int>(c.size());
    for (DsOp op : {DsOp::kUpdate, DsOp::kLookup, DsOp::kDelete}) {
      DsBuild b = build(op, kDsHeapSize);
      add(std::string(name) + "." + DsOpName(op), std::move(b.program), b.static_bytes,
          op == DsOp::kUpdate ? -1 : owner, {});
    }
  }

  StatusOr<LbBuild> lb = BuildL4LoadBalancer(maps, 8);
  StatusOr<Program> guard = BuildDdosGuard(GuardConfig{});
  StatusOr<Program> agg = BuildTraceAggregator();
  if (!lb.ok() || !guard.ok() || !agg.ok()) {
    report.Fail("netfn programs did not build");
    return {};
  }
  add("lb", std::move(lb->program), lb->static_bytes, -1, {});
  add("ddos_guard", std::move(*guard), GuardLayout::kStaticBytes, -1, {});
  add("traceagg", std::move(*agg), TraceAggLayout::kStaticBytes, -1, {});
  add("syscall_filter", BuildSyscallFilterExtension(), SyscallFilterLayout::kStaticBytes, -1,
      {});
  add("latency_tracer", BuildLatencyTracerExtension(), LatencyTracerLayout::kStaticBytes, -1,
      {});
  MemcachedBuildOptions codesign;
  codesign.with_expiry = true;
  KieOptions shared_pointers;
  shared_pointers.translate_on_store = true;
  add("codesign_memcached", BuildMemcachedExtension(codesign), MemcachedLayout::kStaticBytes,
      -1, shared_pointers);
  return c;
}

// Load order for one round: entries that share a heap stay together, after
// their owner; the groups are shuffled by the seeded generator.
std::vector<int> LoadOrder(const std::vector<Entry>& c, Rng& rng) {
  std::vector<std::vector<int>> groups;
  for (int i = 0; i < static_cast<int>(c.size()); i++) {
    if (c[i].share_with >= 0) {
      groups.back().push_back(i);
    } else {
      groups.push_back({i});
    }
  }
  for (size_t i = groups.size(); i > 1; i--) {
    std::swap(groups[i - 1], groups[rng.NextBounded(i)]);
  }
  std::vector<int> order;
  for (const auto& g : groups) {
    order.insert(order.end(), g.begin(), g.end());
  }
  return order;
}

// What must not change from one load of a program to the next.
struct Fingerprint {
  size_t guards_emitted = 0;
  size_t guards_elided = 0;
  size_t guards_dominated = 0;
  size_t insns_out = 0;
  uint64_t code_bytes = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const KieStats& kie, uint64_t code_bytes) {
  return Fingerprint{kie.guards_emitted, kie.guards_elided, kie.guards_dominated,
                     kie.insns_out, code_bytes};
}

// One round: a fresh Runtime, the whole catalog loaded, the Runtime
// destroyed. Checks every load and its fingerprint against `expected`
// (filled on first sight).
struct Round {
  uint64_t round_ns = 0;  // construct + loads + destroy
  std::vector<double> load_ns;
  std::vector<std::string> names;  // of the loads, in load order
  uint64_t failed = 0;
};

Round LoadRound(Rng& rng, std::map<std::string, Fingerprint>& expected, Report& report,
                const std::function<void(Runtime&)>& after_loads = nullptr) {
  Round round;
  uint64_t t0 = NowNs();
  auto rt = std::make_unique<Runtime>();
  round.round_ns += NowNs() - t0;
  std::vector<Entry> catalog = BuildCatalog(rt->maps(), report);
  if (catalog.empty()) {
    round.failed = 1;
    return round;
  }
  std::vector<ExtensionId> ids(catalog.size(), 0);
  for (int i : LoadOrder(catalog, rng)) {
    Entry& e = catalog[static_cast<size_t>(i)];
    if (e.share_with >= 0) {
      e.options.share_heap_with = ids[static_cast<size_t>(e.share_with)];
    }
    const uint64_t l0 = NowNs();
    StatusOr<ExtensionId> id = rt->Load(e.program, e.options);
    const uint64_t l1 = NowNs();
    round.round_ns += l1 - l0;
    round.load_ns.push_back(static_cast<double>(l1 - l0));
    round.names.push_back(e.name);
    if (!id.ok()) {
      round.failed++;
      report.Fail(e.name + " did not load: " + id.status().message());
      continue;
    }
    ids[static_cast<size_t>(i)] = *id;
    EngineInfo info = rt->engine_info(*id);
    if (!RunsNative(info)) {
      round.failed++;
      report.Fail(e.name + " fell back from the JIT: " + info.fallback_reason);
      continue;
    }
    Fingerprint fp = FingerprintOf(rt->instrumented(*id).stats, info.stats.code_bytes);
    auto [it, fresh] = expected.emplace(e.name, fp);
    if (!fresh && !(it->second == fp)) {
      round.failed++;
      report.Fail(e.name + ": Kie stats or code size changed between loads");
    }
  }
  if (after_loads) {
    after_loads(*rt);
  }
  t0 = NowNs();
  rt.reset();
  round.round_ns += NowNs() - t0;
  return round;
}

// Runtime::Load's stages, called one by one in its order with a span each.
struct StageTimes {
  double verify = 0, heap = 0, optimize = 0, instrument = 0, concurrency = 0, jit = 0;
  double total() const { return verify + heap + optimize + instrument + concurrency + jit; }
};

struct TracedLoad {
  std::string name;
  StageTimes ns;
  double span_ns = 0;  // the enclosing runtime.load span
};

struct TracedRound {
  std::vector<TracedLoad> loads;
  KieStats kie;  // summed over the catalog
  uint64_t code_bytes = 0;
  uint64_t fallbacks = 0;
};

TracedRound TraceRound(Rng& rng, SpanRecorder& spans, uint64_t round_id, Report& report) {
  TracedRound out;
  Runtime rt;
  std::vector<Entry> catalog = BuildCatalog(rt.maps(), report);
  std::vector<std::unique_ptr<ExtensionHeap>> heaps(catalog.size());
  const uint32_t root = spans.Begin("load_catalog.round", 0, round_id);
  for (int i : LoadOrder(catalog, rng)) {
    const Entry& e = catalog[static_cast<size_t>(i)];
    const uint32_t load = spans.Begin("runtime.load", root, round_id);
    auto stage = [&](const char* name, double& acc, auto&& fn) {
      uint32_t id = spans.Begin(name, load, round_id);
      uint64_t t0 = NowNs();
      auto r = fn();
      acc += static_cast<double>(NowNs() - t0);
      spans.End(id);
      return r;
    };
    StageTimes t;
    VerifyOptions vo = e.options.verify;
    vo.maps = rt.maps().Descriptors();
    StatusOr<Analysis> analysis =
        stage("verifier.verify", t.verify, [&] { return Verify(e.program, vo); });
    if (!analysis.ok()) {
      report.Fail(e.name + ": traced verify failed: " + analysis.status().message());
      spans.End(load);
      continue;
    }
    HeapLayout layout;
    if (e.program.heap_size != 0) {
      if (e.share_with >= 0) {
        layout = heaps[static_cast<size_t>(e.share_with)]->layout();
      } else {
        HeapSpec spec;
        spec.size = e.program.heap_size;
        spec.static_bytes = e.options.heap_static_bytes;
        auto heap = stage("runtime.heap_create", t.heap,
                          [&] { return ExtensionHeap::Create(spec); });
        if (!heap.ok()) {
          report.Fail(e.name + ": traced heap creation failed");
          spans.End(load);
          continue;
        }
        heaps[static_cast<size_t>(i)] = std::move(heap.value());
        layout = heaps[static_cast<size_t>(i)]->layout();
      }
    }
    StatusOr<OptResult> opt =
        stage("verifier.optimize", t.optimize, [&] { return Optimize(e.program, *analysis); });
    if (!opt.ok()) {
      report.Fail(e.name + ": traced optimize failed");
      spans.End(load);
      continue;
    }
    StatusOr<InstrumentedProgram> iprog = stage("kie.instrument", t.instrument, [&] {
      return Instrument(opt->program, opt->analysis, layout, e.options.kie, &opt->plan);
    });
    if (!iprog.ok()) {
      report.Fail(e.name + ": traced instrument failed");
      spans.End(load);
      continue;
    }
    stage("verifier.concurrency", t.concurrency, [&] {
      iprog->concurrency = AnalyzeConcurrency(opt->program, &opt->analysis);
      return 0;
    });
    JitCompileEnv env;
    env.helpers = &rt.helpers();
    env.maps = &rt.maps();
    JitCompileResult jit = stage("jit.compile", t.jit,
                                 [&] { return JitCompile(*iprog, e.options.jit, env); });
    spans.End(load);
    out.loads.push_back(TracedLoad{e.name, t, static_cast<double>(spans.Duration(load))});
    out.kie.guards_emitted += iprog->stats.guards_emitted;
    out.kie.guards_elided += iprog->stats.guards_elided;
    out.kie.guards_dominated += iprog->stats.guards_dominated;
    out.kie.insns_out += iprog->stats.insns_out;
    if (jit.program != nullptr) {
      out.code_bytes += jit.program->stats.code_bytes;
    } else {
      out.fallbacks++;
    }
  }
  spans.End(root);
  return out;
}

}  // namespace

void RunLoadCatalog(const Options& opts, Report& report) {
  Rng rng(opts.seed);
  std::map<std::string, Fingerprint> expected;
  // Set-up: one warm-up round (code and allocator caches), repeated.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; r++) {
    const uint64_t t0 = NowNs();
    Round warm = LoadRound(rng, expected, report);
    setup_s.push_back(SecondsSince(t0));
    if (warm.failed != 0) {
      return;
    }
  }

  uint64_t loads = 0;
  uint64_t failed = 0;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(opts.seconds * 1e9);
  // Fewer, longer windows than the other workloads: a window must hold
  // several catalog rounds for its median load to be stable.
  Windows win(kWindows / 3, start, deadline, 1 << 12, opts.seed);
  // Every load leaves its obs registration (with a histogram) behind, so resident
  // memory keeps growing with the number of loads. Peak RSS is read after
  // the first timed round, when every heap of a round has been live, so that
  // it does not depend on how many loads the run completes.
  double peak_rss_mb = 0;
  while (NowNs() < deadline) {
    const int w = win.At(NowNs());
    Round round = LoadRound(rng, expected, report);
    for (double ns : round.load_ns) {
      win.AddSample(w, ns);
    }
    win.AddOps(w, round.load_ns.size(), round.round_ns);
    loads += round.load_ns.size();
    failed += round.failed;
    if (peak_rss_mb == 0) {
      peak_rss_mb = ReadUsage().peak_rss_mb;
    }
  }

  report.attempted = loads;
  report.failed = failed;
  ReportWindows(win, "Runtime::Load latency", report);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("throughput_ops_s", win.Rate(), "1/s", loads);
  report.Add("latency_p50_us", win.Percentile(0.5) * 1e-3, "us", win.samples());
  report.Add("latency_p99_us", win.Percentile(0.99) * 1e-3, "us", win.samples());
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
}

void TraceLoadCatalog(const Options& opts, double budget_s, bool primary, SpanRecorder& spans,
                      Report& report) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  Rng rng(opts.seed);
  std::map<std::string, Fingerprint> expected;
  LoadRound(rng, expected, report);  // warm-up

  if (primary) {
    // Obs counting pass: one round with metrics on.
    ScopedObsEnable metrics_on(/*trace=*/false, /*metrics=*/true);
    const ObsCounts before = ObsTotals(Runtime());  // the unattributed slot only
    ObsCounts after{};
    Round counted = LoadRound(rng, expected, report, [&](Runtime& rt) { after = ObsTotals(rt); });
    report.attempted += counted.load_ns.size();
    ReportObsCounters(before, after, counted.load_ns.size(), report);
  }

  // Alternate untraced rounds (Runtime::Load) and traced rounds (its stages
  // one by one) until the budget is spent. Stage metrics: per program, the
  // median over rounds, then the mean over the catalog. runtime.load_rest_us
  // compares fastest with fastest (per program, the fastest untraced Load
  // minus the sum of its fastest stages): heap creation swings by more than
  // the remainder, and interference only ever adds time.
  std::map<std::string, std::vector<double>> untraced;
  std::map<std::string, std::vector<TracedLoad>> traced;
  TracedRound last;
  uint64_t round_id = 0;
  do {
    Round plain = LoadRound(rng, expected, report);
    for (size_t i = 0; i < plain.names.size(); i++) {
      untraced[plain.names[i]].push_back(plain.load_ns[i]);
    }
    last = TraceRound(rng, spans, ++round_id, report);
    for (const TracedLoad& l : last.loads) {
      traced[l.name].push_back(l);
    }
    report.attempted += plain.load_ns.size() + last.loads.size();
  } while (NowNs() < deadline && !spans.full());
  if (traced.empty() || traced.size() != untraced.size()) {
    report.Fail("load_catalog traced rounds did not load the catalog");
    return;
  }

  double stage_us[6] = {};
  double rest_us = 0;
  double overhead = 0;
  double memcached_verify_us = 0;
  for (const auto& [name, loads] : traced) {
    auto median_of = [&](auto&& field) {
      std::vector<double> v;
      for (const TracedLoad& l : loads) {
        v.push_back(field(l));
      }
      return Median(std::move(v)) * 1e-3;
    };
    auto min_of = [&](auto&& field) {
      double m = field(loads.front());
      for (const TracedLoad& l : loads) {
        m = std::min(m, field(l));
      }
      return m * 1e-3;
    };
    const double stages[6] = {
        median_of([](const TracedLoad& l) { return l.ns.verify; }),
        median_of([](const TracedLoad& l) { return l.ns.optimize; }),
        median_of([](const TracedLoad& l) { return l.ns.concurrency; }),
        median_of([](const TracedLoad& l) { return l.ns.instrument; }),
        median_of([](const TracedLoad& l) { return l.ns.jit; }),
        median_of([](const TracedLoad& l) { return l.ns.heap; }),
    };
    for (int k = 0; k < 6; k++) {
      stage_us[k] += stages[k];
    }
    const std::vector<double>& plain = untraced[name];
    rest_us += *std::min_element(plain.begin(), plain.end()) * 1e-3 -
               min_of([](const TracedLoad& l) { return l.ns.verify; }) -
               min_of([](const TracedLoad& l) { return l.ns.optimize; }) -
               min_of([](const TracedLoad& l) { return l.ns.concurrency; }) -
               min_of([](const TracedLoad& l) { return l.ns.instrument; }) -
               min_of([](const TracedLoad& l) { return l.ns.jit; }) -
               min_of([](const TracedLoad& l) { return l.ns.heap; });
    overhead += median_of([](const TracedLoad& l) { return l.span_ns; }) /
                (Median(plain) * 1e-3);
    if (name == "memcached") {
      memcached_verify_us = stages[0];
    }
  }
  const double n = static_cast<double>(traced.size());
  const char* names[6] = {"verifier.verify_us",  "verifier.optimize_us", "verifier.concurrency_us",
                          "kie.instrument_us",   "jit.compile_us",       "runtime.heap_create_us"};
  for (int k = 0; k < 6; k++) {
    report.Add(names[k], stage_us[k] / n, "us", round_id);
  }
  report.Add("runtime.load_rest_us", rest_us / n, "us", round_id);
  report.Add("verifier.verify_us.memcached", memcached_verify_us, "us", round_id);
  report.Add("kie.guards_emitted", static_cast<double>(last.kie.guards_emitted), "count");
  report.Add("kie.guards_elided", static_cast<double>(last.kie.guards_elided), "count");
  report.Add("kie.guards_dominated", static_cast<double>(last.kie.guards_dominated), "count");
  report.Add("kie.insns_out", static_cast<double>(last.kie.insns_out), "count");
  report.Add("jit.code_bytes", static_cast<double>(last.code_bytes), "bytes");
  report.Add("jit.fallbacks", static_cast<double>(last.fallbacks), "count");
  if (last.fallbacks != 0) {
    report.Fail("load_catalog: the JIT fell back on a catalog program");
  }
  if (primary) {
    // Traced stage sequence vs untraced Runtime::Load, per program.
    report.Add("bench.trace_overhead", overhead / n, "ratio", round_id);
    report.Add("bench.gen_late_p99_us", 0.0, "us");  // closed loop: no schedule
  }
}

}  // namespace perfbench
