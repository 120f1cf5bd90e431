// kv_zipf: the paper's headline application (§5.1). One client, one thread,
// closed loop: GET/SET/DEL = 90/8/2 over Zipf(0.99) keys, every request sent
// through KflexMemcachedDriver to MockKernel::Deliver at the XDP hook. The key
// space is about six times the extension's 16384 buckets, so the guarded
// chain walk dominates and the heap working set exceeds L2; DELs and SETs of
// absent keys keep kflex_malloc/kflex_free and the spin lock on the path.
// A UserMemcached oracle replays the stream and checks every reply.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/memcached.h"
#include "src/base/rng.h"
#include "src/base/zipf.h"
#include "src/kernel/kernel.h"
#include "src/kernel/packet.h"
#include "workloads.h"

namespace perfbench {

using namespace kflex;

namespace {

constexpr uint64_t kKeys = 100000;
constexpr double kTheta = 0.99;
constexpr size_t kStreamLen = 1 << 20;  // cycled; generated before timing
constexpr int kValues = 64;
constexpr int kChunk = 1024;              // ops between oracle checks
constexpr uint64_t kWarmupOps = 50000;
constexpr uint64_t kCountOps = 200000;    // exact-count prefix of the stream

// KflexMemcachedDriver's wire encoding (src/apps/memcached.cc), replicated so the
// traced pass can put a span around MockKernel::Deliver itself.
constexpr uint32_t kServerIp = 0x0A000001;
constexpr uint16_t kServerPort = 11211;

enum Kind : uint8_t { kGet = 0, kSet = 1, kDel = 2 };

struct Op {
  uint32_t key = 0;
  uint8_t kind = kGet;
  uint8_t value = 0;
};

struct Inputs {
  std::vector<Op> stream;
  std::vector<std::string> values;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  for (int v = 0; v < kValues; v++) {
    std::string s(8 + rng.NextBounded(57), 'a');
    for (char& c : s) {
      c = static_cast<char>('a' + rng.NextBounded(26));
    }
    in.values.push_back(std::move(s));
  }
  ZipfGenerator zipf(kKeys, kTheta);
  in.stream.resize(kStreamLen);
  for (Op& op : in.stream) {
    uint64_t mix = rng.NextBounded(100);
    op.kind = mix < 90 ? kGet : (mix < 98 ? kSet : kDel);
    op.key = static_cast<uint32_t>(zipf.Next(rng));
    op.value = static_cast<uint8_t>(rng.NextBounded(kValues));
  }
  return in;
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// What the client saw for one request.
struct Reply {
  bool served = false;
  bool hit = false;
  uint64_t value_hash = 0;
};

Reply ToReply(const KflexMemcachedDriver::OpResult& r) {
  return Reply{r.served, r.hit, r.hit ? Fnv1a(r.value) : 0};
}

// One loaded Memcached extension with its oracle, preloaded with every key.
struct Fixture {
  std::unique_ptr<MockKernel> kernel;
  std::optional<KflexMemcachedDriver> driver;
  UserMemcached oracle;
  size_t pos = 0;  // next stream index

  KflexMemcachedDriver::OpResult Run(const Inputs& in, const Op& op) {
    switch (op.kind) {
      case kGet:
        return driver->Get(0, op.key);
      case kSet:
        return driver->Set(0, op.key, in.values[op.value]);
      default:
        return driver->Del(0, op.key);
    }
  }

  // Applies `op` to the oracle; true when `got` is the reply it predicts.
  // Every request must be served at the XDP hook.
  bool Check(const Inputs& in, const Op& op, const Reply& got) {
    if (!got.served) {
      return false;
    }
    switch (op.kind) {
      case kGet: {
        std::optional<std::string> want = oracle.Get(op.key);
        return got.hit == want.has_value() && (!got.hit || got.value_hash == Fnv1a(*want));
      }
      case kSet:
        oracle.Set(op.key, in.values[op.value]);
        return got.hit;
      default:
        return got.hit == oracle.Del(op.key);
    }
  }

  const Op& Next(const Inputs& in) {
    const Op& op = in.stream[pos];
    pos = (pos + 1) % in.stream.size();
    return op;
  }
};

// Loads the extension (KFlex, or the KMod twin with `kie`), preloads every
// key and, with `warmup`, runs the warm-up prefix checked by the oracle.
std::unique_ptr<Fixture> SetUp(const Inputs& in, const KieOptions& kie, bool warmup,
                               Report& report) {
  auto f = std::make_unique<Fixture>();
  f->kernel = std::make_unique<MockKernel>();
  StatusOr<KflexMemcachedDriver> driver =
      KflexMemcachedDriver::Create(*f->kernel, MemcachedBuildOptions{}, kie, ShippedEngine());
  if (!driver.ok()) {
    report.Fail("memcached load failed: " + driver.status().message());
    return nullptr;
  }
  f->driver.emplace(*driver);
  if (!RunsNative(f->kernel->runtime().engine_info(driver->id()))) {
    report.Fail("memcached fell back from the JIT: " +
                f->kernel->runtime().engine_info(driver->id()).fallback_reason);
    return nullptr;
  }
  for (uint64_t k = 0; k < kKeys; k++) {
    const std::string& v = in.values[k % kValues];
    if (!f->driver->Set(0, k, v).hit) {
      report.Fail("preload SET failed for key " + std::to_string(k));
      return nullptr;
    }
    f->oracle.Set(k, v);
  }
  if (warmup) {
    for (uint64_t i = 0; i < kWarmupOps; i++) {
      const Op& op = f->Next(in);
      if (!f->Check(in, op, ToReply(f->Run(in, op)))) {
        report.Fail("warm-up reply disagrees with the oracle");
        return nullptr;
      }
    }
  }
  return f;
}

}  // namespace

void RunKvZipf(const Options& opts, Report& report) {
  // Set up several times; setup_s is the median, the last fixture is used.
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<Fixture> f;
  for (int r = 0; r < kSetupRepeats; r++) {
    f.reset();
    const uint64_t t0 = NowNs();
    in = MakeInputs(opts.seed);
    f = SetUp(in, KieOptions{}, /*warmup=*/true, report);
    setup_s.push_back(SecondsSince(t0));
    if (f == nullptr) {
      return;
    }
  }

  std::vector<Reply> replies(kChunk);
  std::vector<const Op*> ops(kChunk);
  uint64_t done = 0;
  uint64_t failed = 0;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(opts.seconds * 1e9);
  Windows win(kWindows, start, deadline, 1 << 15, opts.seed);
  while (NowNs() < deadline) {
    const uint64_t chunk_start = NowNs();
    const int w = win.At(chunk_start);
    for (int j = 0; j < kChunk; j++) {
      const Op& op = f->Next(in);
      const uint64_t t0 = NowNs();
      KflexMemcachedDriver::OpResult r = f->Run(in, op);
      const uint64_t t1 = NowNs();
      win.AddSample(w, static_cast<double>(t1 - t0));
      replies[j] = ToReply(r);
      ops[j] = &op;
    }
    win.AddOps(w, kChunk, NowNs() - chunk_start);
    // Untimed: replay the chunk on the oracle.
    for (int j = 0; j < kChunk; j++) {
      if (!f->Check(in, *ops[j], replies[j])) {
        failed++;
        report.Fail("key " + std::to_string(ops[j]->key) + " op " +
                    std::to_string(ops[j]->kind) + ": reply disagrees with the oracle");
      }
    }
    done += kChunk;
  }

  report.attempted = done;
  report.failed = failed;
  ReportWindows(win, "request latency", report);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("throughput_ops_s", win.Rate(), "1/s", done);
  report.Add("latency_p50_us", win.Percentile(0.5) * 1e-3, "us", win.samples());
  report.Add("latency_p99_us", win.Percentile(0.99) * 1e-3, "us", win.samples());
  report.Add("peak_rss_mb", ReadUsage().peak_rss_mb, "MB");
}

void TraceKvZipf(const Options& opts, double budget_s, bool primary, SpanRecorder& spans,
                 Report& report) {
  const uint64_t start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(budget_s * 1e9);
  Inputs in = MakeInputs(opts.seed);

  // Exact counts over the first kCountOps requests of a fresh instance.
  std::unique_ptr<Fixture> f = SetUp(in, KieOptions{}, /*warmup=*/false, report);
  if (f == nullptr) {
    return;
  }
  uint64_t insns = 0;
  uint64_t instr = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  for (uint64_t i = 0; i < kCountOps; i++) {
    const Op& op = f->Next(in);
    KflexMemcachedDriver::OpResult r = f->Run(in, op);
    insns += r.insns;
    instr += r.instr_insns;
    if (op.kind == kGet) {
      gets++;
      hits += r.hit ? 1 : 0;
    }
    if (!f->Check(in, op, ToReply(r))) {
      report.Fail("kv_zipf counting pass: reply disagrees with the oracle");
    }
  }
  report.attempted += kCountOps;
  report.Add("jit.insns_per_op", static_cast<double>(insns) / kCountOps, "count", kCountOps);
  report.Add("kie.instr_insns_per_op", static_cast<double>(instr) / kCountOps, "count",
             kCountOps);
  report.Add("apps.get_hit_ratio", static_cast<double>(hits) / static_cast<double>(gets),
             "ratio", gets);

  // Obs counting pass: a separate instance with metrics on, so that the
  // timed passes keep running the code users ship (metrics on sends JIT v2's
  // inline helpers to the callout stub).
  if (primary) {
    std::unique_ptr<Fixture> counted;
    ObsCounts before{};
    ObsCounts after{};
    {
      ScopedObsEnable metrics_on(/*trace=*/false, /*metrics=*/true);
      counted = SetUp(in, KieOptions{}, /*warmup=*/false, report);
      if (counted == nullptr) {
        return;
      }
      before = ObsTotals(counted->kernel->runtime());
      for (uint64_t i = 0; i < kCountOps; i++) {
        const Op& op = counted->Next(in);
        counted->Run(in, op);
      }
      after = ObsTotals(counted->kernel->runtime());
    }
    report.attempted += kCountOps;
    ReportObsCounters(before, after, kCountOps, report);
  }

  // Traced pass: one span per request, one child span around Deliver. The
  // packet is built and decoded exactly as KflexMemcachedDriver does.
  const uint64_t traced_until = start + budget_ns * 6 / 10;
  uint64_t traced_ops = 0;
  double traced_ns = 0;  // summed request spans
  std::vector<double> request_ns;
  std::vector<double> deliver_ns;
  do {
    const Op& op = f->Next(in);
    const uint64_t req = traced_ops++;
    uint32_t op_span = spans.Begin("apps.memcached_request", 0, req);
    KvPacket pkt;
    pkt.SetOp(static_cast<KvOp>(op.kind));
    pkt.SetProto(op.kind == kGet ? kProtoUdp : kProtoTcp);
    auto key = MakeKey32(op.key);
    pkt.SetKey(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
    if (op.kind == kSet) {
      pkt.SetValue(in.values[op.value]);
      pkt.SetZScore(0);
    }
    pkt.SetTuple(kServerIp, 40000, kServerPort);
    uint32_t deliver_span = spans.Begin("kernel.deliver", op_span, req);
    InvokeResult r = f->kernel->Deliver(Hook::kXdp, 0, pkt.data(), pkt.size());
    spans.End(deliver_span);
    Reply reply;
    reply.served = r.attached && !r.cancelled && r.verdict == kXdpTx;
    reply.hit = pkt.resp_flag() == 1;
    reply.value_hash = reply.hit ? Fnv1a(std::string(pkt.resp())) : 0;
    spans.End(op_span);
    if (op_span != 0 && deliver_span != 0) {
      traced_ns += static_cast<double>(spans.Duration(op_span));
      deliver_ns.push_back(static_cast<double>(spans.Duration(deliver_span)));
      request_ns.push_back(static_cast<double>(spans.Duration(op_span)) - deliver_ns.back());
    }
    if (!f->Check(in, op, reply)) {
      report.Fail("kv_zipf traced pass: reply disagrees with the oracle");
    }
  } while (NowNs() < traced_until && !spans.full());
  report.attempted += traced_ops;
  report.Add("apps.request_ns", Median(request_ns), "ns", request_ns.size());
  report.Add("kernel.deliver_ns", Median(deliver_ns), "ns", deliver_ns.size());

  // Guard cost (Fig. 5, measured): the same requests, chunk by chunk,
  // against the KFlex instance and a KMod twin (no SFI guards); the twin's
  // replies must equal the KFlex ones.
  KieOptions kmod_kie;
  kmod_kie.sfi = false;
  std::unique_ptr<Fixture> kmod = SetUp(in, kmod_kie, /*warmup=*/false, report);
  if (kmod == nullptr) {
    return;
  }
  // Bring the twin to the KFlex instance's state: replay, untimed, every
  // request the KFlex instance has served since its preload.
  for (uint64_t i = 0; i < kCountOps + traced_ops; i++) {
    kmod->Run(in, kmod->Next(in));
  }
  std::vector<double> kflex_ns;
  std::vector<double> kmod_ns;
  std::vector<Reply> a(kChunk);
  std::vector<Reply> b(kChunk);
  uint64_t timed_ops = 0;
  uint64_t timed_ns = 0;
  do {
    const size_t pos = f->pos;
    uint64_t t0 = NowNs();
    for (int j = 0; j < kChunk; j++) {
      a[j] = ToReply(f->Run(in, f->Next(in)));
    }
    uint64_t t1 = NowNs();
    for (int j = 0; j < kChunk; j++) {
      b[j] = ToReply(kmod->Run(in, kmod->Next(in)));
    }
    uint64_t t2 = NowNs();
    kflex_ns.push_back(static_cast<double>(t1 - t0) / kChunk);
    kmod_ns.push_back(static_cast<double>(t2 - t1) / kChunk);
    timed_ops += kChunk;
    timed_ns += t1 - t0;
    for (int j = 0; j < kChunk; j++) {
      const Op& op = in.stream[(pos + j) % in.stream.size()];
      if (!f->Check(in, op, a[j]) || a[j].hit != b[j].hit ||
          a[j].value_hash != b[j].value_hash || !b[j].served) {
        report.Fail("kv_zipf guard-cost pass: KFlex and KMod replies differ");
      }
    }
  } while (NowNs() < start + budget_ns);
  report.attempted += 2 * timed_ops;
  report.Add("kie.guard_cost_ns", Median(kflex_ns) - Median(kmod_ns), "ns", kflex_ns.size());

  if (primary) {
    // Measurement health: traced vs untraced time per request on one
    // instance (the untraced figure is the KFlex side of the guard-cost
    // chunks).
    const double untraced = static_cast<double>(timed_ns) / static_cast<double>(timed_ops);
    const double traced = traced_ns / static_cast<double>(request_ns.size());
    report.Add("bench.trace_overhead", traced / untraced, "ratio", request_ns.size());
    report.Add("bench.gen_late_p99_us", 0.0, "us");  // closed loop: no schedule
  }
}

}  // namespace perfbench
