#include "src/fault/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/base/logging.h"
#include "src/obs/obs.h"

namespace kflex {

namespace {

// The built-in fault-point catalog, and the only points there are: a
// KFLEX_FAULT_FIRE name missing here fails a check on first use, and
// enumeration (chaos harness, --fault=list) sees every point before its code
// path first executes. chaos_test's self-check fails if an entry is added
// here without matrix coverage.
constexpr const char* kCatalog[] = {
    "alloc.slab",      // HeapAllocator::CarvePageLocked: page carve fails
    "alloc.percpu",    // HeapAllocator::Alloc: per-CPU cache path fails
    "heap.pagein",     // ExtensionHeap::TranslateKernel: page treated absent
    "heap.guard",      // ExtensionHeap::TranslateKernel: forced guard fault
    "jit.mmap",        // CodeBuffer::Allocate: executable mapping refused
    "jit.mprotect",    // CodeBuffer::Seal: W^X seal refused
    "map.update",      // Map::Update: -ENOMEM
    "helper.ret_err",  // helper dispatch: documented error, body skipped
    "lock.delay",      // SpinLockOps::Acquire: deterministic waiter delay
    "shard.enqueue",   // ShardedRuntime::Submit: ingress treated as full
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// Probability in [0,1] with up to 6 fractional digits -> parts per million.
bool ParseProbPpm(std::string_view s, uint32_t* out) {
  size_t dot = s.find('.');
  std::string_view whole = dot == std::string_view::npos ? s : s.substr(0, dot);
  std::string_view frac = dot == std::string_view::npos ? "" : s.substr(dot + 1);
  uint64_t w = 0;
  if (!whole.empty() && !ParseU64(whole, &w)) {
    return false;
  }
  if (w > 1 || frac.size() > 6) {
    return false;
  }
  uint64_t f = 0;
  if (!frac.empty()) {
    if (!ParseU64(frac, &f)) {
      return false;
    }
    for (size_t i = frac.size(); i < 6; i++) {
      f *= 10;
    }
  }
  uint64_t ppm = w * 1'000'000 + f;
  if (ppm > 1'000'000) {
    return false;
  }
  *out = static_cast<uint32_t>(ppm);
  return true;
}

}  // namespace

std::string FaultPolicy::ToString() const {
  char buf[128];
  switch (kind) {
    case Kind::kOff:
      return "off";
    case Kind::kNth:
      std::snprintf(buf, sizeof(buf), "nth=%llu", static_cast<unsigned long long>(n));
      break;
    case Kind::kEveryN:
      std::snprintf(buf, sizeof(buf), "every=%llu", static_cast<unsigned long long>(n));
      break;
    case Kind::kProb:
      std::snprintf(buf, sizeof(buf), "prob=0.%06u,seed=%llu", prob_ppm,
                    static_cast<unsigned long long>(seed));
      break;
  }
  std::string out = buf;
  if (times != 0) {
    std::snprintf(buf, sizeof(buf), ",times=%llu", static_cast<unsigned long long>(times));
    out += buf;
  }
  return out;
}

StatusOr<FaultPolicy> ParseFaultPolicy(std::string_view spec) {
  if (spec == "off") {
    return FaultPolicy{};
  }
  FaultPolicy policy;
  std::string_view rest = spec;
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view kv = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument("fault spec: expected key=value, got '" + std::string(kv) + "'");
    }
    std::string_view key = kv.substr(0, eq);
    std::string_view val = kv.substr(eq + 1);
    if (key == "nth" || key == "every") {
      if (policy.kind != FaultPolicy::Kind::kOff) {
        return InvalidArgument("fault spec: multiple policy kinds in '" + std::string(spec) + "'");
      }
      uint64_t v = 0;
      if (!ParseU64(val, &v) || v == 0) {
        return InvalidArgument("fault spec: bad count '" + std::string(val) + "'");
      }
      policy.kind = key == "nth" ? FaultPolicy::Kind::kNth : FaultPolicy::Kind::kEveryN;
      policy.n = v;
    } else if (key == "prob") {
      if (policy.kind != FaultPolicy::Kind::kOff) {
        return InvalidArgument("fault spec: multiple policy kinds in '" + std::string(spec) + "'");
      }
      if (!ParseProbPpm(val, &policy.prob_ppm)) {
        return InvalidArgument("fault spec: bad probability '" + std::string(val) +
                               "' (want 0..1, <= 6 fractional digits)");
      }
      policy.kind = FaultPolicy::Kind::kProb;
    } else if (key == "seed") {
      if (!ParseU64(val, &policy.seed)) {
        return InvalidArgument("fault spec: bad seed '" + std::string(val) + "'");
      }
    } else if (key == "times") {
      if (!ParseU64(val, &policy.times) || policy.times == 0) {
        return InvalidArgument("fault spec: bad times '" + std::string(val) + "'");
      }
    } else {
      return InvalidArgument("fault spec: unknown key '" + std::string(key) + "'");
    }
  }
  if (policy.kind == FaultPolicy::Kind::kOff) {
    return InvalidArgument("fault spec: no policy (want nth=, every= or prob=) in '" +
                           std::string(spec) + "'");
  }
  return policy;
}

StatusOr<std::pair<std::string, FaultPolicy>> ParseFaultSpec(std::string_view spec) {
  size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return InvalidArgument("fault spec: expected point:policy, got '" + std::string(spec) + "'");
  }
  StatusOr<FaultPolicy> policy = ParseFaultPolicy(spec.substr(colon + 1));
  if (!policy.ok()) {
    return policy.status();
  }
  return std::make_pair(std::string(spec.substr(0, colon)), *policy);
}

bool FaultScheduleFires(const FaultPolicy& policy, uint64_t hit) {
  switch (policy.kind) {
    case FaultPolicy::Kind::kOff:
      return false;
    case FaultPolicy::Kind::kNth:
      return hit + 1 == policy.n;
    case FaultPolicy::Kind::kEveryN:
      return (hit + 1) % policy.n == 0;
    case FaultPolicy::Kind::kProb:
      // Counter-based hash: the schedule is a pure function of (seed, hit),
      // i.e. precomputed in the mathematical sense — nothing is sampled at
      // fire time, and hit K fires identically on every replay.
      return SplitMix64(policy.seed ^ SplitMix64(hit)) % 1'000'000 < policy.prob_ppm;
  }
  return false;
}

bool FaultPoint::ShouldFail() {
  uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed);
  if (!armed_.load(std::memory_order_relaxed)) {
    return false;
  }
  FaultPolicy policy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    policy = policy_;
  }
  if (!FaultScheduleFires(policy, hit)) {
    return false;
  }
  // The `times` cap is best-effort under concurrent hits (the counters are
  // not transactional); deterministic replay assumes the armed point is
  // exercised from one thread at a time, which the chaos harness guarantees.
  if (policy.times != 0 && fails_.load(std::memory_order_relaxed) >= policy.times) {
    return false;
  }
  fails_.fetch_add(1, std::memory_order_relaxed);
  KFLEX_TRACE(ObsEvent::kFaultFired, obs_index_, hit);
  KFLEX_OBS_COUNT(kFaultsFired);
  return true;
}

void FaultPoint::Arm(const FaultPolicy& policy) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    policy_ = policy;
  }
  hits_.store(0, std::memory_order_relaxed);
  fails_.store(0, std::memory_order_relaxed);
  armed_.store(policy.kind != FaultPolicy::Kind::kOff, std::memory_order_relaxed);
}

void FaultPoint::Disarm() {
  armed_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = FaultPolicy{};
}

FaultPolicy FaultPoint::policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

void FaultPoint::ResetCounters() {
  hits_.store(0, std::memory_order_relaxed);
  fails_.store(0, std::memory_order_relaxed);
}

FaultRegistry::FaultRegistry()
    : points_([] {
        std::vector<std::unique_ptr<FaultPoint>> points;
        for (const char* name : kCatalog) {
          points.push_back(
              std::make_unique<FaultPoint>(name, static_cast<uint32_t>(points.size())));
        }
        return points;
      }()) {
  // The fuzzer/env knob: arm from KFLEX_FAULT on first use so any binary in
  // the tree honors it without plumbing. Errors are reported, not fatal.
  Status env = ArmFromEnv();
  if (!env.ok()) {
    std::fprintf(stderr, "kflex: ignoring bad KFLEX_FAULT: %s\n", env.ToString().c_str());
  }
}

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultPoint& FaultRegistry::Point(std::string_view name) {
  FaultPoint* point = Find(name);
  if (point == nullptr) {
    KFLEX_LOG(Error) << "fault point \"" << name << "\" is not in the catalog";
  }
  KFLEX_CHECK(point != nullptr);
  return *point;
}

FaultPoint* FaultRegistry::Find(std::string_view name) {
  for (auto& p : points_) {
    if (p->name() == name) {
      return p.get();
    }
  }
  return nullptr;
}

std::vector<std::string> FaultRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& p : points_) {
    names.push_back(p->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status FaultRegistry::Arm(std::string_view name, const FaultPolicy& policy) {
  FaultPoint* point = Find(name);
  if (point == nullptr) {
    return Status(StatusCode::kNotFound,
                  "unknown fault point '" + std::string(name) + "' (see --fault=list)");
  }
  point->Arm(policy);
  return OkStatus();
}

Status FaultRegistry::ArmSpec(std::string_view spec) {
  StatusOr<std::pair<std::string, FaultPolicy>> parsed = ParseFaultSpec(spec);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Arm(parsed->first, parsed->second);
}

Status FaultRegistry::ArmFromEnv(const char* env_var) {
  const char* value = std::getenv(env_var);
  if (value == nullptr || value[0] == '\0') {
    return OkStatus();
  }
  std::string_view rest = value;
  while (!rest.empty()) {
    size_t semi = rest.find(';');
    std::string_view spec = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{} : rest.substr(semi + 1);
    if (spec.empty()) {
      continue;
    }
    Status s = ArmSpec(spec);
    if (!s.ok()) {
      return s;
    }
  }
  return OkStatus();
}

void FaultRegistry::DisarmAll() {
  for (auto& p : points_) {
    p->Disarm();
  }
}

void FaultRegistry::ResetCounters() {
  for (auto& p : points_) {
    p->ResetCounters();
  }
}

std::vector<FaultRegistry::PointStats> FaultRegistry::Stats() const {
  std::vector<PointStats> stats;
  stats.reserve(points_.size());
  for (const auto& p : points_) {
    PointStats s;
    s.name = p->name();
    s.armed = p->armed();
    s.policy = p->armed() ? p->policy().ToString() : "off";
    s.hits = p->hits();
    s.fails = p->fails();
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const PointStats& a, const PointStats& b) { return a.name < b.name; });
  return stats;
}

ScopedFaultInjection::ScopedFaultInjection(std::initializer_list<std::string_view> specs) {
  for (std::string_view spec : specs) {
    Status s = Arm(spec);
    if (!s.ok()) {
      std::fprintf(stderr, "kflex: ScopedFaultInjection: %s\n", s.ToString().c_str());
    }
  }
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultRegistry::Instance().DisarmAll();
  FaultRegistry::Instance().ResetCounters();
}

}  // namespace kflex
