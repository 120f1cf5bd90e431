// Deterministic fault injection (kernel failslab / fail_page_alloc style).
//
// Named fault points are compiled into the error-prone hot paths of the
// runtime: the slab allocator (`alloc.slab`, `alloc.percpu`), the demand
// pager (`heap.pagein`, `heap.guard`), the W^X code cache (`jit.mmap`,
// `jit.mprotect`), map updates (`map.update`), helper dispatch
// (`helper.ret_err`) and spin-lock acquisition (`lock.delay`). A disarmed
// point costs one relaxed counter increment and a branch.
//
// Armed points fail according to a policy that is a pure function of
// (policy, hit index): no wallclock or shared randomness is consulted at
// fire time, so a failure schedule replays exactly from its printed
// `point:spec` string. Policies are armed per point via RuntimeOptions
// (fault_specs), `kflex_run --fault=point:spec`, or the KFLEX_FAULT
// environment variable (';'-separated specs, applied on first registry use —
// the fuzzer knob).
#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace kflex {

// What happens when an armed point's schedule fires.
struct FaultPolicy {
  enum class Kind : uint8_t {
    kOff = 0,
    kNth,     // fail exactly the Nth hit (1-based)
    kEveryN,  // fail every Nth hit
    kProb,    // seeded-probabilistic schedule
  };
  Kind kind = Kind::kOff;
  uint64_t n = 0;         // kNth: which hit; kEveryN: the period
  uint32_t prob_ppm = 0;  // kProb: failure probability, parts per million
  uint64_t seed = 0;      // kProb: schedule seed
  uint64_t times = 0;     // cap on total failures; 0 = unlimited

  // Canonical spec form; round-trips through ParseFaultPolicy.
  std::string ToString() const;
};

// Spec grammar (comma-separated key=value):
//   "off"                          disarm
//   "nth=N[,times=T]"              fail the Nth hit
//   "every=N[,times=T]"            fail every Nth hit
//   "prob=P[,seed=S][,times=T]"    fail with probability P in [0,1]
StatusOr<FaultPolicy> ParseFaultPolicy(std::string_view spec);

// Splits "point:spec" into its point name and parsed policy.
StatusOr<std::pair<std::string, FaultPolicy>> ParseFaultSpec(std::string_view spec);

// The pure schedule function: does 0-based hit number `hit` fail under
// `policy`? Exposed for tests; FaultPoint::ShouldFail applies it plus the
// `times` cap.
bool FaultScheduleFires(const FaultPolicy& policy, uint64_t hit);

// One named injection site. Instances live forever in the FaultRegistry;
// hot paths cache a pointer via KFLEX_FAULT_FIRE.
class FaultPoint {
 public:
  FaultPoint(std::string name, uint32_t obs_index)
      : name_(std::move(name)), obs_index_(obs_index) {}

  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const std::string& name() const { return name_; }

  // Hot path: counts the hit and reports whether this hit should fail.
  bool ShouldFail();

  // Arming resets the hit/fail counters so the schedule starts fresh.
  void Arm(const FaultPolicy& policy);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  FaultPolicy policy() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t fails() const { return fails_.load(std::memory_order_relaxed); }
  void ResetCounters();

  // Stable catalog index; stamped into fault.fired trace events (the obs
  // catalog carries it as `point_index`).
  uint32_t obs_index() const { return obs_index_; }

 private:
  std::string name_;
  uint32_t obs_index_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fails_{0};
  mutable std::mutex mu_;  // guards policy_
  FaultPolicy policy_;
};

// Process-wide registry of fault points: exactly the built-in catalog,
// registered at construction so tools and the chaos harness can enumerate
// every point whether or not its code path has executed yet. The catalog is
// closed, so every lookup reads a table that never changes, without a lock.
class FaultRegistry {
 public:
  static FaultRegistry& Instance();

  // The catalog point `name`; a name outside the catalog fails a check. The
  // returned reference is stable for process lifetime.
  FaultPoint& Point(std::string_view name);
  // nullptr when `name` is not in the catalog.
  FaultPoint* Find(std::string_view name);
  // Sorted names of every registered point.
  std::vector<std::string> Names() const;

  // Arm `name` with `policy`; error if the point is unknown (catches typos:
  // every injectable site registers itself in the built-in catalog).
  Status Arm(std::string_view name, const FaultPolicy& policy);
  // Arms from one "point:spec" string.
  Status ArmSpec(std::string_view spec);
  // Arms from a ';'-separated spec list in environment variable `env_var`.
  // Missing/empty variable is OK (no-op).
  Status ArmFromEnv(const char* env_var = "KFLEX_FAULT");

  void DisarmAll();
  void ResetCounters();

  struct PointStats {
    std::string name;
    bool armed = false;
    std::string policy;  // canonical spec, "off" when disarmed
    uint64_t hits = 0;
    uint64_t fails = 0;
  };
  std::vector<PointStats> Stats() const;

 private:
  FaultRegistry();

  const std::vector<std::unique_ptr<FaultPoint>> points_;  // exactly kCatalog
};

// RAII arming for tests: arms specs on construction, disarms *all* points
// and zeroes counters on destruction. Scopes do not nest (the registry is
// process-global).
class ScopedFaultInjection {
 public:
  ScopedFaultInjection() = default;
  explicit ScopedFaultInjection(std::initializer_list<std::string_view> specs);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  Status Arm(std::string_view spec) { return FaultRegistry::Instance().ArmSpec(spec); }
};

// Hot-path test: one static pointer resolution on first execution (the name
// must be in the catalog), then a counter increment + relaxed flag load per
// hit.
#define KFLEX_FAULT_FIRE(point_name)                               \
  ([]() -> bool {                                                  \
    static ::kflex::FaultPoint* kflex_fault_point =                \
        &::kflex::FaultRegistry::Instance().Point(point_name);     \
    return kflex_fault_point->ShouldFail();                        \
  })()

}  // namespace kflex

#endif  // SRC_FAULT_FAULT_H_
