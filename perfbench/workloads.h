// The three workloads of the wall-clock benchmark (README.md). Each has an
// untraced run, which reports the end-to-end metrics, and a layer pass, which
// records spans around calls into the library's public functions and reports
// per-layer metrics. Nothing inside the library is traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "src/obs/obs.h"
#include "src/runtime/runtime.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span CSV path of a traced run; empty = none
};

// Set-ups repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;
// Windows a timed phase is split into (measure.h: Windows).
inline constexpr int kWindows = 60;

// What every workload ships with: optimizer on, the JIT with the v2 passes,
// observability off (the process default), default runtime options.
inline kflex::EngineChoice ShippedEngine() {
  kflex::EngineChoice e;
  e.optimize = true;
  e.engine = kflex::ExecEngine::kJit;
  e.jit.v2 = true;
  return e;
}

// False when the JIT fell back to the interpreter.
inline bool RunsNative(const kflex::EngineInfo& info) {
  return info.used != kflex::ExecEngine::kInterp;
}

inline kflex::LoadOptions ShippedLoadOptions() {
  kflex::EngineChoice e = ShippedEngine();
  kflex::LoadOptions lo;
  lo.optimize = e.optimize;
  lo.engine = e.engine;
  lo.jit = e.jit;
  return lo;
}

// Untraced runs: end-to-end metrics, with every output checked.
void RunKvZipf(const Options& opts, Report& report);
void RunNetfnSharded(const Options& opts, Report& report);
void RunLoadCatalog(const Options& opts, Report& report);

// Layer passes of a traced run. `budget_s` is the wall time the pass may
// use; `primary` marks the workload the run was asked for, which also
// reports the run's measurement-health and obs-counter metrics.
void TraceKvZipf(const Options& opts, double budget_s, bool primary, SpanRecorder& spans,
                 Report& report);
void TraceNetfnSharded(const Options& opts, double budget_s, bool primary,
                       SpanRecorder& spans, Report& report);
void TraceLoadCatalog(const Options& opts, double budget_s, bool primary,
                      SpanRecorder& spans, Report& report);

// Times `fn` in batches of `batch` calls, one span per batch, until the
// budget, the span store or kMaxTimedBatches runs out. Returns the median ns
// per call and sets *batches to the number of batches it rests on.
inline constexpr uint64_t kMaxTimedBatches = 4096;
template <typename Fn>
double TimeBatches(SpanRecorder& spans, const char* name, int batch, double budget_s, Fn&& fn,
                   uint64_t* batches) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  std::vector<double> per_call;
  uint64_t n = 0;
  do {
    uint32_t id = spans.Begin(name, 0, n++);
    for (int i = 0; i < batch; i++) {
      fn();
    }
    spans.End(id);
    if (id != 0) {
      per_call.push_back(static_cast<double>(spans.Duration(id)) / batch);
    }
  } while (NowNs() < deadline && !spans.full() && n < kMaxTimedBatches);
  *batches = per_call.size();
  return Median(std::move(per_call));
}

// Reports runtime.invoke_floor_ns: the median Runtime::Invoke time of an
// empty program on the shipped engine, the fixed per-call cost every
// workload pays.
void MeasureInvokeFloor(double budget_s, SpanRecorder& spans, Report& report);

// Logs the pooled latency summary of a windowed phase: the median and the
// highest percentile with ten samples beyond it, with their sample counts.
void ReportWindows(const Windows& win, const std::string& what, Report& report);

// Obs counters summed over `rt`'s extensions and the unattributed slot.
using ObsCounts = std::array<uint64_t, static_cast<size_t>(kflex::ObsCounter::kCount)>;
ObsCounts ObsTotals(const kflex::Runtime& rt);
// Reports the counting-pass metrics from two ObsTotals taken around `ops`
// operations run with obs metrics on.
void ReportObsCounters(const ObsCounts& before, const ObsCounts& after, uint64_t ops,
                       Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
