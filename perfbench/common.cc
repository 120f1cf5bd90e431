#include <cstdio>

#include "src/ebpf/assembler.h"
#include "src/kernel/packet.h"
#include "workloads.h"

namespace perfbench {

using namespace kflex;

void MeasureInvokeFloor(double budget_s, SpanRecorder& spans, Report& report) {
  Assembler a;
  a.MovImm(R0, 0);
  a.Exit();
  StatusOr<Program> program = a.Finish("perfbench_empty", Hook::kXdp, ExtensionMode::kKflex);
  Runtime rt;
  StatusOr<ExtensionId> id =
      program.ok() ? rt.Load(*program, ShippedLoadOptions()) : program.status();
  if (!id.ok()) {
    report.Fail("empty program did not load: " + id.status().message());
    return;
  }
  if (!RunsNative(rt.engine_info(*id))) {
    report.Fail("empty program fell back to the interpreter");
  }
  uint8_t ctx[kCtxSize] = {};
  uint64_t bad = 0;
  uint64_t batches = 0;
  double ns = TimeBatches(spans, "runtime.invoke_x64", 64, budget_s, [&] {
    InvokeResult r = rt.Invoke(*id, 0, ctx, kCtxSize);
    bad += (!r.attached || r.cancelled) ? 1 : 0;
  }, &batches);
  if (bad != 0) {
    report.Fail("empty program invocations failed");
  }
  report.attempted += batches * 64;
  report.Add("runtime.invoke_floor_ns", ns, "ns", batches);
}

void ReportWindows(const Windows& win, const std::string& what, Report& report) {
  TailSummary s = win.Pooled();
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: p50 %.3f us, p%g %.3f us with %llu samples beyond, of %llu samples "
                "(%d windows; the metrics are medians over the windows)",
                what.c_str(), s.p50 * 1e-3, s.tail_q * 100, s.tail * 1e-3,
                static_cast<unsigned long long>(s.beyond),
                static_cast<unsigned long long>(s.count), win.count());
  report.Note(line);
}

ObsCounts ObsTotals(const Runtime& rt) {
  ObsCounts total{};
  ObsSnapshot snap = rt.SnapshotMetrics();
  for (const ObsExtSnapshot& ext : snap.extensions) {
    for (size_t c = 0; c < total.size(); c++) {
      total[c] += ext.counters[c];
    }
  }
  return total;
}

void ReportObsCounters(const ObsCounts& before, const ObsCounts& after, uint64_t ops,
                       Report& report) {
  auto delta = [&](ObsCounter c) {
    size_t i = static_cast<size_t>(c);
    return static_cast<double>(after[i] - before[i]);
  };
  report.Add("runtime.helper_calls_per_op",
             ops == 0 ? 0.0 : delta(ObsCounter::kHelperCalls) / static_cast<double>(ops),
             "count", ops);
  report.Add("runtime.alloc_refills", delta(ObsCounter::kAllocRefills), "count");
  report.Add("runtime.page_ins", delta(ObsCounter::kPageIns), "count");
  report.Add("runtime.lock_contended", delta(ObsCounter::kLockContended), "count");
}

}  // namespace perfbench
