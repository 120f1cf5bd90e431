// kflex_perfbench: one wall-clock benchmark over three workloads.
//
//   kflex_perfbench --workload kv_zipf|netfn_sharded|load_catalog
//                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics of the workload; --trace 1 runs the
// layer passes of all three workloads (the named one gets half the time) and
// prints the per-layer metrics, writing the recorded spans to --trace-out.
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}).
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "workloads.h"

extern "C" void __gcov_dump(void) __attribute__((weak));

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

// A number from an unoptimized, sanitized or coverage build must never be
// recorded: refuse to run in one.
bool MeasurableBuild(std::string* why) {
#ifndef __OPTIMIZE__
  *why = "built without optimization";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  *why = "built with a sanitizer";
  return false;
#endif
#endif
  if (&__gcov_dump != nullptr) {
    *why = "built with coverage instrumentation";
    return false;
  }
  const std::string flags = PERFBENCH_CXX_FLAGS;
  for (const char* bad : {"--coverage", "-fprofile-arcs", "-fsanitize", "-O0"}) {
    if (flags.find(bad) != std::string::npos) {
      *why = std::string("compiled with ") + bad;
      return false;
    }
  }
  return true;
}

// Seconds every CPU is kept busy before anything is timed.
constexpr double kSettleSeconds = 3;

// On the reference VM, a multi-threaded run that follows a single-threaded
// one, or an idle spell, often starts on CPUs that answer wake-ups slowly for
// a long time: its set-up took up to four times longer and its open-loop p99
// rose from ~25 us to as much as 1.6 ms for the whole run. Keeping every CPU
// busy for a few seconds first removed most of that dependence on what ran
// before. Uses one thread per CPU, this one included.
void SettleCpus(double seconds) {
  const uint64_t until = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  auto spin = [until] {
    while (NowNs() < until) {
    }
  };
  std::vector<std::thread> others;
  for (unsigned i = 1; i < std::max(1u, std::thread::hardware_concurrency()); i++) {
    others.emplace_back(spin);
  }
  spin();
  for (std::thread& t : others) {
    t.join();
  }
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      opts.trace = val == "1";
      if (val != "0" && val != "1") {
        return false;
      }
    } else if (key == "--trace-out") {
      opts.trace_out = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  if (argc % 2 != 1) {
    return false;
  }
  return (opts.workload == "kv_zipf" || opts.workload == "netfn_sharded" ||
          opts.workload == "load_catalog") &&
         opts.seconds > 0 && opts.seconds <= 120;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: kflex_perfbench --workload kv_zipf|netfn_sharded|load_catalog "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  std::string why;
  if (!MeasurableBuild(&why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s (build type %s)\n", why.c_str(),
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // Extension heaps are large malloc'd blocks. glibc raises its mmap
  // threshold after the first such block is freed and then serves later
  // heaps from retained memory, so load time and resident memory would
  // depend on the history of frees. A fixed threshold maps every heap
  // fresh, as a kernel would.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  SettleCpus(kSettleSeconds);

  Report report;
  report.Note("build " + std::string(PERFBENCH_BUILD_TYPE) + ", compiler " + __VERSION__ +
              ", nproc " + std::to_string(std::thread::hardware_concurrency()));
  report.Note("workload " + opts.workload + ", seed " + std::to_string(opts.seed) +
              ", seconds " + std::to_string(opts.seconds) + ", trace " +
              (opts.trace ? "1" : "0"));

  if (!opts.trace) {
    if (opts.workload == "kv_zipf") {
      RunKvZipf(opts, report);
    } else if (opts.workload == "netfn_sharded") {
      RunNetfnSharded(opts, report);
    } else {
      RunLoadCatalog(opts, report);
    }
  } else {
    // Each layer pass gets its own span store so one cannot starve another.
    SpanRecorder floor_spans(1 << 16);
    SpanRecorder kv_spans(1 << 18);
    SpanRecorder netfn_spans(1 << 18);
    SpanRecorder load_spans(1 << 16);
    const double floor_s = 0.05 * opts.seconds;
    const double rest = opts.seconds - floor_s;
    auto share = [&](const char* name) {
      return opts.workload == name ? 0.5 * rest : 0.25 * rest;
    };
    MeasureInvokeFloor(floor_s, floor_spans, report);
    TraceLoadCatalog(opts, share("load_catalog"), opts.workload == "load_catalog", load_spans,
                     report);
    TraceKvZipf(opts, share("kv_zipf"), opts.workload == "kv_zipf", kv_spans, report);
    TraceNetfnSharded(opts, share("netfn_sharded"), opts.workload == "netfn_sharded",
                      netfn_spans, report);
    report.failed = report.failures();
    if (!opts.trace_out.empty()) {
      bool ok = floor_spans.WriteCsv(opts.trace_out, false) &&
                load_spans.WriteCsv(opts.trace_out, true) &&
                kv_spans.WriteCsv(opts.trace_out, true) &&
                netfn_spans.WriteCsv(opts.trace_out, true);
      if (!ok) {
        std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                     opts.trace_out.c_str());
      }
    }
  }
  if (!report.Print()) {
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
