// Shared measurement core of the wall-clock benchmark: monotonic-clock spans,
// bounded latency samples with percentile summaries, process resource usage
// from getrusage, and the report that names every metric with its unit.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// One traced interval. Spans of one request share `request`; `parent` is the
// id of the enclosing span (0 = root). Ids are 1-based indices.
struct Span {
  const char* name = "";
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// In-memory span store with a fixed capacity, written out once at the end of
// the run. Not thread-safe: record from one thread. Begin returns 0 once the
// store is full; End(0) is a no-op, so callers need not check.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity);

  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);
  bool full() const { return spans_.size() == capacity_; }
  size_t free() const { return capacity_ - spans_.size(); }

  // Durations (ns) of the completed spans named `name`, in record order.
  std::vector<double> Durations(const char* name) const;
  // Duration of span `id` (0 if unknown or still open).
  uint64_t Duration(uint32_t id) const;

  // One line per span: id,parent,request,name,start_ns,end_ns. Ids are
  // unique within one recorder. `append` adds to an existing file and skips
  // the header.
  bool WriteCsv(const std::string& path, bool append) const;

 private:
  size_t capacity_;
  std::vector<Span> spans_;
};

// Scoped span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint32_t parent, uint64_t request)
      : rec_(rec), id_(rec.Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  uint32_t id_;
};

// Fixed-capacity uniform sample of a stream (reservoir sampling, seeded), so
// memory does not grow with throughput. Storage is touched at construction.
class Samples {
 public:
  Samples(size_t capacity, uint64_t seed);
  void Add(double v);
  const std::vector<double>& values() const { return values_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  uint64_t rng_;
  std::vector<double> values_;
};

// Percentile by linear interpolation between closest ranks; q in [0, 1].
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The median plus the highest percentile that still has at least ten
// samples beyond it, each with the number of samples it rests on.
struct TailSummary {
  uint64_t count = 0;
  double p50 = 0;
  double tail_q = 0;  // e.g. 0.999
  double tail = 0;
  uint64_t beyond = 0;  // samples above the tail percentile
};
TailSummary Summarize(const std::vector<double>& values);

// A timed phase split into equal windows of wall time. Rates and
// percentiles are taken per window and the reported value is their median
// over the windows. On a shared host, neighbours slow stretches of a run;
// the median ignores a slowdown that lasts less than half the run, yet a
// slowdown of the system in most windows, steady or intermittent, moves it.
class Windows {
 public:
  Windows(int count, uint64_t start_ns, uint64_t end_ns, size_t samples_per_window,
          uint64_t seed);

  int count() const { return static_cast<int>(ops_.size()); }
  int At(uint64_t now_ns) const;
  // `ops` completed in window `w` over `busy_ns` of measured time.
  void AddOps(int w, uint64_t ops, uint64_t busy_ns);
  void AddSample(int w, double v) { samples_[static_cast<size_t>(w)].Add(v); }
  // For phases busy the whole time: every window's measured time is its
  // full width.
  void BusyWholeWindows();

  uint64_t ops() const;
  uint64_t samples() const;  // samples kept, over all windows
  // Median over the windows of ops per measured second.
  double Rate() const;
  // Median over the windows of the sample percentile `q`.
  double Percentile(double q) const;
  // Summary of all windows' samples pooled (for the log).
  TailSummary Pooled() const;

 private:
  uint64_t start_ns_;
  uint64_t width_ns_;
  std::vector<uint64_t> ops_;
  std::vector<uint64_t> busy_ns_;
  std::vector<Samples> samples_;
};

struct Usage {
  double peak_rss_mb = 0;
  double cpu_s = 0;  // user + system, whole process
};
Usage ReadUsage();

// Every metric a run reports, printed once as a table (name, value, unit,
// sample count) and once as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t count = 0);
  void Note(const std::string& line) { notes_.push_back(line); }
  void Fail(const std::string& why);

  bool correct() const { return failures_.empty(); }
  uint64_t failures() const { return fail_count_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints notes, failures and the table to stdout, then the JSON line.
  // Returns false when a value is not finite (nothing is printed then).
  bool Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t count;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;  // the first few, for the log
  uint64_t fail_count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
