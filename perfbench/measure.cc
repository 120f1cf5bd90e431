#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

SpanRecorder::SpanRecorder(size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent, uint64_t request) {
  if (full()) {
    return 0;
  }
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::End(uint32_t id) {
  if (id != 0) {
    spans_[id - 1].end_ns = NowNs();
  }
}

std::vector<double> SpanRecorder::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

uint64_t SpanRecorder::Duration(uint32_t id) const {
  if (id == 0 || id > spans_.size() || spans_[id - 1].end_ns == 0) {
    return 0;
  }
  return spans_[id - 1].end_ns - spans_[id - 1].start_ns;
}

bool SpanRecorder::WriteCsv(const std::string& path, bool append) const {
  FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) {
    return false;
  }
  if (!append) {
    std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  }
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%llu,%s,%llu,%llu\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Samples::Samples(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed | 1) {
  values_.reserve(capacity);
  // Touch the storage now so resident memory does not depend on how many
  // samples a run happens to take.
  values_.resize(capacity);
  values_.clear();
}

void Samples::Add(double v) {
  seen_++;
  if (values_.size() < capacity_) {
    values_.push_back(v);
    return;
  }
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  uint64_t slot = rng_ % seen_;
  if (slot < capacity_) {
    values_[slot] = v;
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(lo), values.end());
  double lo_v = values[lo];
  if (lo + 1 >= values.size()) {
    return lo_v;
  }
  double hi_v = *std::min_element(values.begin() + static_cast<long>(lo) + 1, values.end());
  return lo_v + (hi_v - lo_v) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

TailSummary Summarize(const std::vector<double>& values) {
  TailSummary s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  s.p50 = Percentile(values, 0.5);
  // Highest of p90, p99, p99.9, ... with at least ten samples above it.
  double q = 0.5;
  for (double cand = 0.9; cand < 1.0; cand = 1.0 - (1.0 - cand) / 10) {
    if (static_cast<double>(values.size()) * (1.0 - cand) < 10) {
      break;
    }
    q = cand;
  }
  s.tail_q = q;
  s.tail = Percentile(values, q);
  s.beyond = static_cast<uint64_t>(std::count_if(values.begin(), values.end(),
                                                 [&](double v) { return v > s.tail; }));
  return s;
}

Windows::Windows(int count, uint64_t start_ns, uint64_t end_ns, size_t samples_per_window,
                 uint64_t seed)
    : start_ns_(start_ns),
      width_ns_(std::max<uint64_t>(1, (end_ns - start_ns) / static_cast<uint64_t>(count))),
      ops_(static_cast<size_t>(count), 0),
      busy_ns_(static_cast<size_t>(count), 0) {
  for (int w = 0; w < count; w++) {
    samples_.emplace_back(samples_per_window, seed + static_cast<uint64_t>(w));
  }
}

int Windows::At(uint64_t now_ns) const {
  uint64_t w = now_ns <= start_ns_ ? 0 : (now_ns - start_ns_) / width_ns_;
  return static_cast<int>(std::min<uint64_t>(w, ops_.size() - 1));
}

void Windows::AddOps(int w, uint64_t ops, uint64_t busy_ns) {
  ops_[static_cast<size_t>(w)] += ops;
  busy_ns_[static_cast<size_t>(w)] += busy_ns;
}

void Windows::BusyWholeWindows() {
  for (uint64_t& b : busy_ns_) {
    b = width_ns_;
  }
}

uint64_t Windows::ops() const {
  uint64_t n = 0;
  for (uint64_t o : ops_) {
    n += o;
  }
  return n;
}

uint64_t Windows::samples() const {
  uint64_t n = 0;
  for (const Samples& s : samples_) {
    n += s.values().size();
  }
  return n;
}

double Windows::Rate() const {
  std::vector<double> rates;
  for (size_t w = 0; w < ops_.size(); w++) {
    if (busy_ns_[w] != 0) {
      rates.push_back(static_cast<double>(ops_[w]) / (static_cast<double>(busy_ns_[w]) * 1e-9));
    }
  }
  return Median(std::move(rates));
}

double Windows::Percentile(double q) const {
  std::vector<double> per_window;
  for (const Samples& s : samples_) {
    if (!s.values().empty()) {
      per_window.push_back(perfbench::Percentile(s.values(), q));
    }
  }
  return Median(std::move(per_window));
}

TailSummary Windows::Pooled() const {
  std::vector<double> all;
  for (const Samples& s : samples_) {
    all.insert(all.end(), s.values().begin(), s.values().end());
  }
  return Summarize(all);
}

Usage ReadUsage() {
  Usage u;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  }
  return u;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 uint64_t count) {
  metrics_.push_back(Metric{name, value, unit, count});
}

void Report::Fail(const std::string& why) {
  fail_count_++;
  if (failures_.size() < 20) {
    failures_.push_back(why);
  }
}

bool Report::Print() const {
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return false;
    }
  }
  for (const std::string& n : notes_) {
    std::printf("# %s\n", n.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("! %s\n", f.c_str());
  }
  double error_rate =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("%-34s %18s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics_) {
    if (m.count != 0) {
      std::printf("%-34s %18.6f  %-6s n=%llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.count));
    } else {
      std::printf("%-34s %18.6f  %-6s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%-34s %18.6f  %-6s n=%llu\n", "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
