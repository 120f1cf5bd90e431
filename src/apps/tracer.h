// Observability & security extensions: the other big production uses of
// kernel extensibility the paper motivates (§1: "better observability ...
// improved security").
//
//  * SyscallFilter (LSM hook): denies syscalls present in a heap-resident
//    deny bitmap. The policy lives in the shared heap, so user space updates
//    it live through the mapped heap — no reload, no maps syscalls (§3.4).
//    On cancellation the hook denies by default (§4.3).
//  * LatencyTracer (tracepoint hook): log2 latency histogram maintained in
//    extension memory with statically verified (guard-free) counter updates,
//    read directly by user space.
#ifndef SRC_APPS_TRACER_H_
#define SRC_APPS_TRACER_H_

#include <array>
#include <cstdint>

#include "src/kernel/kernel.h"
#include "src/uapi/user_heap.h"

namespace kflex {

// ---- Syscall filter ------------------------------------------------------------

struct SyscallFilterLayout {
  static constexpr uint64_t kBitmapOff = 64;       // 512 x u64 = bits for 32768 nrs
  static constexpr int kMaxSyscalls = 32768;
  static constexpr uint64_t kDeniedCountOff = 64 + 4096;
  static constexpr uint64_t kStaticBytes = 4096 + 8;
};

// LSM ctx: u64 syscall_nr @0, u64 uid @8.
Program BuildSyscallFilterExtension(uint64_t heap_size = 1 << 20);

class SyscallFilter {
 public:
  static StatusOr<SyscallFilter> Create(MockKernel& kernel);

  // Returns the hook verdict: 0 = allow, -1 = deny.
  int64_t Check(int cpu, uint64_t syscall_nr, uint64_t uid = 0);

  // Live policy updates from user space through the mapped heap.
  void Deny(uint64_t syscall_nr);
  void Allow(uint64_t syscall_nr);
  uint64_t denied_hits() const;

  ExtensionId id() const { return id_; }

 private:
  SyscallFilter(MockKernel& kernel, ExtensionId id)
      : kernel_(&kernel), id_(id), view_(kernel.runtime().heap(id)) {}

  MockKernel* kernel_;
  ExtensionId id_;
  UserHeapView view_;
};

// ---- Latency tracer ------------------------------------------------------------

struct LatencyTracerLayout {
  static constexpr int kBuckets = 64;              // log2 buckets
  static constexpr uint64_t kBucketsOff = 64;      // u64[64]
  static constexpr uint64_t kCountOff = 64 + 64 * 8;
  static constexpr uint64_t kSumOff = kCountOff + 8;
  static constexpr uint64_t kStaticBytes = 64 * 8 + 16;
};

// Tracepoint ctx: u64 latency_ns @0.
Program BuildLatencyTracerExtension(uint64_t heap_size = 1 << 20);

class LatencyTracer {
 public:
  static StatusOr<LatencyTracer> Create(MockKernel& kernel);

  void Record(int cpu, uint64_t latency_ns);

  // User-space reads through the shared heap.
  uint64_t BucketCount(int bucket) const;
  uint64_t TotalCount() const;
  uint64_t TotalSum() const;

  ExtensionId id() const { return id_; }

 private:
  LatencyTracer(MockKernel& kernel, ExtensionId id)
      : kernel_(&kernel), id_(id), view_(kernel.runtime().heap(id)) {}

  MockKernel* kernel_;
  ExtensionId id_;
  UserHeapView view_;
};

}  // namespace kflex

#endif  // SRC_APPS_TRACER_H_
