// Service models wiring the real application data planes into the
// closed-loop simulator. Each request is executed for real; its measured
// instruction count (converted at CostModel::ns_per_insn) is added to the
// kernel-path cost of the system under test:
//
//   KFlex-Memcached  XDP hook            driver_rx + [tcp fastpath] + xdp_tx
//   BMC              XDP hit / user miss full user path on misses and SETs
//   User Memcached   full kernel stack   udp/tcp rx + wakeup + syscalls
//   KFlex-Redis      sk_skb hook         rx stack + kernel tx (no syscalls)
//   KeyDB            full kernel stack
//
// User-space baselines run the identical application logic as trusted
// uninstrumented code (the KMod flavour) so all compute is measured in the
// same currency and relative overheads are preserved.
#ifndef SRC_SIM_KV_MODELS_H_
#define SRC_SIM_KV_MODELS_H_

#include <memory>
#include <string>

#include "src/apps/codesign.h"
#include "src/apps/memcached.h"
#include "src/apps/redis.h"
#include "src/kernel/costmodel.h"
#include "src/sim/closedloop.h"

namespace kflex {

// Deterministic value payload for a key (32 B, as in §5.1's workloads).
std::string ValueForKey(uint64_t key);

KieOptions KmodKieOptions();

// ---- Memcached systems --------------------------------------------------------

class KflexMemcachedSystem : public ServiceModel {
 public:
  static StatusOr<std::unique_ptr<KflexMemcachedSystem>> Create(const CostModel& cost,
                                                                int server_threads,
                                                                const KieOptions& kie = {});
  void Prepopulate(uint64_t key_space);
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override;

 private:
  KflexMemcachedSystem(const CostModel& cost) : cost_(cost) {}
  CostModel cost_;
  std::unique_ptr<MockKernel> kernel_;
  std::unique_ptr<KflexMemcachedDriver> driver_;
};

// User-space Memcached: the same logic as trusted native code behind the
// full kernel stack.
class UserMemcachedSystem : public ServiceModel {
 public:
  static StatusOr<std::unique_ptr<UserMemcachedSystem>> Create(const CostModel& cost,
                                                               int server_threads);
  void Prepopulate(uint64_t key_space);
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override;

 private:
  UserMemcachedSystem(const CostModel& cost) : cost_(cost) {}
  CostModel cost_;
  std::unique_ptr<MockKernel> kernel_;
  std::unique_ptr<KflexMemcachedDriver> proxy_;
};

class BmcSystem : public ServiceModel {
 public:
  static StatusOr<std::unique_ptr<BmcSystem>> Create(const CostModel& cost,
                                                     int server_threads);
  void Prepopulate(uint64_t key_space);
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override;

 private:
  BmcSystem(const CostModel& cost) : cost_(cost) {}
  // Calibrated user-space compute for the miss path.
  void Calibrate();
  CostModel cost_;
  std::unique_ptr<MockKernel> kernel_;
  std::unique_ptr<BmcDriver> driver_;
  double user_get_insns_ = 0;
  double user_set_insns_ = 0;
};

// ---- Redis systems ------------------------------------------------------------

class KflexRedisSystem : public ServiceModel {
 public:
  static StatusOr<std::unique_ptr<KflexRedisSystem>> Create(const CostModel& cost,
                                                            int server_threads,
                                                            const KieOptions& kie = {});
  void Prepopulate(uint64_t key_space);
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override;

 private:
  KflexRedisSystem(const CostModel& cost) : cost_(cost) {}
  CostModel cost_;
  std::unique_ptr<MockKernel> kernel_;
  std::unique_ptr<KflexRedisDriver> driver_;
  uint64_t zadd_counter_ = 0;
};

// KeyDB-style baseline: parallel user-space Redis.
class UserRedisSystem : public ServiceModel {
 public:
  static StatusOr<std::unique_ptr<UserRedisSystem>> Create(const CostModel& cost,
                                                           int server_threads);
  void Prepopulate(uint64_t key_space);
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override;

 private:
  UserRedisSystem(const CostModel& cost) : cost_(cost) {}
  CostModel cost_;
  std::unique_ptr<MockKernel> kernel_;
  std::unique_ptr<KflexRedisDriver> proxy_;
  uint64_t zadd_counter_ = 0;
};

// ---- Co-designed Memcached (§5.3) ----------------------------------------------

class CodesignSystem : public ServiceModel {
 public:
  static StatusOr<std::unique_ptr<CodesignSystem>> Create(const CostModel& cost,
                                                          int server_threads);
  void Prepopulate(uint64_t key_space);
  uint64_t ServeNs(int cpu, KvOp op, uint64_t key) override;
  // Background GC activity for the simulator: evicts entries older than 5
  // epochs and reports the virtual stall it imposes.
  BackgroundTask GcTask(uint64_t interval_ns);

 private:
  CodesignSystem(const CostModel& cost) : cost_(cost) {}
  CostModel cost_;
  std::unique_ptr<MockKernel> kernel_;
  std::unique_ptr<CodesignMemcached> app_;
  uint64_t epoch_ = 10;  // advanced by the GC task
};

}  // namespace kflex

#endif  // SRC_SIM_KV_MODELS_H_
