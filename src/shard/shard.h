// The multi-core sharded dispatch runtime (docs/sharding.md) — the userspace
// analogue of the paper's Fig. 8/9 setup: N worker shards, each with its own
// dispatch thread, ingress ring and per-shard extension state, fed by
// RSS-style flow steering (src/shard/steering.h).
//
// Placement is gated by the PR-7 shard-safety certificate
// (EngineInfo::shard_safety):
//
//   race-free / lock-protected  replicate across all shards: one extension
//                               instance per shard, each with a private heap
//                               (per-shard state; flow steering keeps a key
//                               on one shard so replicas never disagree).
//   serial-only                 pin to a home shard; requests steered
//                               elsewhere are forwarded to the home ring
//                               (counted, traced as shard.forward).
//
// Workers drain their ring in batches (default 32) to amortize engine entry,
// and steal from sibling rings when idle, running only certified-concurrent
// requests (a stolen pinned request goes back home). Ingress never blocks: a
// full ring (or an armed shard.enqueue fault) drops the request and bumps the
// shard's drop counter.
#ifndef SRC_SHARD_SHARD_H_
#define SRC_SHARD_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/append_table.h"
#include "src/base/status.h"
#include "src/runtime/runtime.h"
#include "src/shard/ingress.h"
#include "src/shard/steering.h"

namespace kflex {

// Handle into the sharded extension table (1-based, like ExtensionId).
using ShardExtId = uint32_t;

struct ShardedRuntimeOptions {
  int num_shards = 1;
  // Requests drained per ring visit; batching amortizes wakeup + engine
  // entry across requests, like NAPI polling at the XDP hook boundary.
  int batch_size = 32;
  // Ingress ring capacity per shard (power of two).
  size_t queue_capacity = 4096;
  // Options for the underlying Runtime. num_cpus is raised to num_shards if
  // smaller — workers invoke with cpu = shard index.
  RuntimeOptions runtime;
};

// Where an extension's instances live, derived from its certificate.
struct ShardPlacement {
  ShardSafety safety = ShardSafety::kRaceFree;
  bool replicated = false;
  int home_shard = 0;              // meaningful when !replicated
  // Underlying Runtime ids: one per shard when replicated (index = shard),
  // exactly one (the home instance) when pinned.
  std::vector<ExtensionId> replicas;
};

// One steered request. The ctx buffer is caller-owned and must stay valid
// until on_done fires (or forever, for fire-and-forget submits).
struct ShardRequest {
  ShardExtId ext = 0;
  uint8_t* ctx = nullptr;
  uint32_t ctx_size = 0;
  uint64_t flow_hash = 0;
  // Completion callback, invoked on the worker thread that ran the request.
  // Plain function pointer + user cookie: requests live in the lock-free
  // ring, which wants trivially copyable cells.
  void (*on_done)(const InvokeResult& result, void* user) = nullptr;
  void* user = nullptr;
};

// Per-shard counter snapshot (kflex_run --shards metrics, bench/scale).
struct ShardStats {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t invoked = 0;
  uint64_t batches = 0;
  uint64_t batch_occupancy_sum = 0;  // mean occupancy = sum / batches
  uint64_t forwarded = 0;            // steered here, re-routed to a home shard
  uint64_t stolen = 0;               // requests this shard stole from siblings
  size_t queue_depth = 0;            // racy snapshot at collection time
};

class ShardedRuntime {
 public:
  explicit ShardedRuntime(const ShardedRuntimeOptions& options = {});
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  Runtime& runtime() { return runtime_; }
  int num_shards() const { return options_.num_shards; }

  // Loads `program` on every shard the certificate allows: replicated
  // instances (private heap each) for race-free / lock-protected programs,
  // a single home-shard instance for serial-only ones.
  StatusOr<ShardExtId> Load(const Program& program, const LoadOptions& options = {});

  const ShardPlacement& placement(ShardExtId id) const;
  // The Runtime extension serving `shard` (the home instance when pinned).
  ExtensionId ReplicaFor(ShardExtId id, int shard) const;

  // Steers by req.flow_hash and enqueues on the target shard. False = dropped
  // (ring full, shard.enqueue fault armed, unknown/draining extension).
  // Never blocks.
  bool Submit(const ShardRequest& req);

  // Submit + wait: runs the request through the real steering/batching path
  // and blocks until its completion fires. attached=false when dropped.
  InvokeResult InvokeSync(ShardExtId id, uint64_t flow_hash, uint8_t* ctx,
                          uint32_t ctx_size);

  // Blocks until every submitted request has completed (rings empty and no
  // in-flight batches).
  void Flush();

  // Quiesced unload: stops admitting new requests for `id`, drains its
  // in-flight invocations, then detaches every replica via Runtime::Unload.
  // Safe while other extensions keep serving traffic.
  void UnloadQuiesced(ShardExtId id);

  std::vector<ShardStats> SnapshotStats() const;
  // Stable JSON fragment for the metrics surface: an array with one object
  // per shard (kflex_run --metrics=json splices it as "shards").
  std::string StatsJson() const;

 private:
  struct Shard {
    explicit Shard(size_t cap) : queue(cap) {}
    IngressQueue<ShardRequest> queue;
    std::thread worker;
    std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> invoked{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> occupancy_sum{0};
    std::atomic<uint64_t> forwarded{0};
    std::atomic<uint64_t> stolen{0};
    // Parked-worker wakeup: producers notify only when sleepers > 0; the
    // bounded wait_for covers the benign notify/park race.
    std::atomic<int> sleepers{0};
    std::mutex wake_mu;
    std::condition_variable wake_cv;
  };

  struct LoadedExt {
    ShardPlacement placement;
    std::atomic<uint64_t> pending{0};  // submitted, not yet completed
    std::atomic<bool> draining{false};
  };

  // Lock-free: extensions are never removed (UnloadQuiesced only drains).
  LoadedExt* GetExt(ShardExtId id) const;
  void WorkerLoop(int shard);
  // Drains up to batch_size requests from `from`'s ring, executing them as
  // `self`. Returns the number executed (stolen pinned requests go back
  // home, or complete unattached when the home ring is full, and are not
  // counted).
  size_t RunBatch(int self, int from);
  // Runs one request as worker `self` against the replica owned by shard
  // `owner` (owner == self except for steals).
  void Execute(int self, int owner, const ShardRequest& req);
  // Calls req.on_done with `result` and retires the request from the
  // pending/in-flight counts.
  void Complete(LoadedExt* e, const ShardRequest& req, const InvokeResult& result);
  void Wake(Shard& s);

  ShardedRuntimeOptions options_;
  Runtime runtime_;
  std::vector<std::unique_ptr<Shard>> shards_;

  AppendTable<LoadedExt> exts_;  // ShardExtId = index + 1

  std::atomic<uint64_t> inflight_{0};  // all pending requests, all extensions
  std::atomic<bool> stop_{false};
};

}  // namespace kflex

#endif  // SRC_SHARD_SHARD_H_
