#include "src/shard/shard.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/fault/fault.h"
#include "src/obs/obs.h"

namespace kflex {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 2;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// Parked workers re-arm after this even without a wakeup; it bounds the one
// benign race (producer notifies between the worker's empty-check and wait).
constexpr auto kParkTimeout = std::chrono::microseconds(200);

// Upper bound on a single dispatch batch; RunBatch stages requests in a
// stack array of this size so it can finish all accounting (traces,
// counters) before the first Execute.
constexpr int kMaxBatch = 256;

}  // namespace

ShardedRuntime::ShardedRuntime(const ShardedRuntimeOptions& options)
    : options_([&] {
        ShardedRuntimeOptions o = options;
        o.num_shards = std::max(1, o.num_shards);
        o.batch_size = std::clamp(o.batch_size, 1, kMaxBatch);
        o.queue_capacity = RoundUpPow2(std::max<size_t>(2, o.queue_capacity));
        // Workers invoke with cpu = shard index, so every extension allocator
        // needs at least one arena per shard.
        o.runtime.num_cpus = std::max(o.runtime.num_cpus, o.num_shards);
        return o;
      }()),
      runtime_(options_.runtime) {
  shards_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; s++) {
    shards_.push_back(std::make_unique<Shard>(options_.queue_capacity));
  }
  for (int s = 0; s < options_.num_shards; s++) {
    // Emitted here, not by the worker, so every event of a constructed
    // runtime happens-before the constructor returns.
    KFLEX_TRACE(ObsEvent::kShardStart, s, options_.num_shards);
    shards_[s]->worker = std::thread([this, s] { WorkerLoop(s); });
  }
}

ShardedRuntime::~ShardedRuntime() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->wake_mu);
    shard->wake_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
}

StatusOr<ShardExtId> ShardedRuntime::Load(const Program& program,
                                          const LoadOptions& options) {
  const int n = options_.num_shards;
  StatusOr<size_t> index = exts_.AppendWith(
      [&](size_t slot) -> StatusOr<std::unique_ptr<LoadedExt>> {
        // Home shard before safety is known: the certificate decides whether
        // the extension spreads, the table slot decides where a pinned one
        // lives.
        const int home = static_cast<int>(slot % static_cast<size_t>(n));
        auto home_id = runtime_.Load(program, options);
        if (!home_id.ok()) {
          return home_id.status();
        }
        auto loaded = std::make_unique<LoadedExt>();
        ShardPlacement& place = loaded->placement;
        place.safety = runtime_.engine_info(*home_id).shard_safety;
        place.replicated = place.safety != ShardSafety::kSerialOnly && n > 1;
        place.home_shard = home;
        if (!place.replicated) {
          place.replicas.push_back(*home_id);
          return loaded;
        }
        place.replicas.assign(n, 0);
        place.replicas[home] = *home_id;
        for (int s = 0; s < n; s++) {
          if (s == home) {
            continue;
          }
          auto rid = runtime_.Load(program, options);
          if (!rid.ok()) {
            return rid.status();
          }
          place.replicas[s] = *rid;
        }
        return loaded;
      });
  if (!index.ok()) {
    return index.status();
  }
  return static_cast<ShardExtId>(*index + 1);
}

ShardedRuntime::LoadedExt* ShardedRuntime::GetExt(ShardExtId id) const {
  return id == 0 ? nullptr : exts_.Get(id - 1);
}

const ShardPlacement& ShardedRuntime::placement(ShardExtId id) const {
  LoadedExt* e = GetExt(id);
  KFLEX_CHECK(e != nullptr);
  return e->placement;
}

ExtensionId ShardedRuntime::ReplicaFor(ShardExtId id, int shard) const {
  const ShardPlacement& place = placement(id);
  if (!place.replicated) {
    return place.replicas.front();
  }
  return place.replicas[static_cast<size_t>(shard) % place.replicas.size()];
}

bool ShardedRuntime::Submit(const ShardRequest& req) {
  LoadedExt* e = GetExt(req.ext);
  if (e == nullptr || e->draining.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    return false;
  }
  int target = ShardForHash(req.flow_hash, options_.num_shards);
  if (!e->placement.replicated && target != e->placement.home_shard) {
    // Pinned extension, request steered elsewhere: forward to the home ring.
    shards_[target]->forwarded.fetch_add(1, std::memory_order_relaxed);
    KFLEX_TRACE(ObsEvent::kShardForward, target, e->placement.home_shard);
    target = e->placement.home_shard;
  }
  Shard& shard = *shards_[target];
  // Injected queue-full: exercises the drop path without needing a real
  // overrun (chaos matrix row shard.enqueue).
  bool full = KFLEX_FAULT_FIRE("shard.enqueue");
  if (!full) {
    // Count in-flight before the push: the worker may complete (and
    // decrement) before a post-push increment would land.
    e->pending.fetch_add(1, std::memory_order_acq_rel);
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    full = !shard.queue.Push(req);
    if (full) {
      e->pending.fetch_sub(1, std::memory_order_acq_rel);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  if (full) {
    shard.dropped.fetch_add(1, std::memory_order_relaxed);
    KFLEX_TRACE(ObsEvent::kShardDrop, target, shard.queue.capacity());
    return false;
  }
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  Wake(shard);
  return true;
}

namespace {

struct SyncState {
  std::atomic<bool> done{false};
  InvokeResult result;
};

}  // namespace

InvokeResult ShardedRuntime::InvokeSync(ShardExtId id, uint64_t flow_hash,
                                        uint8_t* ctx, uint32_t ctx_size) {
  SyncState sync;
  ShardRequest req;
  req.ext = id;
  req.ctx = ctx;
  req.ctx_size = ctx_size;
  req.flow_hash = flow_hash;
  req.on_done = [](const InvokeResult& result, void* user) {
    auto* s = static_cast<SyncState*>(user);
    s->result = result;
    s->done.store(true, std::memory_order_release);
  };
  req.user = &sync;
  if (!Submit(req)) {
    InvokeResult dropped;
    dropped.attached = false;
    return dropped;
  }
  while (!sync.done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  return sync.result;
}

void ShardedRuntime::Flush() {
  while (inflight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ShardedRuntime::UnloadQuiesced(ShardExtId id) {
  LoadedExt* e = GetExt(id);
  if (e == nullptr || e->draining.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  uint64_t drained = e->pending.load(std::memory_order_acquire);
  while (e->pending.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const ShardPlacement& place = e->placement;
  for (size_t i = 0; i < place.replicas.size(); i++) {
    runtime_.Unload(place.replicas[i]);
    int shard = place.replicated ? static_cast<int>(i) : place.home_shard;
    KFLEX_TRACE(ObsEvent::kShardQuiesce, shard, drained);
  }
}

void ShardedRuntime::WorkerLoop(int shard) {
  Shard& self = *shards_[shard];
  for (;;) {
    if (RunBatch(shard, shard) > 0) {
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Drain the ring before exiting so no completion is lost on shutdown.
      if (self.queue.EmptyApprox()) {
        break;
      }
      continue;
    }
    size_t stole = 0;
    for (int v = 0; v < options_.num_shards && stole == 0; v++) {
      if (v != shard) {
        stole = RunBatch(shard, v);
      }
    }
    if (stole > 0) {
      continue;
    }
    self.sleepers.fetch_add(1, std::memory_order_acq_rel);
    {
      std::unique_lock<std::mutex> lock(self.wake_mu);
      if (self.queue.EmptyApprox() && !stop_.load(std::memory_order_acquire)) {
        self.wake_cv.wait_for(lock, kParkTimeout);
      }
    }
    self.sleepers.fetch_sub(1, std::memory_order_acq_rel);
  }
}

size_t ShardedRuntime::RunBatch(int self, int from) {
  Shard& src = *shards_[from];
  Shard& me = *shards_[self];
  const bool stealing = self != from;
  // Collect the whole batch and account for it (counters + trace events)
  // BEFORE executing: the last Execute's inflight decrement is what Flush()
  // observes, so every emission for this batch must happen-before it —
  // that's what lets callers snapshot the trace rings quiescently after a
  // Flush with no producers (the obs rings tolerate racing readers, but a
  // drained dispatcher must be genuinely silent).
  ShardRequest batch[kMaxBatch];
  size_t collected = 0;
  while (collected < static_cast<size_t>(options_.batch_size)) {
    ShardRequest req;
    if (!src.queue.Pop(&req)) {
      break;
    }
    if (stealing) {
      LoadedExt* e = GetExt(req.ext);
      if (!e->placement.replicated) {
        // Pinned request: a thief must not run it (serial-only certificate).
        // Return it to its home ring — `from` IS the home shard, and the pop
        // just freed a slot, so this only fails when a producer took that
        // slot first. Then it is a drop, but an accepted request still
        // completes.
        if (!src.queue.Push(req)) {
          src.dropped.fetch_add(1, std::memory_order_relaxed);
          KFLEX_TRACE(ObsEvent::kShardDrop, from, src.queue.capacity());
          InvokeResult dropped;
          dropped.attached = false;
          Complete(e, req, dropped);
        }
        break;  // stop stealing from this victim: likely more pinned work
      }
      me.stolen.fetch_add(1, std::memory_order_relaxed);
      KFLEX_TRACE(ObsEvent::kShardSteal, self, from);
    }
    batch[collected++] = req;
  }
  if (collected > 0) {
    me.batches.fetch_add(1, std::memory_order_relaxed);
    me.occupancy_sum.fetch_add(collected, std::memory_order_relaxed);
    KFLEX_TRACE(ObsEvent::kShardBatch, self, collected);
  }
  for (size_t i = 0; i < collected; i++) {
    Execute(self, from, batch[i]);
  }
  return collected;
}

void ShardedRuntime::Execute(int self, int owner, const ShardRequest& req) {
  // Submit admits only loaded ids, and the table never shrinks.
  LoadedExt* e = GetExt(req.ext);
  // A thief executes the victim's replica — the flow's per-shard state lives
  // there; concurrent entry is safe by the >= lock-protected certificate
  // that admitted the extension to replication.
  ExtensionId rid = e->placement.replicated ? e->placement.replicas[owner]
                                            : e->placement.replicas.front();
  InvokeResult result = runtime_.Invoke(rid, self, req.ctx, req.ctx_size);
  shards_[self]->invoked.fetch_add(1, std::memory_order_relaxed);
  Complete(e, req, result);
}

void ShardedRuntime::Complete(LoadedExt* e, const ShardRequest& req,
                              const InvokeResult& result) {
  if (req.on_done != nullptr) {
    req.on_done(result, req.user);
  }
  e->pending.fetch_sub(1, std::memory_order_acq_rel);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

void ShardedRuntime::Wake(Shard& shard) {
  if (shard.sleepers.load(std::memory_order_acquire) > 0) {
    // Taking the mutex orders this notify against the worker's empty-check:
    // either the worker re-checks the ring under the lock and sees our push,
    // or it is already waiting and the notify lands.
    std::lock_guard<std::mutex> lock(shard.wake_mu);
    shard.wake_cv.notify_one();
  }
}

std::vector<ShardStats> ShardedRuntime::SnapshotStats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.enqueued = shard->enqueued.load(std::memory_order_relaxed);
    s.dropped = shard->dropped.load(std::memory_order_relaxed);
    s.invoked = shard->invoked.load(std::memory_order_relaxed);
    s.batches = shard->batches.load(std::memory_order_relaxed);
    s.batch_occupancy_sum = shard->occupancy_sum.load(std::memory_order_relaxed);
    s.forwarded = shard->forwarded.load(std::memory_order_relaxed);
    s.stolen = shard->stolen.load(std::memory_order_relaxed);
    s.queue_depth = shard->queue.SizeApprox();
    out.push_back(s);
  }
  return out;
}

std::string ShardedRuntime::StatsJson() const {
  std::string out = "[";
  std::vector<ShardStats> stats = SnapshotStats();
  for (size_t i = 0; i < stats.size(); i++) {
    const ShardStats& s = stats[i];
    if (i != 0) {
      out += ", ";
    }
    out += "{\"shard\": " + std::to_string(i);
    out += ", \"enqueued\": " + std::to_string(s.enqueued);
    out += ", \"dropped\": " + std::to_string(s.dropped);
    out += ", \"invoked\": " + std::to_string(s.invoked);
    out += ", \"batches\": " + std::to_string(s.batches);
    double mean = s.batches == 0 ? 0.0
                                 : static_cast<double>(s.batch_occupancy_sum) /
                                       static_cast<double>(s.batches);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", mean);
    out += ", \"mean_batch_occupancy\": " + std::string(buf);
    out += ", \"forwarded\": " + std::to_string(s.forwarded);
    out += ", \"stolen\": " + std::to_string(s.stolen);
    out += ", \"queue_depth\": " + std::to_string(s.queue_depth);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace kflex
