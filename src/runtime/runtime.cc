#include "src/runtime/runtime.h"

#include <chrono>
#include <cstring>

#include "src/base/logging.h"
#include "src/fault/fault.h"
#include "src/jit/trampoline.h"
#include "src/runtime/helpers.h"
#include "src/runtime/spinlock.h"

namespace kflex {

std::string InvariantReport::ToString() const {
  if (violations.empty()) {
    return "ok";
  }
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) {
      out += '\n';
    }
    out += v;
  }
  return out;
}

Runtime::Runtime(const RuntimeOptions& options) : options_(options) {
  KFLEX_CHECK(options_.num_cpus > 0);
  RegisterCoreHelpers(helpers_);
  for (const std::string& spec : options_.fault_specs) {
    Status st = FaultRegistry::Instance().ArmSpec(spec);
    if (!st.ok()) {
      // Fault specs are a test/chaos knob, not production input: fail loudly.
      KFLEX_LOG(Error) << "bad fault spec \"" << spec << "\": " << st.message();
      KFLEX_CHECK(st.ok());
    }
  }
}

Runtime::~Runtime() { StopWatchdog(); }

Runtime::Extension* Runtime::Get(ExtensionId id) const {
  return id == 0 ? nullptr : extensions_.Get(id - 1);
}

StatusOr<ExtensionId> Runtime::Load(const Program& program, const LoadOptions& options) {
  // Observability identity is resolved up front (process-global: ExtensionIds
  // restart at 1 per Runtime and would collide across instances), and the
  // whole pipeline runs under its attribution scope so load-time events
  // (verifier decisions, Kie stats, page-ins, JIT compiles) carry it.
  uint32_t obs_id =
      Obs::Instance().RegisterExtension(program.name.empty() ? "extension" : program.name);
  ObsInvokeScope obs_scope(obs_id, kObsNoCpu);

  // Step 1 (Figure 1): kernel-interface compliance via the verifier.
  VerifyOptions vo = options.verify;
  vo.maps = maps_.Descriptors();
  StatusOr<Analysis> verified = Verify(program, vo);
  if (!verified.ok()) {
    return verified.status();
  }
  Analysis analysis = std::move(verified).value();

  auto ext = std::make_unique<Extension>();

  // Create the extension heap before instrumentation so Kie can concretize
  // the mapping bases into the code (§4.1).
  HeapLayout layout;
  if (program.heap_size != 0) {
    if (options.share_heap_with != 0) {
      Extension* owner = Get(options.share_heap_with);
      if (owner == nullptr || owner->heap == nullptr) {
        return InvalidArgument("share_heap_with refers to an extension without a heap");
      }
      if (owner->heap->size() != program.heap_size) {
        return InvalidArgument("shared heap size does not match program declaration");
      }
      ext->heap = owner->heap;
      ext->allocator = owner->allocator;
    } else {
      HeapSpec spec;
      spec.size = program.heap_size;
      spec.static_bytes = options.heap_static_bytes;
      StatusOr<std::unique_ptr<ExtensionHeap>> heap = ExtensionHeap::Create(spec);
      if (!heap.ok()) {
        return heap.status();
      }
      ext->heap = std::move(heap.value());
      ext->allocator = std::make_shared<HeapAllocator>(ext->heap.get(), options_.num_cpus);
    }
    layout = ext->heap->layout();
  }

  // Step 1.5: bytecode optimizer (SCCP + dominated guards + DSE). The
  // optimized program keeps the verified program's pc layout, so the
  // (cleaned) analysis stays aligned for Kie.
  const Program* to_instrument = &program;
  const GuardPlan* plan = nullptr;
  OptResult opt;
  if (options.optimize) {
    StatusOr<OptResult> optimized = Optimize(program, analysis);
    if (!optimized.ok()) {
      return optimized.status();
    }
    opt = std::move(optimized.value());
    analysis = opt.analysis;
    to_instrument = &opt.program;
    plan = &opt.plan;
  }

  // Step 2 (Figure 1): Kie instrumentation.
  StatusOr<InstrumentedProgram> iprog =
      Instrument(*to_instrument, analysis, layout, options.kie, plan);
  if (!iprog.ok()) {
    return iprog.status();
  }
  ext->iprog = std::move(iprog.value());

  // Step 2.5: shard-safety certificate (concurrency.h), computed over the
  // same verified (and possibly optimized) program the analysis describes.
  // The certificate is the load-time gate the sharded dispatcher (ROADMAP
  // item 1) consults; its lock-order edges also feed the cross-extension
  // deadlock audit (LockOrderAudit) and the trace stream.
  ext->iprog.concurrency = AnalyzeConcurrency(*to_instrument, &analysis);
  for (const LockOrderEdge& edge : ext->iprog.concurrency.edges) {
    KFLEX_TRACE(ObsEvent::kLockOrderEdge, edge.from, edge.to);
  }

  // Step 3: native compilation, if requested. Fallback is silent at load
  // time (recorded in engine_info): the interpreter runs the identical
  // instrumented stream, so the choice is purely an execution-speed one.
  ext->engine_requested = options.engine;
  if (options.engine == ExecEngine::kJit) {
    JitCompileEnv jenv;
    jenv.helpers = &helpers_;
    jenv.maps = &maps_;
    JitCompileResult jit = JitCompile(ext->iprog, options.jit, jenv);
    if (jit.program != nullptr) {
      ext->jit = std::move(jit.program);
    } else {
      ext->jit_fallback = std::move(jit.fallback_reason);
    }
  }

  for (int i = 0; i < options_.num_cpus; i++) {
    ext->running_since.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }

  ext->obs_id = obs_id;
  ext->obs_metrics = Obs::Instance().Metrics(obs_id);
  KFLEX_TRACE(ObsEvent::kRuntimeLoad, obs_id, ext->iprog.program.insns.size());

  // The allocator arena count is the Invoke-side bound for `cpu`; a shared
  // allocator always comes from this runtime, so the counts must agree.
  KFLEX_CHECK(ext->allocator == nullptr ||
              ext->allocator->num_cpu_slots() == options_.num_cpus);

  return static_cast<ExtensionId>(extensions_.Append(std::move(ext)) + 1);
}

int64_t Runtime::Unwind(Extension& ext, VmEnv& env, size_t fault_pc) {
  // Release every kernel-owned resource recorded in the object table of the
  // faulting cancellation point (§3.3).
  uint64_t released = 0;
  auto it = ext.iprog.object_tables.find(fault_pc);
  if (it != ext.iprog.object_tables.end()) {
    for (const ObjectTableEntry& entry : it->second) {
      switch (entry.kind) {
        case ResourceKind::kSocket: {
          uint64_t handle = 0;
          if (entry.reg >= 0) {
            handle = env.regs[entry.reg];
          } else if (entry.stack_slot >= 0) {
            std::memcpy(&handle, env.stack + entry.stack_slot * 8, 8);
          }
          if (objects_.Release(handle)) {
            released++;
          }
          break;
        }
        case ResourceKind::kLock:
          if (ext.heap != nullptr) {
            SpinLockOps::Release(ext.heap->HostAt(entry.lock_off));
            released++;
          }
          break;
        case ResourceKind::kNone:
          break;
      }
    }
  }
  KFLEX_TRACE(ObsEvent::kCancelUnwound, fault_pc, released);
  KFLEX_OBS_COUNT(kCancellations);
  // Policy (§4.3): cancellation unloads the extension everywhere, but the
  // heap is preserved for the user-space application.
  ext.unloaded.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(ext.stats_mu);
    ext.stats.cancellations++;
    ext.stats.resources_released_on_cancel += released;
  }
  int64_t verdict = HookDefaultVerdict(ext.iprog.program.hook);
  if (ext.cancel_cb) {
    verdict = ext.cancel_cb(verdict);
  }
  return verdict;
}

InvokeResult Runtime::Invoke(ExtensionId id, int cpu, uint8_t* ctx, uint32_t ctx_size) {
  return Invoke(id, cpu, ctx, ctx_size, nullptr);
}

InvokeResult Runtime::Invoke(ExtensionId id, int cpu, uint8_t* ctx, uint32_t ctx_size,
                             std::vector<std::pair<int32_t, uint64_t>>* helper_trace) {
  InvokeResult result;
  Extension* ext = Get(id);
  if (ext == nullptr || ext->unloaded.load(std::memory_order_acquire)) {
    result.attached = false;
    return result;
  }
  // `cpu` picks the per-CPU allocator arena and watchdog slot; shard workers
  // compute it from their shard index, so an out-of-range value is a caller
  // bug, not input to trust. Bound it by the extension allocator's actual
  // slot count when it has one (the Load-time check pinned that to
  // num_cpus), falling back to the runtime option for heap-less extensions.
  const int cpu_slots = ext->allocator != nullptr ? ext->allocator->num_cpu_slots()
                                                  : options_.num_cpus;
  if (cpu < 0 || cpu >= cpu_slots || cpu >= options_.num_cpus) {
    result.attached = false;
    return result;
  }

  VmEnv env;
  env.heap = ext->heap.get();
  env.allocator = ext->allocator.get();
  env.maps = &maps_;
  env.objects = &objects_;
  env.helpers = &helpers_;
  env.ctx = ctx;
  env.ctx_size = ctx_size;
  env.cpu = cpu;
  env.cancel = &ext->cancel;
  env.insn_budget = 0;
  env.fuel_quantum = options_.fuel_quantum_insns;
  env.instrumentation_mask = &ext->iprog.instrumentation_mask;
  env.helper_trace = helper_trace;

  // Observability attribution: one relaxed load decides; when everything is
  // off (the default) the hot path pays that load plus a predictable branch.
  const uint32_t obs_flags = g_obs_flags.load(std::memory_order_relaxed);
  ObsThreadContext obs_saved;
  if (obs_flags != 0) {
    obs_saved = g_obs_tls;
    g_obs_tls = {ext->obs_id, static_cast<uint16_t>(cpu), ext->obs_metrics};
  }

  auto& running = *ext->running_since[static_cast<size_t>(cpu)];
  const uint64_t started = KtimeNowNs();
  running.store(started, std::memory_order_release);
  VmResult vm = ext->jit != nullptr ? JitRun(*ext->jit, env)
                                    : VmRun(ext->iprog.program.insns, env);
  running.store(0, std::memory_order_release);

  if ((obs_flags & kObsMetricsBit) != 0 && ext->obs_metrics != nullptr) {
    ext->obs_metrics->Bump(ObsCounter::kInvocations);
    ext->obs_metrics->RecordInvokeNs(KtimeNowNs() - started);
  }

  result.insns = vm.insns_executed;
  result.instr_insns = vm.instr_insns_executed;
  result.outcome = vm.outcome;
  result.fault_pc = vm.fault_pc;
  result.fault_kind = vm.fault_kind;

  struct ObsRestore {
    const uint32_t flags;
    const ObsThreadContext& saved;
    ~ObsRestore() {
      if (flags != 0) {
        g_obs_tls = saved;
      }
    }
  } obs_restore{obs_flags, obs_saved};

  switch (vm.outcome) {
    case VmResult::Outcome::kOk:
      result.verdict = vm.ret;
      return result;
    case VmResult::Outcome::kFault:
    case VmResult::Outcome::kHelperCancel:
    case VmResult::Outcome::kHelperFault:
      result.cancelled = true;
      result.verdict = Unwind(*ext, env, vm.fault_pc);
      return result;
    case VmResult::Outcome::kBudgetExceeded:
      result.cancelled = true;
      result.verdict = Unwind(*ext, env, vm.fault_pc);
      return result;
  }
  return result;
}

void Runtime::Cancel(ExtensionId id) {
  Extension* ext = Get(id);
  if (ext == nullptr) {
    return;
  }
  ext->cancel.store(true, std::memory_order_release);
  KFLEX_TRACE(ObsEvent::kCancelRequested, ext->obs_id, 0);
  if (ext->heap != nullptr) {
    ext->heap->ArmTerminate();
  }
}

void Runtime::Reset(ExtensionId id) {
  Extension* ext = Get(id);
  if (ext == nullptr) {
    return;
  }
  ext->cancel.store(false, std::memory_order_release);
  ext->unloaded.store(false, std::memory_order_release);
  if (ext->heap != nullptr) {
    ext->heap->ResetTerminate();
  }
}

void Runtime::Unload(ExtensionId id) {
  Extension* ext = Get(id);
  if (ext == nullptr) {
    return;
  }
  ext->unloaded.store(true, std::memory_order_release);
  uint64_t cancellations;
  {
    std::lock_guard<std::mutex> lock(ext->stats_mu);
    cancellations = ext->stats.cancellations;
  }
  KFLEX_TRACE(ObsEvent::kRuntimeUnload, ext->obs_id, cancellations);
}

bool Runtime::IsUnloaded(ExtensionId id) const {
  const Extension* ext = Get(id);
  return ext == nullptr || ext->unloaded.load(std::memory_order_acquire);
}

ExtensionHeap* Runtime::heap(ExtensionId id) {
  Extension* ext = Get(id);
  return ext == nullptr ? nullptr : ext->heap.get();
}

HeapAllocator* Runtime::allocator(ExtensionId id) {
  Extension* ext = Get(id);
  return ext == nullptr ? nullptr : ext->allocator.get();
}

const InstrumentedProgram& Runtime::instrumented(ExtensionId id) const {
  const Extension* ext = Get(id);
  KFLEX_CHECK(ext != nullptr);
  return ext->iprog;
}

EngineInfo Runtime::engine_info(ExtensionId id) const {
  const Extension* ext = Get(id);
  EngineInfo info;
  if (ext == nullptr) {
    return info;
  }
  info.requested = ext->engine_requested;
  info.used = ext->jit != nullptr ? ExecEngine::kJit : ExecEngine::kInterp;
  info.fallback_reason = ext->jit_fallback;
  if (ext->jit != nullptr) {
    info.stats = ext->jit->stats;
  }
  info.shard_safety = ext->iprog.concurrency.safety;
  return info;
}

std::vector<LockOrderGraph::Cycle> Runtime::LockOrderAudit() const {
  // Lock identities are heap offsets, so two extensions can only contend on
  // the same lock when they share an extension heap (LoadOptions::
  // share_heap_with). Build one acquisition graph per heap from the per-
  // extension certificate edges and collect cycles across all of them.
  std::map<const ExtensionHeap*, LockOrderGraph> graphs;
  for (size_t i = 0; i < extensions_.size(); i++) {
    const Extension* ext = extensions_.Get(i);
    if (ext->heap == nullptr || ext->unloaded.load(std::memory_order_acquire)) {
      continue;
    }
    const std::string& name = ext->iprog.program.name.empty()
                                  ? std::string("extension")
                                  : ext->iprog.program.name;
    graphs[ext->heap.get()].AddEdges(name, ext->iprog.concurrency.edges);
  }
  std::vector<LockOrderGraph::Cycle> cycles;
  for (auto& [heap, graph] : graphs) {
    for (LockOrderGraph::Cycle& cycle : graph.FindCycles()) {
      KFLEX_TRACE(ObsEvent::kLockCycle, cycle.edges.size(), cycle.programs.size());
      cycles.push_back(std::move(cycle));
    }
  }
  return cycles;
}

void Runtime::SetCancellationCallback(ExtensionId id, std::function<int64_t(int64_t)> cb) {
  Extension* ext = Get(id);
  if (ext != nullptr) {
    ext->cancel_cb = std::move(cb);
  }
}

InvariantReport Runtime::SweepInvariants(ExtensionId id) const {
  InvariantReport report;
  const Extension* ext = Get(id);
  if (ext == nullptr) {
    report.violations.push_back("unknown extension id");
    return report;
  }

  // 1. No leaked kernel references. The registry is runtime-global, but any
  // live handle after a quiesced invocation (normal exit releases via
  // helpers, cancellation via the object-table unwinder) is a leak.
  size_t live = objects_.live_count();
  if (live != 0) {
    report.violations.push_back("object registry holds " + std::to_string(live) +
                                " live kernel reference(s)");
  }

  // 2. Allocator accounting balances (free-list membership, page/class tags,
  // allocs - frees == carved - cached).
  if (ext->allocator != nullptr) {
    for (std::string& v : ext->allocator->Audit()) {
      report.violations.push_back("allocator: " + std::move(v));
    }
  }

  // 3. Heap reserved metadata / presence bookkeeping intact.
  if (ext->heap != nullptr) {
    for (std::string& v : ext->heap->AuditMetadata()) {
      report.violations.push_back("heap: " + std::move(v));
    }
  }

  // 4. No extension spin lock still held: every lock the verifier tracked
  // into an object table must be free once no invocation is running (normal
  // paths pair acquire/release; cancellation releases via Unwind).
  if (ext->heap != nullptr) {
    for (const auto& [pc, entries] : ext->iprog.object_tables) {
      for (const ObjectTableEntry& entry : entries) {
        if (entry.kind != ResourceKind::kLock) {
          continue;
        }
        if (entry.lock_off + 8 <= ext->heap->size() &&
            SpinLockOps::IsHeld(ext->heap->HostAt(entry.lock_off))) {
          report.violations.push_back("lock at heap offset " +
                                      std::to_string(entry.lock_off) +
                                      " still held (object table pc " +
                                      std::to_string(pc) + ")");
        }
      }
    }
  }

  // 5. Cancelled extensions are quiesced: unloaded => no CPU reports a
  // running invocation.
  if (ext->unloaded.load(std::memory_order_acquire)) {
    for (size_t cpu = 0; cpu < ext->running_since.size(); cpu++) {
      if (ext->running_since[cpu]->load(std::memory_order_acquire) != 0) {
        report.violations.push_back("unloaded extension still running on cpu " +
                                    std::to_string(cpu));
      }
    }
  }
  return report;
}

ObsSnapshot Runtime::SnapshotMetrics() const {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < extensions_.size(); i++) {
    ids.push_back(extensions_.Get(i)->obs_id);
  }
  return Obs::Instance().SnapshotMetrics(ids);
}

uint32_t Runtime::obs_id(ExtensionId id) const {
  const Extension* ext = Get(id);
  return ext == nullptr ? 0 : ext->obs_id;
}

Runtime::ExtensionStats Runtime::GetStats(ExtensionId id) const {
  const Extension* ext = Get(id);
  if (ext == nullptr) {
    return {};
  }
  std::lock_guard<std::mutex> lock(ext->stats_mu);
  return ext->stats;
}

void Runtime::WatchdogLoop() {
  while (watchdog_running_.load(std::memory_order_acquire)) {
    uint64_t now = KtimeNowNs();
    for (size_t i = 0; i < extensions_.size(); i++) {
      Extension* ext = extensions_.Get(i);
      for (auto& slot : ext->running_since) {
        uint64_t since = slot->load(std::memory_order_acquire);
        if (since != 0 && now > since && now - since > options_.quantum_ns) {
          KFLEX_TRACE(ObsEvent::kWatchdogFired, ext->obs_id,
                      now - since - options_.quantum_ns);
          if (ObsMetricsEnabled() && ext->obs_metrics != nullptr) {
            ext->obs_metrics->Bump(ObsCounter::kWatchdogFires);
          }
          Cancel(static_cast<ExtensionId>(i + 1));
          break;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(options_.quantum_ns / 4 + 1));
  }
}

void Runtime::StartWatchdog() {
  bool expected = false;
  if (!watchdog_running_.compare_exchange_strong(expected, true)) {
    return;
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

void Runtime::StopWatchdog() {
  if (watchdog_running_.exchange(false) && watchdog_.joinable()) {
    watchdog_.join();
  }
}

}  // namespace kflex
