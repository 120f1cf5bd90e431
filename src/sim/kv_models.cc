#include "src/sim/kv_models.h"

#include "src/base/logging.h"
#include "src/base/rng.h"

namespace kflex {

std::string ValueForKey(uint64_t key) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "value-%016llx----------", static_cast<unsigned long long>(key));
  return std::string(buf, 32);
}

KieOptions KmodKieOptions() {
  KieOptions kie;
  kie.sfi = false;
  kie.cancellation = false;
  return kie;
}

// ---- KflexMemcachedSystem ------------------------------------------------------

StatusOr<std::unique_ptr<KflexMemcachedSystem>> KflexMemcachedSystem::Create(
    const CostModel& cost, int server_threads, const KieOptions& kie) {
  auto system = std::unique_ptr<KflexMemcachedSystem>(new KflexMemcachedSystem(cost));
  system->kernel_ =
      std::make_unique<MockKernel>(RuntimeOptions{server_threads, 1'000'000'000ULL});
  auto driver = KflexMemcachedDriver::Create(*system->kernel_, {}, kie);
  if (!driver.ok()) {
    return driver.status();
  }
  system->driver_ = std::make_unique<KflexMemcachedDriver>(std::move(driver).value());
  return system;
}

void KflexMemcachedSystem::Prepopulate(uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; key++) {
    driver_->Set(0, key, ValueForKey(key));
  }
}

uint64_t KflexMemcachedSystem::ServeNs(int cpu, KvOp op, uint64_t key) {
  if (op == KvOp::kGet) {
    auto r = driver_->Get(cpu, key);
    return cost_.XdpPathUdp() + cost_.ComputeNs(r.insns, r.instr_insns);
  }
  auto r = driver_->Set(cpu, key, ValueForKey(key));
  return cost_.XdpPathTcp() + cost_.ComputeNs(r.insns, r.instr_insns);
}

// ---- UserMemcachedSystem -------------------------------------------------------

StatusOr<std::unique_ptr<UserMemcachedSystem>> UserMemcachedSystem::Create(
    const CostModel& cost, int server_threads) {
  auto system = std::unique_ptr<UserMemcachedSystem>(new UserMemcachedSystem(cost));
  system->kernel_ =
      std::make_unique<MockKernel>(RuntimeOptions{server_threads, 1'000'000'000ULL});
  // Identical application logic as trusted native code: no socket hook
  // business, no instrumentation.
  MemcachedBuildOptions build;
  build.socket_check = false;
  auto proxy = KflexMemcachedDriver::Create(*system->kernel_, build, KmodKieOptions());
  if (!proxy.ok()) {
    return proxy.status();
  }
  system->proxy_ = std::make_unique<KflexMemcachedDriver>(std::move(proxy).value());
  return system;
}

void UserMemcachedSystem::Prepopulate(uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; key++) {
    proxy_->Set(0, key, ValueForKey(key));
  }
}

uint64_t UserMemcachedSystem::ServeNs(int cpu, KvOp op, uint64_t key) {
  if (op == KvOp::kGet) {
    auto r = proxy_->Get(cpu, key);
    return cost_.UserPathUdp() + cost_.ComputeNs(r.insns, r.instr_insns);
  }
  auto r = proxy_->Set(cpu, key, ValueForKey(key));
  return cost_.UserPathTcp() + cost_.ComputeNs(r.insns, r.instr_insns);
}

// ---- BmcSystem -----------------------------------------------------------------

StatusOr<std::unique_ptr<BmcSystem>> BmcSystem::Create(const CostModel& cost,
                                                       int server_threads) {
  auto system = std::unique_ptr<BmcSystem>(new BmcSystem(cost));
  system->kernel_ =
      std::make_unique<MockKernel>(RuntimeOptions{server_threads, 1'000'000'000ULL});
  auto driver = BmcDriver::Create(*system->kernel_);
  if (!driver.ok()) {
    return driver.status();
  }
  system->driver_ = std::make_unique<BmcDriver>(std::move(driver).value());
  system->Calibrate();
  return system;
}

void BmcSystem::Calibrate() {
  // Measure the user-space Memcached compute with a throwaway KMod proxy.
  MockKernel kernel{RuntimeOptions{1, 1'000'000'000ULL}};
  MemcachedBuildOptions build;
  build.socket_check = false;
  auto proxy = KflexMemcachedDriver::Create(kernel, build, KmodKieOptions());
  KFLEX_CHECK(proxy.ok());
  Rng rng(7);
  uint64_t get_total = 0;
  uint64_t set_total = 0;
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; i++) {
    uint64_t key = rng.NextBounded(512);
    set_total += proxy->Set(0, key, ValueForKey(key)).insns;
    get_total += proxy->Get(0, key).insns;
  }
  user_get_insns_ = static_cast<double>(get_total) / kSamples;
  user_set_insns_ = static_cast<double>(set_total) / kSamples;
}

void BmcSystem::Prepopulate(uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; key++) {
    driver_->Set(0, key, ValueForKey(key));
    driver_->Get(0, key);  // warm the look-aside cache
  }
}

uint64_t BmcSystem::ServeNs(int cpu, KvOp op, uint64_t key) {
  if (op == KvOp::kGet) {
    auto r = driver_->Get(cpu, key);
    if (r.served_at_xdp) {
      return cost_.XdpPathUdp() + cost_.ComputeNs(r.xdp_insns, r.instr_insns);
    }
    // Miss: the packet continued through the full stack to user space.
    return cost_.UserPathUdp() + cost_.ComputeNs(r.xdp_insns, r.instr_insns) +
           static_cast<uint64_t>(user_get_insns_ * cost_.ns_per_insn);
  }
  // SET: BMC only invalidates at XDP; user space processes the write.
  auto r = driver_->Set(cpu, key, ValueForKey(key));
  return cost_.UserPathTcp() + cost_.ComputeNs(r.xdp_insns, r.instr_insns) +
         static_cast<uint64_t>(user_set_insns_ * cost_.ns_per_insn);
}

// ---- KflexRedisSystem ----------------------------------------------------------

StatusOr<std::unique_ptr<KflexRedisSystem>> KflexRedisSystem::Create(const CostModel& cost,
                                                                     int server_threads,
                                                                     const KieOptions& kie) {
  auto system = std::unique_ptr<KflexRedisSystem>(new KflexRedisSystem(cost));
  system->kernel_ =
      std::make_unique<MockKernel>(RuntimeOptions{server_threads, 1'000'000'000ULL});
  auto driver = KflexRedisDriver::Create(*system->kernel_, {}, kie);
  if (!driver.ok()) {
    return driver.status();
  }
  system->driver_ = std::make_unique<KflexRedisDriver>(std::move(driver).value());
  return system;
}

void KflexRedisSystem::Prepopulate(uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; key++) {
    driver_->Set(0, key, ValueForKey(key));
  }
}

uint64_t KflexRedisSystem::ServeNs(int cpu, KvOp op, uint64_t key) {
  uint64_t insns = 0;
  uint64_t instr = 0;
  KflexRedisDriver::OpResult r;
  switch (op) {
    case KvOp::kGet:
      r = driver_->Get(cpu, key);
      break;
    case KvOp::kSet:
      r = driver_->Set(cpu, key, ValueForKey(key));
      break;
    case KvOp::kZadd:
      r = driver_->Zadd(cpu, key & 4095, zadd_counter_++ % 24, key);
      break;
    default:
      break;
  }
  insns = r.insns;
  instr = r.instr_insns;
  return cost_.SkSkbPathTcp() + cost_.ComputeNs(insns, instr);
}

// ---- UserRedisSystem -----------------------------------------------------------

StatusOr<std::unique_ptr<UserRedisSystem>> UserRedisSystem::Create(const CostModel& cost,
                                                                   int server_threads) {
  auto system = std::unique_ptr<UserRedisSystem>(new UserRedisSystem(cost));
  system->kernel_ =
      std::make_unique<MockKernel>(RuntimeOptions{server_threads, 1'000'000'000ULL});
  auto proxy = KflexRedisDriver::Create(*system->kernel_, {}, KmodKieOptions());
  if (!proxy.ok()) {
    return proxy.status();
  }
  system->proxy_ = std::make_unique<KflexRedisDriver>(std::move(proxy).value());
  return system;
}

void UserRedisSystem::Prepopulate(uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; key++) {
    proxy_->Set(0, key, ValueForKey(key));
  }
}

uint64_t UserRedisSystem::ServeNs(int cpu, KvOp op, uint64_t key) {
  uint64_t insns = 0;
  switch (op) {
    case KvOp::kGet:
      insns = proxy_->Get(cpu, key).insns;
      break;
    case KvOp::kSet:
      insns = proxy_->Set(cpu, key, ValueForKey(key)).insns;
      break;
    case KvOp::kZadd:
      insns = proxy_->Zadd(cpu, key & 4095, zadd_counter_++ % 24, key).insns;
      break;
    default:
      break;
  }
  return cost_.UserPathTcp() + cost_.ComputeNs(insns, 0);
}

// ---- CodesignSystem ------------------------------------------------------------

StatusOr<std::unique_ptr<CodesignSystem>> CodesignSystem::Create(const CostModel& cost,
                                                                 int server_threads) {
  auto system = std::unique_ptr<CodesignSystem>(new CodesignSystem(cost));
  system->kernel_ =
      std::make_unique<MockKernel>(RuntimeOptions{server_threads, 1'000'000'000ULL});
  auto app = CodesignMemcached::Create(*system->kernel_);
  if (!app.ok()) {
    return app.status();
  }
  system->app_ = std::make_unique<CodesignMemcached>(std::move(app).value());
  return system;
}

void CodesignSystem::Prepopulate(uint64_t key_space) {
  for (uint64_t key = 0; key < key_space; key++) {
    app_->Set(0, key, ValueForKey(key), epoch_ + 5);
  }
}

uint64_t CodesignSystem::ServeNs(int cpu, KvOp op, uint64_t key) {
  if (op == KvOp::kGet) {
    auto r = app_->Get(cpu, key);
    return cost_.XdpPathUdp() + cost_.ComputeNs(r.insns, r.instr_insns);
  }
  auto r = app_->Set(cpu, key, ValueForKey(key), epoch_ + 5);
  return cost_.XdpPathTcp() + cost_.ComputeNs(r.insns, r.instr_insns);
}

BackgroundTask CodesignSystem::GcTask(uint64_t interval_ns) {
  BackgroundTask task;
  task.interval_ns = interval_ns;
  task.run = [this](uint64_t now_ns) -> uint64_t {
    epoch_++;
    auto r = app_->RunGc(epoch_ > 5 ? epoch_ - 5 : 0, now_ns);
    // The collector held the shared lock for roughly this long.
    return r.scanned * 20 + 16384 * 2;
  };
  return task;
}

}  // namespace kflex
