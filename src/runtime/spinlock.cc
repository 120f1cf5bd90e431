#include "src/runtime/spinlock.h"

#include <thread>

#include "src/fault/fault.h"
#include "src/obs/obs.h"

namespace kflex {

namespace {
std::atomic<uint64_t>* Word(void* p) { return reinterpret_cast<std::atomic<uint64_t>*>(p); }
const std::atomic<uint64_t>* Word(const void* p) {
  return reinterpret_cast<const std::atomic<uint64_t>*>(p);
}
}  // namespace

bool SpinLockOps::TryAcquire(void* word, uint64_t owner_tag) {
  uint64_t expected = kFree;
  if (Word(word)->compare_exchange_strong(expected, owner_tag, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    KFLEX_TSAN_ACQUIRE(word);
    return true;
  }
  return false;
}

bool SpinLockOps::Acquire(void* word, uint64_t owner_tag, const std::atomic<bool>* cancel) {
  // Injected waiter delay (chaos, not an error): widen the race window
  // between contending acquirers and the cancellation path by a fixed,
  // wallclock-free amount of spinning before the first acquire attempt. A
  // delayed waiter must still either acquire or observe cancellation.
  if (KFLEX_FAULT_FIRE("lock.delay")) {
    for (int i = 0; i < 4096; i++) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    std::this_thread::yield();
  }
  int backoff = 1;
  uint64_t rounds = 0;
  while (true) {
    if (TryAcquire(word, owner_tag)) {
      // Contention is only reported once the fast path failed at least once,
      // so an uncontended acquire stays silent in the trace.
      if (rounds != 0) {
        KFLEX_TRACE(ObsEvent::kLockContended, owner_tag, rounds);
        KFLEX_OBS_COUNT(kLockContended);
      }
      return true;
    }
    rounds++;
    for (int i = 0; i < backoff; i++) {
      if (Word(word)->load(std::memory_order_relaxed) == kFree) {
        break;
      }
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    if (backoff < 1024) {
      backoff *= 2;
    } else {
      std::this_thread::yield();
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return false;
    }
  }
}

void SpinLockOps::Release(void* word) {
  KFLEX_TSAN_RELEASE(word);
  Word(word)->store(kFree, std::memory_order_release);
}

bool SpinLockOps::IsHeld(const void* word) {
  return Word(word)->load(std::memory_order_acquire) != kFree;
}

}  // namespace kflex
