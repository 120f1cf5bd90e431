// KFlex spin locks (§3.1, §3.4).
//
// Lock state is an 8-byte word living *inside the extension heap*, so both
// extensions (via the kflex_spin_lock/unlock helpers) and user-space threads
// sharing the mapped heap can synchronize on it. Waiters observe the
// invocation's cancel flag so that a deadlocked or starved extension can be
// cancelled (§3.3); the cancellation path force-releases held locks through
// the object table.
//
// Substitution note: the paper uses a queue-based (MCS-style) lock. Queue
// locks cannot abandon a queue position safely when a waiter is cancelled,
// so this model uses a compare-and-swap lock with bounded exponential
// backoff, which preserves the safety-relevant behaviour (mutual exclusion,
// cancellable waiting, user/kernel sharing) at the cost of FIFO fairness.
#ifndef SRC_RUNTIME_SPINLOCK_H_
#define SRC_RUNTIME_SPINLOCK_H_

#include <atomic>
#include <cstdint>

// ThreadSanitizer annotations (see docs/concurrency.md and the `tsan` CMake
// preset). The lock is built on std::atomic, whose acquire/release ordering
// TSan models natively; the explicit annotations keep the lock word's
// happens-before edges visible to TSan even if the implementation moves to
// fences or raw __atomic builtins, and mark the word as a synchronization
// address in race reports. No-ops outside TSan builds.
#if defined(__SANITIZE_THREAD__)
#define KFLEX_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KFLEX_TSAN_ENABLED 1
#endif
#endif

#if defined(KFLEX_TSAN_ENABLED)
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#define KFLEX_TSAN_ACQUIRE(addr) __tsan_acquire(addr)
#define KFLEX_TSAN_RELEASE(addr) __tsan_release(addr)
#else
#define KFLEX_TSAN_ACQUIRE(addr) ((void)0)
#define KFLEX_TSAN_RELEASE(addr) ((void)0)
#endif

namespace kflex {

class SpinLockOps {
 public:
  // Lock word values: 0 = free, otherwise an owner tag (nonzero).
  static constexpr uint64_t kFree = 0;
  static constexpr uint64_t kKernelOwner = 1;  // extension invocations
  static constexpr uint64_t kUserOwner = 2;    // user-space threads

  // Spins until the lock is acquired or `cancel` (may be null) becomes true.
  // Returns true on acquisition.
  static bool Acquire(void* word, uint64_t owner_tag, const std::atomic<bool>* cancel);

  static bool TryAcquire(void* word, uint64_t owner_tag);

  // Releases unconditionally (also used by cancellation force-release).
  static void Release(void* word);

  static bool IsHeld(const void* word);
};

}  // namespace kflex

#endif  // SRC_RUNTIME_SPINLOCK_H_
