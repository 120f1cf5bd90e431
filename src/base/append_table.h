// An append-only table of owned entries with dense indices (0, 1, 2, ...),
// for registries that grow at load time and are read on every invocation:
// extensions, maps and metric slots.
//
// Writers serialize on a mutex. Readers take no lock: an acquire load of the
// published count, then an index into chunks that double in size, so an
// entry never moves once appended and needs no capacity up front.
#ifndef SRC_BASE_APPEND_TABLE_H_
#define SRC_BASE_APPEND_TABLE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <mutex>

#include "src/base/status.h"

namespace kflex {

template <typename T>
class AppendTable {
 public:
  AppendTable() = default;
  AppendTable(const AppendTable&) = delete;
  AppendTable& operator=(const AppendTable&) = delete;

  // Takes ownership of `entry` and returns its index.
  size_t Append(std::unique_ptr<T> entry) {
    std::lock_guard<std::mutex> lock(mu_);
    return Publish(std::move(entry));
  }

  // Appends the entry make(index) builds, where index is the one it will
  // get, so the entry can carry its own id. make returns
  // StatusOr<std::unique_ptr<T>> and runs under the writer lock; on error
  // nothing is appended.
  template <typename Make>
  StatusOr<size_t> AppendWith(Make&& make) {
    std::lock_guard<std::mutex> lock(mu_);
    StatusOr<std::unique_ptr<T>> entry = make(size_.load(std::memory_order_relaxed));
    if (!entry.ok()) {
      return entry.status();
    }
    return Publish(std::move(entry).value());
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  // nullptr when `index` has not been appended.
  T* Get(size_t index) const {
    if (index >= size()) {
      return nullptr;
    }
    const size_t chunk = ChunkOf(index);
    return chunks_[chunk][index + 1 - (size_t{1} << chunk)].get();
  }

 private:
  // Chunk c holds 2^c entries, indices [2^c - 1, 2^(c+1) - 1).
  static size_t ChunkOf(size_t index) { return std::bit_width(index + 1) - 1; }

  // Callers hold mu_. The release store publishes the slot (and a new chunk)
  // to readers that acquire-load the count.
  size_t Publish(std::unique_ptr<T> entry) {
    const size_t index = size_.load(std::memory_order_relaxed);
    const size_t chunk = ChunkOf(index);
    if (chunks_[chunk] == nullptr) {
      chunks_[chunk] = std::make_unique<std::unique_ptr<T>[]>(size_t{1} << chunk);
    }
    chunks_[chunk][index + 1 - (size_t{1} << chunk)] = std::move(entry);
    size_.store(index + 1, std::memory_order_release);
    return index;
  }

  std::mutex mu_;  // serializes writers
  std::atomic<size_t> size_{0};
  std::unique_ptr<std::unique_ptr<T>[]> chunks_[64];
};

}  // namespace kflex

#endif  // SRC_BASE_APPEND_TABLE_H_
