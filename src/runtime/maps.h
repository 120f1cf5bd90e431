// Kernel-provided eBPF maps (§2.2): the only data structures available to
// strict-eBPF extensions. KFlex keeps them for backward compatibility; the
// BMC baseline (§5.1) is built on a pre-allocated hash map exactly like the
// original system.
//
// Map handles and value pointers are simulated kernel VAs inside kMapRegion:
// a VA's high bits name its map, so the VM translates a value-pointer access
// as FindByVa(va)->TranslateValue(va, size).
#ifndef SRC_RUNTIME_MAPS_H_
#define SRC_RUNTIME_MAPS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/base/append_table.h"
#include "src/base/status.h"
#include "src/runtime/layout.h"
#include "src/verifier/verifier.h"

namespace kflex {

class Map {
 public:
  Map(MapDescriptor desc, uint64_t handle_va) : desc_(desc), handle_va_(handle_va) {}
  virtual ~Map() = default;

  const MapDescriptor& desc() const { return desc_; }
  uint64_t handle_va() const { return handle_va_; }
  uint64_t value_area_va() const { return handle_va_ + kValueAreaOff; }

  // Returns the VA of the value for `key`, or 0 if absent.
  virtual uint64_t Lookup(const uint8_t* key) = 0;
  // 0 on success, negative errno-style value on failure.
  virtual int Update(const uint8_t* key, const uint8_t* value) = 0;
  virtual int Delete(const uint8_t* key) = 0;
  // Host pointer for a value-area access, or nullptr if out of bounds.
  virtual uint8_t* TranslateValue(uint64_t va, uint64_t size) = 0;

  static constexpr uint64_t kValueAreaOff = 0x100000;

 protected:
  MapDescriptor desc_;
  uint64_t handle_va_;
};

// Fixed-size array map: key is a u32 index; all values pre-allocated.
class ArrayMap final : public Map {
 public:
  ArrayMap(MapDescriptor desc, uint64_t handle_va);

  uint64_t Lookup(const uint8_t* key) override;
  int Update(const uint8_t* key, const uint8_t* value) override;
  int Delete(const uint8_t* key) override;
  uint8_t* TranslateValue(uint64_t va, uint64_t size) override;

 private:
  std::vector<uint8_t> values_;
};

// Pre-allocated hash map (open hashing, fixed capacity) — the shape BMC uses
// for its look-aside cache. Probe state lives in flat arrays (one metadata
// byte + packed key bytes per slot) so the JIT v2 inline lookup can walk the
// probe chain natively; a seqlock lets that lock-free reader detect a racing
// writer and bail to the locked slow path.
class BpfHashMap final : public Map {
 public:
  // Slot metadata byte values (layout contract with the JIT inline probe).
  static constexpr uint8_t kSlotEmpty = 0;      // never used: ends the chain
  static constexpr uint8_t kSlotTombstone = 1;  // deleted: keep probing
  static constexpr uint8_t kSlotUsed = 2;

  // Read-only snapshot of the probe structures for native inline lookups.
  // All pointers stay valid and fixed for the map's lifetime. Readers take
  // the seqlock protocol: load *seq (odd → writer active, bail), probe
  // meta/keys, re-load *seq (changed → retry or bail).
  struct InlineView {
    const uint8_t* meta = nullptr;
    const uint8_t* keys = nullptr;  // capacity * key_size, slot-major
    const uint64_t* seq = nullptr;  // even when stable; bumped around inserts/deletes
    uint64_t capacity = 0;
    uint32_t key_size = 0;
    uint32_t value_size = 0;
    uint64_t value_area_va = 0;
  };

  BpfHashMap(MapDescriptor desc, uint64_t handle_va);

  uint64_t Lookup(const uint8_t* key) override;
  int Update(const uint8_t* key, const uint8_t* value) override;
  int Delete(const uint8_t* key) override;
  uint8_t* TranslateValue(uint64_t va, uint64_t size) override;

  InlineView inline_view() const;

 private:
  size_t FindSlot(const uint8_t* key, bool for_insert, bool& found);

  std::mutex mu_;
  std::vector<uint8_t> meta_;    // capacity_ slot-state bytes
  std::vector<uint8_t> keys_;    // capacity_ * key_size packed key bytes
  std::vector<uint8_t> values_;
  std::atomic<uint64_t> seq_{0};
  size_t capacity_;
  size_t size_ = 0;
};

// Ring buffer map (the kernel's BPF_MAP_TYPE_RINGBUF shape): extensions
// emit variable-size records via bpf_ringbuf_output; user space drains them
// in order. Records are dropped (helper returns -ENOSPC) when the buffer is
// full.
class RingBufMap final : public Map {
 public:
  RingBufMap(MapDescriptor desc, uint64_t handle_va);

  // Producer side (helper): returns 0 or -1 when capacity would be exceeded.
  int Output(const uint8_t* data, uint32_t size);

  // Consumer side (user space): invokes `fn` for each pending record in
  // submission order and releases them. Returns the number consumed.
  size_t Drain(const std::function<void(const uint8_t* data, uint32_t size)>& fn);

  size_t pending() const;
  uint64_t dropped() const;

  // Ring buffers expose no lookup/update/delete surface.
  uint64_t Lookup(const uint8_t* key) override { return 0; }
  int Update(const uint8_t* key, const uint8_t* value) override { return -1; }
  int Delete(const uint8_t* key) override { return -1; }
  uint8_t* TranslateValue(uint64_t va, uint64_t size) override { return nullptr; }

 private:
  mutable std::mutex mu_;
  std::deque<std::vector<uint8_t>> records_;
  uint64_t bytes_used_ = 0;
  uint64_t capacity_;
  uint64_t dropped_ = 0;
};

class MapRegistry {
 public:
  // Map ids are 1..kMaxMaps: the handle of id kMaxMaps + 1 would land on
  // kKernelObjRegion, where no value area can be translated.
  static constexpr uint32_t kMaxMaps =
      static_cast<uint32_t>((kKernelObjRegion - kMapRegion) >> 32) - 1;

  // Creates a map and returns its descriptor (id assigned by the registry).
  StatusOr<MapDescriptor> CreateArray(uint32_t key_size, uint32_t value_size,
                                      uint64_t max_entries);
  StatusOr<MapDescriptor> CreateHash(uint32_t key_size, uint32_t value_size,
                                     uint64_t max_entries);
  // Ring buffer with `capacity_bytes` of record storage.
  StatusOr<MapDescriptor> CreateRingBuf(uint64_t capacity_bytes);

  // Lock-free: maps are never removed.
  Map* Find(uint32_t id) const;
  // Finds the map owning VA `va` (handle or value area); nullptr if none.
  Map* FindByVa(uint64_t va) const;

  static uint64_t HandleVaForId(uint32_t id) {
    return kMapRegion + (static_cast<uint64_t>(id) << 32);
  }

  std::vector<MapDescriptor> Descriptors() const;

 private:
  template <typename M>
  StatusOr<MapDescriptor> Create(MapDescriptor desc);

  AppendTable<Map> maps_;  // id = index + 1
};

}  // namespace kflex

#endif  // SRC_RUNTIME_MAPS_H_
