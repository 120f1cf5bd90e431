#include "src/jit/code_cache.h"

#include <cstring>
#include <utility>

#include "src/fault/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define KFLEX_JIT_HAVE_MMAP 1
#endif

namespace kflex {
namespace {

size_t PageRound(size_t n) {
  size_t page = 4096;
#if defined(KFLEX_JIT_HAVE_MMAP)
  long sys = sysconf(_SC_PAGESIZE);
  if (sys > 0) page = static_cast<size_t>(sys);
#endif
  return (n + page - 1) & ~(page - 1);
}

}  // namespace

CodeBuffer::~CodeBuffer() { Release(); }

CodeBuffer::CodeBuffer(CodeBuffer&& other) noexcept
    : data_(other.data_),
      mapped_size_(other.mapped_size_),
      code_size_(other.code_size_) {
  other.data_ = nullptr;
  other.mapped_size_ = 0;
  other.code_size_ = 0;
}

CodeBuffer& CodeBuffer::operator=(CodeBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    mapped_size_ = std::exchange(other.mapped_size_, 0);
    code_size_ = std::exchange(other.code_size_, 0);
  }
  return *this;
}

bool CodeBuffer::Allocate(size_t size) {
  Release();
  if (size == 0) return false;
  // Injected mapping refusal: behaves exactly like an mmap failure (RWX
  // policy, address-space exhaustion); the caller falls back to the
  // interpreter and records the reason in EngineInfo.
  if (KFLEX_FAULT_FIRE("jit.mmap")) return false;
#if defined(KFLEX_JIT_HAVE_MMAP)
  size_t rounded = PageRound(size);
  void* p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  data_ = static_cast<uint8_t*>(p);
  mapped_size_ = rounded;
  return true;
#else
  return false;
#endif
}

bool CodeBuffer::Seal(const uint8_t* code, size_t size) {
#if defined(KFLEX_JIT_HAVE_MMAP)
  if (data_ == nullptr || size > mapped_size_) return false;
  // Injected W^X seal refusal: as if mprotect(PROT_READ|PROT_EXEC) were
  // denied after the code was copied in; the mapping is torn down, never
  // left writable+executable.
  if (KFLEX_FAULT_FIRE("jit.mprotect")) {
    Release();
    return false;
  }
  std::memcpy(data_, code, size);
  code_size_ = size;
  if (mprotect(data_, mapped_size_, PROT_READ | PROT_EXEC) != 0) {
    Release();
    return false;
  }
  return true;
#else
  (void)code;
  (void)size;
  return false;
#endif
}

void CodeBuffer::Release() {
#if defined(KFLEX_JIT_HAVE_MMAP)
  if (data_ != nullptr) {
    munmap(data_, mapped_size_);
  }
#endif
  data_ = nullptr;
  mapped_size_ = 0;
  code_size_ = 0;
}

}  // namespace kflex
