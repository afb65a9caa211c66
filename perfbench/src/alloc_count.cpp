#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void alloc_count_begin() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}

std::uint64_t alloc_count_end() {
  g_counting.store(false, std::memory_order_seq_cst);
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
