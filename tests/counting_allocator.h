// Copyright 2026 The updb Authors.
// Replaces the global operator new/delete with malloc-backed versions that
// count every allocation in the process, the aligned overloads
// gf::AlignedVec uses included. Include it from exactly one translation
// unit of a test binary, and give that test its own binary: every
// allocation anywhere in the process is counted.

#ifndef UPDB_TESTS_COUNTING_ALLOCATOR_H_
#define UPDB_TESTS_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace updb::test {

inline std::atomic<size_t> g_allocations{0};

/// Allocations made in the process so far.
inline size_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace updb::test

void* operator new(size_t size) {
  updb::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(size_t size, std::align_val_t align) {
  updb::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = (size + a - 1) & ~(a - 1);  // aligned_alloc demands
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void* operator new[](size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // UPDB_TESTS_COUNTING_ALLOCATOR_H_
