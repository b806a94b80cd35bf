// alloc_counter.hpp — replaces the global operator new/delete with counting
// forwarders, so a test can assert that a steady-state loop allocates
// nothing: read allocation_count() before and after and expect a zero delta.
// The override is process-wide but only counts, so every other test in the
// binary behaves as before. Include it from exactly one source file of a test
// binary. Sanitizer runtimes allocate behind these hooks: tests skip their
// counts when AQUA_SANITIZED is defined.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AQUA_SANITIZED 1
#endif
#if !defined(AQUA_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AQUA_SANITIZED 1
#endif
#endif

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

inline long allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t n = ((size ? size : 1) + a - 1) / a * a;  // aligned_alloc
  if (void* p = std::aligned_alloc(a, n)) return p;            // needs n % a == 0
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
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
