// Counting allocator: replaces the global operator new/delete of the
// benchmark binary (library allocations included, aligned field storage
// too), so the traced run can report heap allocations per rhs inside the
// timed solves.  Counting is switched on only around those solves.

#include <cstdlib>
#include <new>

#include "harness.h"

namespace perfbench {
namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_count{0};
std::atomic<long> g_bytes{0};

void note(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<long>(n), std::memory_order_relaxed);
}

void* alloc(std::size_t n) {
  note(n);
  return std::malloc(n ? n : 1);
}

void* alloc_aligned(std::size_t n, std::align_val_t a) {
  note(n);
  std::size_t align = static_cast<std::size_t>(a);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : 1) != 0) return nullptr;
  return p;
}
}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
AllocCounts alloc_counts() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}
void reset_alloc_counts() {
  g_count.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace perfbench

using perfbench::alloc;
using perfbench::alloc_aligned;

void* operator new(std::size_t n) {
  if (void* p = alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = alloc_aligned(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = alloc_aligned(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return alloc_aligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
