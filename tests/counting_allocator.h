// Counting global allocator shared by the benches and the allocation tests.
//
// Replaces the global operator new/delete family with versions that bump one
// relaxed atomic before delegating to malloc/free.  Sharded benches allocate
// from several worker threads at once, so the count is atomic: exact in
// total, with no ordering promised between threads.  Callers read
// HeapAllocCount() around a measured region and subtract.
//
// Include from exactly ONE translation unit per binary: replacement
// allocation functions may not be inline, so this header defines them.
#ifndef PANDORA_TESTS_COUNTING_ALLOCATOR_H_
#define PANDORA_TESTS_COUNTING_ALLOCATOR_H_

#include <execinfo.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace pandora {

inline std::atomic<uint64_t> g_heap_allocs{0};
// Debugging aid: while set, every allocation prints its backtrace to stderr.
inline std::atomic<bool> g_trace_heap_allocs{false};

// Heap allocations (every operator new / new[] variant) since process start.
inline uint64_t HeapAllocCount() { return g_heap_allocs.load(std::memory_order_relaxed); }
inline void TraceHeapAllocs(bool on) { g_trace_heap_allocs.store(on, std::memory_order_relaxed); }

inline void CountHeapAlloc() {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  // Cleared while reporting, so backtrace's own allocations do not recurse.
  if (g_trace_heap_allocs.load(std::memory_order_relaxed) &&
      g_trace_heap_allocs.exchange(false, std::memory_order_relaxed)) {
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    std::fputs("---\n", stderr);
    g_trace_heap_allocs.store(true, std::memory_order_relaxed);
  }
}

inline void* CountedAlloc(std::size_t n) {
  CountHeapAlloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

inline void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  CountHeapAlloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace pandora

void* operator new(std::size_t n) { return pandora::CountedAlloc(n); }
void* operator new[](std::size_t n) { return pandora::CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return pandora::CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return pandora::CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // PANDORA_TESTS_COUNTING_ALLOCATOR_H_
