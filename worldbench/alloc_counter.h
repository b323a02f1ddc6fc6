// Process-wide heap-allocation counter for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new family with a version
// that bumps one relaxed atomic before delegating to malloc.  Sharded worlds
// allocate from several worker threads at once, so the counter is atomic:
// exact in total, with no ordering promised between threads.
#ifndef WORLDBENCH_ALLOC_COUNTER_H_
#define WORLDBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace worldbench {

// Heap allocations (every operator new / new[] variant) since process start.
uint64_t AllocCount();

}  // namespace worldbench

#endif  // WORLDBENCH_ALLOC_COUNTER_H_
