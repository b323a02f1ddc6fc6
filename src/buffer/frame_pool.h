// FramePool: size-classed free-list recycler for coroutine frames.
//
// The paper's runtime spawns a short-lived Occam process per delivered
// segment (section 3.4: lifetimes "measured in microseconds"); our
// reproduction mirrors that with a coroutine per forwarded segment, which
// means a frame allocation on every network event unless frames are
// recycled.  FramePool backs the pooled `operator new/delete` on
// Process::promise_type: frames are rounded up to a 64-byte granule, capped
// at 4 KiB (larger frames pass through to the global heap), and freed
// frames park on a per-class free list so steady-state spawn/exit churn
// never touches malloc.
//
// The free lists are per executor thread (`thread_local`): under the
// sharded M:N scheduler (src/runtime/shard_set.h) every worker recycles the
// frames of the shards it runs, and the static shard-to-worker assignment
// means a shard's spawn/exit churn stays on one worker's lists — no
// synchronisation, no cross-thread frees in steady state.  A frame that
// does migrate (allocated on the main thread before Run, recycled inside a
// worker window) simply seeds the recycler that freed it; blocks are plain
// heap storage, so which thread's list holds a free block never affects
// behaviour, only which thread skips its next malloc.  Under
// AddressSanitizer the pool degrades to a passthrough: recycling would
// defeat ASan's use-after-free quarantine and report the retained free
// lists as leaks.
//
// `allocations()` counts every frame this thread asked for (pooled, huge
// or passthrough): a per-thread tally that tests pin as exact work per
// delivered segment, since a frame per operation is the cost the hot path
// avoids (DESIGN.md §10.6).
#ifndef PANDORA_SRC_BUFFER_FRAME_POOL_H_
#define PANDORA_SRC_BUFFER_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

#include "src/runtime/shard.h"

#if defined(__SANITIZE_ADDRESS__)
#define PANDORA_FRAME_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PANDORA_FRAME_POOL_PASSTHROUGH 1
#endif
#endif
#ifndef PANDORA_FRAME_POOL_PASSTHROUGH
#define PANDORA_FRAME_POOL_PASSTHROUGH 0
#endif

namespace pandora {

class FramePool {
 public:
  static void* Allocate(std::size_t n) {
    ++AllocationCount();
#if PANDORA_FRAME_POOL_PASSTHROUGH
    return ::operator new(n);
#else
    const std::size_t wanted = n == 0 ? 1 : n;
    const std::size_t cls = (wanted + kGranule - 1) / kGranule - 1;
    if (cls >= kNumClasses) {
      Header* header = static_cast<Header*>(::operator new(sizeof(Header) + wanted));
      header->cls = kHuge;
      return header + 1;
    }
    FreeNode*& head = FreeListHead(cls);
    Header* header;
    if (head != nullptr) {
      FreeNode* node = head;
      head = node->next;
      header = reinterpret_cast<Header*>(node);
    } else {
      header = static_cast<Header*>(::operator new(sizeof(Header) + (cls + 1) * kGranule));
    }
    header->cls = static_cast<std::uint32_t>(cls);
    return header + 1;
#endif
  }

  static void Deallocate(void* p) noexcept {
#if PANDORA_FRAME_POOL_PASSTHROUGH
    ::operator delete(p);
#else
    if (p == nullptr) {
      return;
    }
    Header* header = static_cast<Header*>(p) - 1;
    if (header->cls == kHuge) {
      ::operator delete(header);
      return;
    }
    const std::size_t cls = header->cls;
    // The dead block's own bytes become the free-list node.
    FreeNode* node = reinterpret_cast<FreeNode*>(header);
    node->next = FreeListHead(cls);
    FreeListHead(cls) = node;
#endif
  }

  // Frames allocated on the calling thread since it started.
  static std::uint64_t allocations() { return AllocationCount(); }

 private:
  // 64 classes x 64-byte granule covers frames up to 4 KiB; every coroutine
  // in the codebase measures well under that (a Process frame is a few
  // hundred bytes), so the passthrough path is cold.
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooled = 4096;
  static constexpr std::size_t kNumClasses = kMaxPooled / kGranule;
  static constexpr std::uint32_t kHuge = 0xffffffffu;

  // The header keeps the payload max-aligned, as operator new must.
  struct alignas(alignof(std::max_align_t)) Header {
    std::uint32_t cls;
  };
  static_assert(sizeof(Header) == alignof(std::max_align_t));

  struct FreeNode {
    FreeNode* next;
  };
  static_assert(sizeof(FreeNode) <= sizeof(Header) + kGranule);

  static FreeNode*& FreeListHead(std::size_t cls) {
    // Frame recycling is an allocator fast path.  thread_local + zero-init
    // means no guard variable and no synchronisation: each ShardSet worker
    // (and the main thread) owns its lists outright, and the barrier
    // protocol hands shards between threads with full happens-before.
    PANDORA_SHARD_LOCAL static thread_local FreeNode* heads[kNumClasses] = {};
    return heads[cls];
  }

  static std::uint64_t& AllocationCount() {
    PANDORA_SHARD_LOCAL static thread_local std::uint64_t count = 0;
    return count;
  }
};

}  // namespace pandora

#endif  // PANDORA_SRC_BUFFER_FRAME_POOL_H_
