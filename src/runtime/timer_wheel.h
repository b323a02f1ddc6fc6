// Hierarchical timing wheel over the simulated microsecond clock.
//
// Replaces the scheduler's shared_ptr<Record> priority queue: arming a
// timer was a make_shared plus a heap percolation, and cancelled timers
// (every Alt timeout that lost its race) lingered until their deadline
// popped them.  The wheel gives O(1) insert and O(1) cancel-unlink with
// nodes drawn from an internal free list, so the steady-state timer path
// performs no allocation at all.
//
// Geometry: four levels of 256 slots, 8 bits of deadline per level, which
// spans 2^32 us (~71 simulated minutes) — comfortably past the workload's
// 2 ms segment cadence and 8 s clawback horizons.  Deadlines beyond the
// wheel go to a small overflow binary heap of the same nodes and are
// compared against wheel candidates at pop time (no eager migration).
//
// A node's level is chosen by the most significant bit in which its
// deadline differs from the wheel cursor `wnow_` (an XOR prefix match, the
// scheme of Varghese & Lauck's hierarchical wheels).  This keeps the FIFO
// guarantee the scheduler needs: within one level-0 slot all nodes share a
// deadline and are appended in sequence order; a cascade re-places a
// window's nodes in list order before any new timer can land there, so
// equal-deadline timers always fire in the order they were armed — wheel
// and heap alike (a heap node predates, hence out-sequences, any
// equal-deadline wheel node).
//
// Deadlines already in the past are placed in the cursor slot and fire on
// the next pop with their original `when` (the scheduler never moves its
// clock backwards).  No current caller arms a past timer; see DESIGN.md
// section 10 for the ordering fine print.
#ifndef PANDORA_SRC_RUNTIME_TIMER_WHEEL_H_
#define PANDORA_SRC_RUNTIME_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/runtime/callback.h"
#include "src/runtime/time.h"

namespace pandora {

// One pending (or recycled) timer.  Nodes live in the wheel's arena and are
// reused; `seq` (never reused) plus `where` identify one arming, so a stale
// TimerHandle over a fired, cancelled or recycled node is a safe no-op.
struct TimerNode {
  Time when = 0;
  uint64_t seq = 0;
  TimerCallback fire;
  TimerNode* prev = nullptr;
  TimerNode* next = nullptr;
  enum class Where : uint8_t {
    kFree,           // on the free list
    kWheel,          // linked into slots_[level][slot]
    kHeap,           // in the far-future overflow heap
    kHeapCancelled,  // cancelled but still parked in the heap (lazy removal)
  };
  Where where = Where::kFree;
  uint8_t level = 0;
  uint8_t slot = 0;
};
static_assert(sizeof(TimerNode) <= 72);

class TimerWheel {
 public:
  // A due timer, detached from the wheel.  The node is recycled before the
  // caller runs `fire`, so a callback may re-arm timers reentrantly.
  struct Due {
    bool found = false;
    Time when = 0;
    TimerCallback fire;
  };
  static_assert(sizeof(Due) <= 48);

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms a timer; the returned node plus its `seq` form a cancellation handle.
  TimerNode* Add(Time when, TimerCallback fire);

  // O(1) for wheel nodes (unlink + recycle).  Heap nodes are marked and
  // lazily dropped at pop time, with a compaction once cancelled nodes
  // outnumber live ones.  Stale handles are ignored.
  void Cancel(TimerNode* node, uint64_t seq);

  // Fired and cancelled armings leave their node kFree or kHeapCancelled.
  static bool IsActive(const TimerNode* node, uint64_t seq) {
    return node != nullptr && node->seq == seq &&
           (node->where == TimerNode::Where::kWheel || node->where == TimerNode::Where::kHeap);
  }

  // Detaches and returns the earliest pending timer with deadline <= limit,
  // in (when, seq) order; {found=false} if none qualifies.  May advance the
  // internal cursor up to `limit` while cascading.
  Due PopDue(Time limit);

  // Drops every pending timer (scheduler shutdown).
  void Clear();

  // Earliest pending deadline without detaching anything (kNever if empty).
  // The sharded scheduler's conservative-sync loop peeks every shard's
  // horizon each window, so this must not mutate cursor or heap.  A
  // past-deadline node parked in the cursor slot reports its original
  // `when`; callers clamp against their own clock.
  Time NextDeadline() const;

  std::size_t pending_count() const { return pending_; }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr Time kSlotMask = kSlots - 1;
  static constexpr int kWordsPerLevel = kSlots / 64;

  struct SlotList {
    TimerNode* head = nullptr;
    TimerNode* tail = nullptr;
  };

  TimerNode* AllocNode();
  void Recycle(TimerNode* node);
  void Place(TimerNode* node);
  void Unlink(TimerNode* node);
  Due Take(TimerNode* node);
  int LowestSetSlot(int level) const;
  Time WindowStart(int level, int slot) const;
  void Cascade(int level, int slot);

  static bool HeapLess(const TimerNode* a, const TimerNode* b) {
    return a->when != b->when ? a->when < b->when : a->seq < b->seq;
  }
  void HeapPush(TimerNode* node);
  TimerNode* HeapPopTop();
  void HeapSiftDown(std::size_t i);
  void PruneHeapTop();
  void CompactHeap();

  Time wnow_ = 0;  // wheel cursor: <= every pending deadline and <= the clock
  uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  SlotList slots_[kLevels][kSlots];
  uint64_t occupied_[kLevels][kWordsPerLevel] = {};
  std::vector<TimerNode*> heap_;  // min-heap on (when, seq)
  std::size_t heap_cancelled_ = 0;
  // Node storage: deque for stable addresses; the free list makes growth a
  // warmup-only event.
  std::deque<TimerNode> arena_;
  TimerNode* free_ = nullptr;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_TIMER_WHEEL_H_
