#include "src/runtime/timer_wheel.h"

#include <bit>
#include <utility>

#include "src/runtime/check.h"

namespace pandora {

TimerNode* TimerWheel::AllocNode() {
  if (free_ != nullptr) {
    TimerNode* node = free_;
    free_ = node->next;
    return node;
  }
  arena_.emplace_back();
  return &arena_.back();
}

void TimerWheel::Recycle(TimerNode* node) {
  // kFree, then the next arming's new seq, keep outstanding handles stale.
  node->where = TimerNode::Where::kFree;
  node->fire = TimerCallback();
  node->prev = nullptr;
  node->next = free_;
  free_ = node;
}

void TimerWheel::Place(TimerNode* node) {
  // Past deadlines park in the cursor slot (fire on the next pop); the
  // node keeps its original `when`.
  const Time target = node->when < wnow_ ? wnow_ : node->when;
  const uint64_t diff = static_cast<uint64_t>(target) ^ static_cast<uint64_t>(wnow_);
  const int level = diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
  if (level >= kLevels) {
    node->where = TimerNode::Where::kHeap;
    HeapPush(node);
    return;
  }
  const int slot = static_cast<int>((target >> (level * kSlotBits)) & kSlotMask);
  node->where = TimerNode::Where::kWheel;
  node->level = static_cast<uint8_t>(level);
  node->slot = static_cast<uint8_t>(slot);
  SlotList& list = slots_[level][slot];
  node->prev = list.tail;
  node->next = nullptr;
  if (list.tail != nullptr) {
    list.tail->next = node;
  } else {
    list.head = node;
    occupied_[level][slot >> 6] |= uint64_t{1} << (slot & 63);
  }
  list.tail = node;
}

void TimerWheel::Unlink(TimerNode* node) {
  SlotList& list = slots_[node->level][node->slot];
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    list.head = node->next;
  }
  if (node->next != nullptr) {
    node->next->prev = node->prev;
  } else {
    list.tail = node->prev;
  }
  if (list.head == nullptr) {
    occupied_[node->level][node->slot >> 6] &= ~(uint64_t{1} << (node->slot & 63));
  }
}

TimerNode* TimerWheel::Add(Time when, TimerCallback fire) {
  TimerNode* node = AllocNode();
  node->when = when;
  node->seq = next_seq_++;
  node->fire = fire;
  Place(node);
  ++pending_;
  return node;
}

void TimerWheel::Cancel(TimerNode* node, uint64_t seq) {
  if (!IsActive(node, seq)) {
    return;  // already fired, cancelled, or recycled into a new timer
  }
  if (node->where == TimerNode::Where::kWheel) {
    Unlink(node);
    --pending_;
    Recycle(node);
  } else if (node->where == TimerNode::Where::kHeap) {
    node->where = TimerNode::Where::kHeapCancelled;
    --pending_;
    ++heap_cancelled_;
    // Lazy removal is O(1); compact once corpses outnumber live entries so
    // a cancel flood cannot grow the heap unboundedly.
    if (heap_cancelled_ > 64 && heap_cancelled_ * 2 > heap_.size()) {
      CompactHeap();
    }
  }
}

TimerWheel::Due TimerWheel::Take(TimerNode* node) {
  Due due;
  due.found = true;
  due.when = node->when;
  due.fire = node->fire;
  --pending_;
  // Recycle before the caller fires: a reentrant Add may reuse this node,
  // and its new seq keeps the old handle inert.
  Recycle(node);
  return due;
}

int TimerWheel::LowestSetSlot(int level) const {
  for (int w = 0; w < kWordsPerLevel; ++w) {
    const uint64_t bits = occupied_[level][w];
    if (bits != 0) {
      return w * 64 + std::countr_zero(bits);
    }
  }
  return -1;
}

Time TimerWheel::WindowStart(int level, int slot) const {
  const int shift = level * kSlotBits;
  const Time above = wnow_ & ~((Time{1} << (shift + kSlotBits)) - 1);
  return above | (static_cast<Time>(slot) << shift);
}

void TimerWheel::Cascade(int level, int slot) {
  SlotList& list = slots_[level][slot];
  TimerNode* node = list.head;
  list.head = list.tail = nullptr;
  occupied_[level][slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  // Re-place in list order: within the window, equal deadlines keep their
  // arming order, and they land before any timer armed after this cascade.
  while (node != nullptr) {
    TimerNode* next = node->next;
    Place(node);
    node = next;
  }
}

TimerWheel::Due TimerWheel::PopDue(Time limit) {
  for (;;) {
    PruneHeapTop();
    const bool heap_live = !heap_.empty();
    const Time heap_when = heap_live ? heap_.front()->when : kNever;

    // Level 0 gives exact deadlines: every slot at or past the cursor holds
    // equal-`when` nodes in seq order.
    const int s0 = LowestSetSlot(0);
    if (s0 >= 0) {
      const Time t0 = (wnow_ & ~kSlotMask) | static_cast<Time>(s0);
      // Heap wins equal-deadline ties: a heap node was armed while its
      // deadline sat beyond the whole wheel, i.e. before any wheel node of
      // the same deadline, so its seq is smaller.
      if (heap_live && heap_when <= t0) {
        if (heap_when > limit) {
          return Due{};
        }
        // heap_when ≤ t0 keeps this inside the cursor's level-0 window, so
        // advancing cannot re-decode any occupied slot.
        wnow_ = heap_when;
        return Take(HeapPopTop());
      }
      if (t0 > limit) {
        return Due{};
      }
      TimerNode* node = slots_[0][s0].head;
      Unlink(node);
      return Take(node);
    }

    // No level-0 candidates: the earliest wheel deadline lives in the first
    // nonempty higher level (its windows start before any higher level's).
    int level = -1;
    int slot = -1;
    for (int l = 1; l < kLevels; ++l) {
      slot = LowestSetSlot(l);
      if (slot >= 0) {
        level = l;
        break;
      }
    }
    if (level < 0) {
      if (!heap_live || heap_when > limit) {
        return Due{};
      }
      // Wheel empty: drag the cursor along so timers armed after a
      // far-future fire land back on the wheel instead of trickling into
      // the heap forever (the cursor otherwise goes stale once simulated
      // time outruns the wheel's 2^32-microsecond span).
      wnow_ = heap_when;
      return Take(HeapPopTop());
    }
    const Time window = WindowStart(level, slot);
    if (heap_live && heap_when < window) {
      if (heap_when > limit) {
        return Due{};
      }
      // heap_when < window ≤ every occupied window start, and it shares the
      // prefix above the earliest occupied level's span with the cursor, so
      // every occupied slot still decodes to the same window.
      wnow_ = heap_when;
      return Take(HeapPopTop());
    }
    if (window > limit) {
      return Due{};
    }
    // Advance the cursor to the window and spread its nodes into finer
    // levels, then rescan.
    wnow_ = window;
    Cascade(level, slot);
  }
}

void TimerWheel::HeapPush(TimerNode* node) {
  heap_.push_back(node);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!HeapLess(heap_[i], heap_[parent])) {
      break;
    }
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void TimerWheel::HeapSiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    std::size_t smallest = i;
    if (left < n && HeapLess(heap_[left], heap_[smallest])) {
      smallest = left;
    }
    if (right < n && HeapLess(heap_[right], heap_[smallest])) {
      smallest = right;
    }
    if (smallest == i) {
      return;
    }
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

TimerNode* TimerWheel::HeapPopTop() {
  PANDORA_DCHECK(!heap_.empty());
  TimerNode* top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    HeapSiftDown(0);
  }
  return top;
}

void TimerWheel::PruneHeapTop() {
  while (!heap_.empty() && heap_.front()->where == TimerNode::Where::kHeapCancelled) {
    TimerNode* node = HeapPopTop();
    --heap_cancelled_;
    Recycle(node);
  }
}

void TimerWheel::CompactHeap() {
  std::size_t kept = 0;
  for (TimerNode* node : heap_) {
    if (node->where == TimerNode::Where::kHeapCancelled) {
      Recycle(node);
    } else {
      heap_[kept++] = node;
    }
  }
  heap_.resize(kept);
  for (std::size_t i = kept / 2; i-- > 0;) {
    HeapSiftDown(i);
  }
  heap_cancelled_ = 0;
}

Time TimerWheel::NextDeadline() const {
  if (pending_ == 0) {
    return kNever;
  }
  Time best = kNever;
  // Same search order as PopDue, without mutating: the earliest wheel
  // deadline is in level 0's lowest occupied slot, or — with level 0 empty —
  // in the first nonempty higher level's lowest slot (all of a level's
  // occupied slots decode at or past the cursor with a shared prefix, so
  // lower absolute index means earlier window).  One slot list is walked
  // because only the cursor slot may hold past-deadline parkers whose
  // `when` undercuts the slot's decoded time.
  const int s0 = LowestSetSlot(0);
  if (s0 >= 0) {
    for (const TimerNode* node = slots_[0][s0].head; node != nullptr; node = node->next) {
      best = node->when < best ? node->when : best;
    }
  } else {
    for (int level = 1; level < kLevels; ++level) {
      const int slot = LowestSetSlot(level);
      if (slot >= 0) {
        for (const TimerNode* node = slots_[level][slot].head; node != nullptr;
             node = node->next) {
          best = node->when < best ? node->when : best;
        }
        break;
      }
    }
  }
  // The heap top may be a lazily-cancelled corpse; scan past them (the heap
  // stays small: only deadlines beyond the wheel's 2^32 us span live here).
  for (const TimerNode* node : heap_) {
    if (node->where == TimerNode::Where::kHeap && node->when < best) {
      best = node->when;
    }
  }
  return best;
}

void TimerWheel::Clear() {
  for (int level = 0; level < kLevels; ++level) {
    for (int w = 0; w < kWordsPerLevel; ++w) {
      uint64_t bits = occupied_[level][w];
      occupied_[level][w] = 0;
      while (bits != 0) {
        const int slot = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        SlotList& list = slots_[level][slot];
        TimerNode* node = list.head;
        list.head = list.tail = nullptr;
        while (node != nullptr) {
          TimerNode* next = node->next;
          Recycle(node);
          node = next;
        }
      }
    }
  }
  for (TimerNode* node : heap_) {
    Recycle(node);
  }
  heap_.clear();
  heap_cancelled_ = 0;
  pending_ = 0;
}

}  // namespace pandora
