// RefPool: the allocator process with reference counting (fig 3.3/3.4).
//
// "The input processes obtain empty buffers from an allocator process in
// advance, fill them as the data become available, and then transmit the
// buffer index numbers through the rest of the system...  The allocator
// keeps a reference count of the number of processes using each buffer"
// (section 3.4).  Copying happens once in and once out per output device;
// everything between passes 32-bit buffer indices.
//
// "If there are no buffers available, then the allocator will not listen
// for any requests, and the requesting processes will be descheduled by the
// usual channel synchronisation mechanism until the allocator is ready to
// receive again.  The allocator reports this (serious) fault on its report
// channel so that it can be logged."
//
// The pool is a template over the buffer type so the same allocator,
// starvation-reporting and pressure-injection machinery backs both the
// box-side segment pools (BufferPool of Segment) and the port-side wire
// pools (WirePool of encoded bytes, src/segment/wire.h).  A freed buffer is
// scrubbed through the unqualified customization point `PoolRecycle(T&)`,
// found by ADL, which must drop contents while keeping heap capacity.
//
// PoolRef is the RAII face of a buffer index: moving it passes the
// reference on (no count change, the common case the paper optimises);
// Dup() increments the count (stream splitting); destruction decrements it.
#ifndef PANDORA_SRC_BUFFER_POOL_H_
#define PANDORA_SRC_BUFFER_POOL_H_

#include <coroutine>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/control/report.h"
#include "src/runtime/channel.h"
#include "src/runtime/check.h"
#include "src/runtime/scheduler.h"
#include "src/segment/segment.h"

namespace pandora {

template <typename T>
class RefPool;

template <typename T>
class PoolRef {
 public:
  PoolRef() = default;
  PoolRef(PoolRef&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)), index_(std::exchange(other.index_, -1)) {}
  PoolRef& operator=(PoolRef&& other) noexcept {
    if (this != &other) {
      Reset();
      pool_ = std::exchange(other.pool_, nullptr);
      index_ = std::exchange(other.index_, -1);
    }
    return *this;
  }
  PoolRef(const PoolRef&) = delete;
  PoolRef& operator=(const PoolRef&) = delete;
  ~PoolRef() { Reset(); }

  explicit operator bool() const { return pool_ != nullptr; }

  // Takes an additional reference for a second destination.  Both handles
  // alias the same buffer; holders must treat shared buffers as read-only.
  PoolRef Dup() const {
    if (pool_ == nullptr) {
      return PoolRef();
    }
    pool_->IncRef(index_);
    return PoolRef(pool_, index_);
  }

  T& operator*() const { return *get(); }
  T* operator->() const { return get(); }
  T* get() const {
    PANDORA_CHECK(pool_ != nullptr, "dereferencing an empty buffer reference");
    return &pool_->SlotAt(index_).value;
  }

  int32_t index() const { return index_; }
  // The owning pool (null for an empty handle); lets holders of a handle
  // allocate siblings from the same pool (copy-on-corrupt, src/net/atm.cc).
  RefPool<T>* pool() const { return pool_; }

  // Drops this reference (informing the allocator).
  void Reset() {
    if (pool_ != nullptr) {
      pool_->DecRef(index_);
      pool_ = nullptr;
      index_ = -1;
    }
  }

 private:
  friend class RefPool<T>;
  PoolRef(RefPool<T>* pool, int32_t index) : pool_(pool), index_(index) {}

  RefPool<T>* pool_ = nullptr;
  int32_t index_ = -1;
};

template <typename T>
class RefPool {
 public:
  // `capacity` fixed buffers are shared by all processes on the board.
  RefPool(Scheduler* sched, std::string name, size_t capacity, ReportSink* report_sink = nullptr)
      : sched_(sched),
        name_(std::move(name)),
        reporter_(sched, report_sink, name_),
        slots_(capacity),
        handoff_(sched, name_ + ".handoff"),
        min_free_seen_(capacity) {
    free_.reserve(capacity);
    // Hand out low indices first so tests are deterministic.
    for (size_t i = capacity; i > 0; --i) {
      free_.push_back(static_cast<int32_t>(i - 1));
    }
    // The handoff channel passes raw slot indices whose refcount was already
    // transferred to the woken requester.  If that requester is killed before
    // resuming (box crash), the kill sweep hands the index back so the buffer
    // is not lost for the rest of the run.
    handoff_.set_kill_drop_handler([this](int32_t&& index) { DecRef(index); });
  }

  RefPool(const RefPool&) = delete;
  RefPool& operator=(const RefPool&) = delete;

  // Obtains an empty buffer, parking the caller while the pool is starved
  // (the allocator "will not listen for any requests").  Starvation is
  // reported as the serious fault it is.  A plain awaiter: the free-list
  // fast path completes without suspending, and neither path costs a frame.
  [[nodiscard]] auto Allocate() { return AllocateAwaiter{this, std::nullopt, handoff_.Receive()}; }

  // Non-blocking variant for callers that would rather drop than wait.
  std::optional<PoolRef<T>> TryAllocate() {
    if (free_.empty()) {
      return std::nullopt;
    }
    int32_t index = free_.back();
    free_.pop_back();
    if (free_.size() < min_free_seen_) {
      min_free_seen_ = free_.size();
    }
    return MakeRef(index);
  }

  // Fault hook: seizes up to `count` free buffers so real traffic sees an
  // artificially starved pool (the paper's "serious fault" path exercised
  // on demand).  Returns how many were actually seized; ReleasePressure
  // returns them all, handing off directly to parked requesters first.
  size_t InjectPressure(size_t count) {
    size_t seized = 0;
    while (seized < count && !free_.empty()) {
      int32_t index = free_.back();
      free_.pop_back();
      SlotAt(index).refs = 1;
      pressured_.push_back(index);
      ++seized;
    }
    if (free_.size() < min_free_seen_) {
      min_free_seen_ = free_.size();
    }
    if (seized > 0) {
      reporter_.Report("allocator.pressure", ReportSeverity::kWarning,
                       "fault injection seized buffers");
    }
    return seized;
  }

  void ReleasePressure() {
    while (!pressured_.empty()) {
      int32_t index = pressured_.back();
      pressured_.pop_back();
      // DecRef takes the normal free path: direct handoff to the longest
      // parked requester first, free list otherwise.
      DecRef(index);
    }
  }

  size_t pressure_held() const { return pressured_.size(); }

  size_t capacity() const { return slots_.size(); }
  size_t free_count() const { return free_.size(); }
  size_t in_use() const { return slots_.size() - free_.size(); }
  uint64_t allocations() const { return allocations_; }
  uint64_t starvation_events() const { return starvation_events_; }
  size_t min_free_seen() const { return min_free_seen_; }

  // Reference count of a slot (testing/diagnostics).
  int RefCount(int32_t index) const { return slots_[static_cast<size_t>(index)].refs; }

 private:
  friend class PoolRef<T>;
  // Test-only peer (tests/check_test.cc): death tests drive the private
  // refcount mutators directly to prove the PANDORA_CHECKs fire.
  friend class BufferPoolPeer;

  struct Slot {
    T value;
    int refs = 0;
  };

  struct AllocateAwaiter {
    RefPool* pool;
    // Fast path only: await_ready and await_resume run on the same object
    // when no suspension intervenes (the Channel::RecvAwaiter rule).
    std::optional<PoolRef<T>> immediate;
    // Slow path: park until DecRef hands a freed buffer straight to us.  The
    // slot's reference count is already set to 1 by the handoff path.
    typename Channel<int32_t>::RecvAwaiter handoff;

    bool await_ready() {
      immediate = pool->TryAllocate();
      if (immediate.has_value()) {
        return true;
      }
      pool->OnStarved();
      return handoff.await_ready();
    }
    void await_suspend(std::coroutine_handle<> h) { handoff.await_suspend(h); }
    PoolRef<T> await_resume() {
      if (immediate.has_value()) {
        return std::move(*immediate);
      }
      return pool->AdoptHandoff(handoff.await_resume());
    }
  };

  void OnStarved() {
    ++starvation_events_;
    min_free_seen_ = 0;
    reporter_.Report("allocator.starved", ReportSeverity::kError,
                     "no buffers available; requester descheduled");
  }

  PoolRef<T> AdoptHandoff(int32_t index) {
    ++allocations_;
    return PoolRef<T>(this, index);
  }

  PoolRef<T> MakeRef(int32_t index) {
    Slot& slot = SlotAt(index);
    PANDORA_CHECK(slot.refs == 0, "allocating a buffer that is still referenced");
    slot.refs = 1;
    ++allocations_;
    return PoolRef<T>(this, index);
  }

  Slot& SlotAt(int32_t index) {
    PANDORA_CHECK(index >= 0 && static_cast<size_t>(index) < slots_.size(),
                  "buffer index out of range");
    return slots_[static_cast<size_t>(index)];
  }

  void IncRef(int32_t index) {
    Slot& slot = SlotAt(index);
    PANDORA_CHECK(slot.refs > 0, "IncRef on a buffer that was already freed");
    ++slot.refs;
  }

  void DecRef(int32_t index) {
    Slot& slot = SlotAt(index);
    PANDORA_CHECK(slot.refs > 0, "DecRef on a buffer that was already freed");
    if (--slot.refs > 0) {
      return;
    }
    // Scrub the buffer (type-specific, found by ADL): keep heap capacity
    // (real Pandora reuses fixed buffers) but drop contents so stale data
    // cannot leak between streams.
    PoolRecycle(slot.value);
    if (sched_->shutting_down()) {
      // Teardown: parked requesters' frames may already be gone; just free.
      free_.push_back(index);
      return;
    }
    if (handoff_.TrySend(index)) {
      // A starved requester was parked: the buffer goes straight to it.
      slot.refs = 1;
      return;
    }
    free_.push_back(index);
  }

  Scheduler* sched_;
  std::string name_;
  Reporter reporter_;
  std::vector<Slot> slots_;
  std::vector<int32_t> free_;
  // Buffers seized by InjectPressure (refs held at 1 until released).
  std::vector<int32_t> pressured_;
  // Direct handoff to parked allocators: DecRef passes a freed index
  // straight to the longest-waiting requester.
  Channel<int32_t> handoff_;
  uint64_t allocations_ = 0;
  uint64_t starvation_events_ = 0;
  size_t min_free_seen_;
};

// Recycle hook for the segment pools: stale payloads must not leak between
// streams sharing a buffer slot.
inline void PoolRecycle(Segment& segment) {
  segment.payload.clear();
  segment.compression_args.clear();
  segment.stream = kInvalidStream;
}

// The box-side pool of decoded segments, as in the paper's figure 3.3.
using BufferPool = RefPool<Segment>;
using SegmentRef = PoolRef<Segment>;

}  // namespace pandora

#endif  // PANDORA_SRC_BUFFER_POOL_H_
