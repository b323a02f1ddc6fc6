#include "src/runtime/shard_set.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/runtime/check.h"
#include "src/trace/trace.h"

namespace pandora {

ShardSet::ShardSet(ShardSetOptions options) : options_(options) {
  PANDORA_CHECK(options_.shards >= 1, "a ShardSet needs at least one shard");
  PANDORA_CHECK(options_.lookahead >= 1,
                "conservative sync needs at least one microsecond of lookahead");
  threads_ = std::clamp(options_.threads, 1, options_.shards);
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Scheduler>());
  }
  outboxes_.resize(shards_.size());
  shard_errors_.resize(shards_.size());
  next_event_cache_.assign(shards_.size(), kNever);
  park_slots_.resize(static_cast<size_t>(threads_));
  spin_ = static_cast<unsigned>(threads_) <= std::thread::hardware_concurrency();
  helpers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    helpers_.emplace_back([this, w] { HelperMain(w); });
  }
}

ShardSet::~ShardSet() {
  StopHelpers();
  Shutdown();
}

void ShardSet::Post(int src, int dst, Time when, TimerCallback fire) {
  PANDORA_CHECK(src >= 0 && src < shard_count(), "Post: source shard out of range");
  PANDORA_CHECK(dst >= 0 && dst < shard_count(), "Post: destination shard out of range");
  if (src == dst) {
    // Shard-local: arm directly, keeping the legacy arm-order FIFO semantics
    // (and, with shards=1, bit-identical behaviour to a bare Scheduler).
    shards_[static_cast<size_t>(dst)]->AddTimer(when, fire);
    return;
  }
  // Lookahead contract: the destination may already have run up to
  // window_end_, so a delivery at or before it would rewrite history.
  PANDORA_CHECK(when > window_end_,
                "cross-shard Post inside the conservative window (latency < lookahead?)");
  PANDORA_CHECK(when >= shards_[static_cast<size_t>(src)]->now(),
                "cross-shard Post into the source shard's past");
  Outbox& outbox = outboxes_[static_cast<size_t>(src)];
  ++outbox.posts;
  outbox.entries.emplace_back(when, dst, fire);
}

void ShardSet::PostGlobal(Time when, TimerCallback fire) {
  if (legacy()) {
    // One shard: a stop-the-world instant is just a timer on the only world
    // there is.  Bit-identical to the pre-shard engine by construction.
    shards_[0]->AddTimer(when, fire);
    return;
  }
  PANDORA_CHECK(when >= window_end_,
                "PostGlobal into an already-executed window would rewrite history");
  GlobalEvent event;
  event.when = when;
  event.seq = next_global_seq_++;
  event.fire = fire;
  global_events_.push_back(event);
  std::push_heap(global_events_.begin(), global_events_.end(), GlobalEventLater());
}

void ShardSet::AddBarrierTask(ShardBarrierTask* task) {
  PANDORA_CHECK(task != nullptr);
  barrier_tasks_.push_back(task);
}

void ShardSet::RemoveBarrierTask(ShardBarrierTask* task) {
  for (size_t i = 0; i < barrier_tasks_.size(); ++i) {
    if (barrier_tasks_[i] == task) {
      barrier_tasks_.erase(barrier_tasks_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void ShardSet::RunGlobalEvents(Time upto) {
  while (!global_events_.empty() && global_events_.front().when <= upto) {
    std::pop_heap(global_events_.begin(), global_events_.end(), GlobalEventLater());
    GlobalEvent event = global_events_.back();
    global_events_.pop_back();
    // May PostGlobal again (heap push mid-loop is fine) and may mutate any
    // shard: every helper is waiting and every clock has reached event.when.
    event.fire();
  }
}

void ShardSet::RunBarrierTasks() {
  for (ShardBarrierTask* task : barrier_tasks_) {
    task->OnShardBarrier();
  }
}

void ShardSet::DrainMailboxes() {
  // The wheel orders distinct deadlines itself, and its cursor does not move
  // during a drain, so equal-deadline entries land in one slot (or in the
  // overflow heap, ordered by arm sequence) and fire FIFO in the (src, seq)
  // order armed here (timer_wheel.h).
  size_t drained = 0;
  for (Outbox& outbox : outboxes_) {
    for (const MailboxEntry& entry : outbox.entries) {
      shards_[static_cast<size_t>(entry.dst)]->AddTimer(entry.when, entry.fire);
    }
    drained += outbox.entries.size();
    outbox.entries.clear();  // keeps capacity: steady-state drains don't allocate
  }
  if (drained == 0) {
    ++empty_mailbox_barriers_;
  }
  cross_shard_messages_ += drained;
}

Time ShardSet::MinNextEvent() {
  Time t = kNever;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Time next = shards_[i]->NextEventTime();
    next_event_cache_[i] = next;
    t = next < t ? next : t;
  }
  return t;
}

namespace {

// Pause iterations a barrier wait spins before parking (about 0.2 ms on a
// 4-core Xeon at 13.5 ns per pause).  The spin must outlast a futex wake:
// with a shorter one, a waiter that parked once wakes too late for its
// partner's spin, the partner parks too, and both stay in the slow
// park/wake regime (E19's 2-thread row fell to 0.1x of 1 thread).
constexpr int kSpinIterations = 1 << 14;
// The spin yields every this many pauses.  After a futex wake the kernel
// may place the woken thread on the waker's core; yielding lets it run
// there instead of waiting out the spinner's time slice.
constexpr int kYieldEvery = 256;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

template <typename T, typename Done>
T ShardSet::Await(const std::atomic<T>& word, Done done, int worker) {
  T value = word.load(std::memory_order_acquire);
  if (spin_) {
    for (int i = 1; i <= kSpinIterations && !done(value); ++i) {
      CpuRelax();
      if (i % kYieldEvery == 0) {
        std::this_thread::yield();
      }
      value = word.load(std::memory_order_acquire);
    }
  }
  if (done(value)) {
    return value;
  }
  do {
    word.wait(value, std::memory_order_acquire);
    value = word.load(std::memory_order_acquire);
  } while (!done(value));
  // Counted after the wake: a helper's count then precedes its next busy_
  // decrement, so the coordinator's barrier_parks() never races it.
  ++park_slots_[static_cast<size_t>(worker)].parks;
  return value;
}

void ShardSet::RunWorkerShards(int worker) {
  // Static assignment: shard i always runs on worker i % threads, so
  // results cannot depend on which worker drains faster and each shard's
  // frame churn stays on one thread's FramePool free lists.
  for (int i = worker; i < shard_count(); i += threads_) {
    const size_t s = static_cast<size_t>(i);
    if (skip_idle_ && next_event_cache_[s] > window_end_) {
      continue;  // provably nothing due in the window; see RunWindow's doc
    }
    try {
      shards_[s]->RunUntil(window_end_);
    } catch (...) {
      shard_errors_[s] = std::current_exception();
    }
  }
}

void ShardSet::RunWindow(Time window_end, bool allow_idle_skip) {
  ++windows_;
  if (allow_idle_skip) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (next_event_cache_[i] > window_end) {
        ++idle_shard_skips_;
      }
    }
  }
  window_end_ = window_end;
  skip_idle_ = allow_idle_skip;
  if (helpers_.empty()) {
    RunWorkerShards(0);
  } else {
    busy_.store(threads_ - 1, std::memory_order_relaxed);
    // Publishes window_end_, skip_idle_, next_event_cache_ and every timer
    // the drain armed.  An RMW, so it is ordered before notify_all's check
    // for parked waiters.
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    RunWorkerShards(0);
    Await(busy_, [](int32_t busy) { return busy == 0; }, 0);
  }
  RethrowFirstShardError();
}

void ShardSet::HelperMain(int worker) {
  uint32_t seen = 0;
  for (;;) {
    seen = Await(epoch_, [seen](uint32_t epoch) { return epoch != seen; }, worker);
    if (stop_) {
      return;
    }
    RunWorkerShards(worker);
    if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      busy_.notify_one();
    }
  }
}

void ShardSet::RethrowFirstShardError() {
  std::exception_ptr first;
  // Lowest shard index wins, every time: which error escapes must not depend
  // on thread timing.  Later shards' errors are dropped, matching a single
  // Scheduler run that stops at its first escaping exception.
  for (std::exception_ptr& err : shard_errors_) {
    if (err != nullptr) {
      if (first == nullptr) {
        first = err;
      }
      err = nullptr;
    }
  }
  if (first != nullptr) {
    std::rethrow_exception(first);
  }
}

void ShardSet::RunUntilQuiescent() {
  if (legacy()) {
    shards_[0]->RunUntilQuiescent();
    return;
  }
  RunWindows(kNever);
  // Idle-skipped shards' clocks may lag the last window; catch them up so
  // every clock (and so now()) reports the same quiescence point a
  // non-skipping run would.  No events fire: everything is quiescent.
  for (auto& shard : shards_) {
    shard->RunUntil(window_end_);
  }
}

void ShardSet::RunUntil(Time limit) {
  if (legacy()) {
    shards_[0]->RunUntil(limit);
    return;
  }
  RunWindows(limit);
  // Nothing left at or before `limit`: advance every clock to the limit so
  // callers see the same now() a bare Scheduler would report.  Inline on the
  // coordinator — no events fire, the barrier already synchronised.
  for (auto& shard : shards_) {
    shard->RunUntil(limit);
  }
  window_end_ = limit > window_end_ ? limit : window_end_;
}

void ShardSet::RunWindows(Time limit) {
  for (;;) {
    DrainMailboxes();
    const Time t_min = MinNextEvent();
    const Time g = NextGlobalTime();
    const Time next = g < t_min ? g : t_min;
    if (next == kNever || next > limit) {
      return;
    }
    // A global due first is a stop-the-world instant: advance every shard
    // through g (shard events at g dispatch first, on their own shards),
    // then run the due globals on this thread while the helpers wait.  An
    // ordinary window runs one lookahead past the earliest event, never past
    // `limit` and never into a pending global.
    const bool global = g <= t_min;
    Time window_end = g;
    if (!global) {
      window_end = t_min + options_.lookahead - 1;
      if (window_end < t_min) {
        // Arithmetic overflow near kNever: RunUntil runs to its limit,
        // quiescence only through the earliest event.
        window_end = limit == kNever ? t_min : limit;
      }
      window_end = std::min({window_end, limit, g - 1});
    }
    RunWindow(window_end, /*allow_idle_skip=*/!global);
    RunBarrierTasks();
    if (global) {
      RunGlobalEvents(g);
    }
  }
}

void ShardSet::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  // Undelivered mailbox entries die with the world; their captures are
  // trivially-copyable by TimerCallback's contract, so dropping is safe.
  for (Outbox& outbox : outboxes_) {
    outbox.entries.clear();
  }
  global_events_.clear();
  for (auto& shard : shards_) {
    shard->Shutdown();
  }
}

uint64_t ShardSet::barrier_parks() const {
  uint64_t parks = 0;
  for (const ParkSlot& slot : park_slots_) {
    parks += slot.parks;
  }
  return parks;
}

uint64_t ShardSet::ShardDigest(int i) const {
  PANDORA_CHECK(i >= 0 && i < shard_count());
  const Scheduler& shard = *shards_[static_cast<size_t>(i)];
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(shard.context_switches());
  mix(static_cast<uint64_t>(shard.now()));
  mix(shard.pending_timer_count());
  mix(shard.live_process_count());
  mix(outboxes_[static_cast<size_t>(i)].posts);
  return h;
}

void ShardSet::EnableTrace(size_t max_events_per_shard) {
  for (auto& shard : shards_) {
    shard->trace()->Enable(max_events_per_shard);
  }
}

void ShardSet::MergeTracesInto(TraceRecorder* merged) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    merged->MergeFrom(*shards_[i]->trace(), "s" + std::to_string(i) + ":");
  }
}

std::string ShardSet::ExportMergedTraceJson() const {
  TraceRecorder merged;
  MergeTracesInto(&merged);
  return merged.ExportJson();
}

bool ShardSet::ExportMergedTraceTo(const std::string& path) const {
  TraceRecorder merged;
  MergeTracesInto(&merged);
  return merged.ExportJsonTo(path);
}

void ShardSet::StopHelpers() {
  if (helpers_.empty()) {
    return;
  }
  stop_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& helper : helpers_) {
    helper.join();
  }
  helpers_.clear();
}

}  // namespace pandora
