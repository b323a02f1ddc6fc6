#include "src/runtime/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/runtime/alt.h"
#include "src/runtime/check.h"

namespace pandora {

void Process::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  ProcessCtx* ctx = h.promise().ctx;
  ctx->sched->OnProcessDone(ctx);
}

Scheduler::Scheduler() : trace_(std::make_unique<TraceRecorder>()) {
  trace_->BindClock(&now_);
  // Opt-in tracing without touching code: PANDORA_TRACE=1 enables the
  // recorder for every scheduler in the process; PANDORA_TRACE_EVENTS caps
  // the event reservation.
  const char* env = std::getenv("PANDORA_TRACE");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
    size_t capacity = TraceRecorder::kDefaultCapacity;
    if (const char* cap_env = std::getenv("PANDORA_TRACE_EVENTS")) {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(cap_env, &end, 10);
      if (end != cap_env && parsed > 0) {
        capacity = static_cast<size_t>(parsed);
      }
    }
    trace_->Enable(capacity);
  }
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  shutting_down_ = true;
  // Destroying a frame runs destructors of objects held inside it (e.g.
  // SegmentRefs, which return buffers to their pool); Ready() is a no-op
  // during shutdown so nothing gets queued.  Walk the active list in spawn
  // order, the order the old registry vector used.
  ProcessCtx* ctx = active_head_;
  while (ctx != nullptr) {
    ProcessCtx* next = ctx->next_active;
    if (!ctx->done && ctx->top) {
      ctx->top.destroy();
      ctx->top = nullptr;
      ctx->done = true;
      --live_processes_;
    }
    ctx = next;
  }
  for (int p = 0; p < kNumPriorities; ++p) {
    ProcessCtx* queued = ready_head_[p];
    while (queued != nullptr) {
      ProcessCtx* next = queued->next_ready;
      queued->queued = false;
      queued->next_ready = nullptr;
      queued = next;
    }
    ready_head_[p] = ready_tail_[p] = nullptr;
  }
  wheel_.Clear();
  // Frames are gone, but rendezvous values parked inside channels are not:
  // they live in the channel object, not the coroutine frame, and may hold
  // SegmentRefs into pools that die before the channel does.  Drain them now,
  // while every pool is still alive.  Iterate over a snapshot: dropping a
  // parked value can destroy another channel (e.g. one owned by a parked
  // object), which unregisters mid-walk.
  std::vector<ShutdownParticipant*> snapshot = shutdown_participants_;
  for (ShutdownParticipant* participant : snapshot) {
    if (std::find(shutdown_participants_.begin(), shutdown_participants_.end(), participant) !=
        shutdown_participants_.end()) {
      participant->OnSchedulerShutdown();
    }
  }
}

void Scheduler::RegisterShutdownParticipant(ShutdownParticipant* participant) {
  shutdown_participants_.push_back(participant);
}

void Scheduler::UnregisterShutdownParticipant(ShutdownParticipant* participant) {
  auto it = std::find(shutdown_participants_.begin(), shutdown_participants_.end(), participant);
  if (it != shutdown_participants_.end()) {
    *it = shutdown_participants_.back();
    shutdown_participants_.pop_back();
  }
}

ProcessCtx* Scheduler::AllocCtx() {
  ProcessCtx* ctx;
  if (free_ctx_ != nullptr) {
    ctx = free_ctx_;
    free_ctx_ = ctx->next_free;
    ctx->next_free = nullptr;
  } else {
    process_slab_.emplace_back();
    ctx = &process_slab_.back();
  }
  PANDORA_DCHECK(!ctx->in_use && ctx->pending_timers == 0);
  ctx->in_use = true;
  // Append to the active list: spawn order, which kill/shutdown sweeps walk.
  ctx->prev_active = active_tail_;
  ctx->next_active = nullptr;
  if (active_tail_ != nullptr) {
    active_tail_->next_active = ctx;
  } else {
    active_head_ = ctx;
  }
  active_tail_ = ctx;
  ++in_use_processes_;
  return ctx;
}

void Scheduler::RecycleCtx(ProcessCtx* ctx) {
  PANDORA_DCHECK(ctx->in_use && ctx->done && ctx->pending_timers == 0);
  // A frame destroyed while parked in Select cleared this in ~Alt.
  PANDORA_DCHECK(ctx->parked_alt == nullptr);
  if (ctx->prev_active != nullptr) {
    ctx->prev_active->next_active = ctx->next_active;
  } else {
    active_head_ = ctx->next_active;
  }
  if (ctx->next_active != nullptr) {
    ctx->next_active->prev_active = ctx->prev_active;
  } else {
    active_tail_ = ctx->prev_active;
  }
  ctx->prev_active = ctx->next_active = nullptr;
  // Outstanding ProcessHandles see the bump and report done.
  ++ctx->generation;
  ctx->in_use = false;
  ctx->done = false;
  ctx->queued = false;
  ctx->killed = false;
  ctx->error = nullptr;
  ctx->top = nullptr;
  ctx->resume_point = nullptr;
  ctx->resumptions = 0;
  ctx->trace_site = 0;
  // ctx->name keeps its capacity for the next occupant's assign().
  ctx->next_free = free_ctx_;
  free_ctx_ = ctx;
  --in_use_processes_;
}

ProcessHandle Scheduler::Spawn(Process process, std::string_view name, Priority priority) {
  auto handle = process.Release();
  ProcessCtx* ctx = AllocCtx();
  ctx->sched = this;
  ctx->name.assign(name.data(), name.size());
  ctx->priority = priority;
  ctx->top = handle;
  ctx->resume_point = handle;
  handle.promise().ctx = ctx;

  ++live_processes_;
  Ready(ctx);
  return ProcessHandle(ctx, ctx->generation);
}

void Scheduler::Ready(ProcessCtx* ctx) {
  PANDORA_CHECK(ctx != nullptr);
  if (shutting_down_ || ctx->done || ctx->killed || ctx->queued) {
    return;
  }
  ctx->queued = true;
  ctx->next_ready = nullptr;
  const int p = static_cast<int>(ctx->priority);
  if (ready_tail_[p] != nullptr) {
    ready_tail_[p]->next_ready = ctx;
  } else {
    ready_head_[p] = ctx;
  }
  ready_tail_[p] = ctx;
}

size_t Scheduler::KillProcesses(const std::function<bool(const ProcessCtx&)>& predicate) {
  // Mark every victim first: the sweep hooks and the destructors that run
  // during frame teardown identify doomed processes by ctx->killed.  The
  // active list is in spawn order, matching the old registry order.
  std::vector<ProcessCtx*> victims;
  for (ProcessCtx* ctx = active_head_; ctx != nullptr; ctx = ctx->next_active) {
    if (!ctx->done && ctx->top && predicate(*ctx)) {
      PANDORA_CHECK(ctx != current_, "a process cannot kill itself");
      ctx->killed = true;
      victims.push_back(ctx);
    }
  }
  if (victims.empty()) {
    return 0;
  }
  // Phase 1: pull killed receivers out of every channel while no frame has
  // been touched yet.  Once they are gone, a DecRef running inside a frame
  // destructor below cannot hand a buffer to a process that will never
  // resume to claim it.  Snapshot: destroying frames can destroy channels.
  std::vector<ShutdownParticipant*> snapshot = shutdown_participants_;
  for (ShutdownParticipant* participant : snapshot) {
    if (std::find(shutdown_participants_.begin(), shutdown_participants_.end(), participant) !=
        shutdown_participants_.end()) {
      participant->OnProcessesKilled();
    }
  }
  // Destroy the victims' frames.  This runs the destructors of everything
  // the frame holds: SegmentRefs go back to their pools, Alts unregister
  // from their guard channels.
  for (ProcessCtx* ctx : victims) {
    ctx->top.destroy();
    ctx->top = nullptr;
    ctx->done = true;
    --live_processes_;
  }
  for (int p = 0; p < kNumPriorities; ++p) {
    ProcessCtx* kept_head = nullptr;
    ProcessCtx* kept_tail = nullptr;
    ProcessCtx* queued = ready_head_[p];
    while (queued != nullptr) {
      ProcessCtx* next = queued->next_ready;
      queued->next_ready = nullptr;
      if (queued->killed) {
        queued->queued = false;
      } else if (kept_tail != nullptr) {
        kept_tail->next_ready = queued;
        kept_tail = queued;
      } else {
        kept_head = kept_tail = queued;
      }
      queued = next;
    }
    ready_head_[p] = kept_head;
    ready_tail_[p] = kept_tail;
  }
  // Phase 2: drop the values the victims parked (sender payloads, unclaimed
  // deliveries).  Pools are still alive, so dropping a SegmentRef here is a
  // normal DecRef — and with the killed receivers already removed it can
  // only hand off to live requesters.
  snapshot = shutdown_participants_;
  for (ShutdownParticipant* participant : snapshot) {
    if (std::find(shutdown_participants_.begin(), shutdown_participants_.end(), participant) !=
        shutdown_participants_.end()) {
      participant->OnKilledFramesDestroyed();
    }
  }
  // Victims with a pending wakeup timer stay pinned until it fires (the
  // timer closure holds the ctx raw); the rest recycle now.
  const size_t killed = victims.size();
  for (ProcessCtx* ctx : victims) {
    if (ctx->pending_timers == 0 && !ctx->error) {
      RecycleCtx(ctx);
    }
  }
  return killed;
}

void Scheduler::OnProcessDone(ProcessCtx* ctx) {
  ctx->done = true;
  --live_processes_;
}

void Scheduler::OnWaitTimerFired(ProcessCtx* ctx) {
  --ctx->pending_timers;
  if (ctx->done) {
    // Killed while its wakeup was pending: the last outstanding timer
    // releases the slab slot.
    if (ctx->in_use && ctx->pending_timers == 0 && !ctx->error) {
      RecycleCtx(ctx);
    }
    return;
  }
  Ready(ctx);
}

ProcessCtx* Scheduler::PopReady() {
  for (int p = 0; p < kNumPriorities; ++p) {
    ProcessCtx* ctx = ready_head_[p];
    if (ctx != nullptr) {
      ready_head_[p] = ctx->next_ready;
      if (ready_head_[p] == nullptr) {
        ready_tail_[p] = nullptr;
      }
      ctx->next_ready = nullptr;
      ctx->queued = false;
      return ctx;
    }
  }
  return nullptr;
}

bool Scheduler::DispatchOne() {
  ProcessCtx* ctx = PopReady();
  if (ctx == nullptr) {
    return false;
  }
  current_ = ctx;
  ++context_switches_;
  ++ctx->resumptions;
  // Run slices bracket the resume on the process's own track; nested trace
  // events recorded from inside the slice land between B and E at the same
  // simulated timestamp, which the stable export sort preserves.
  PANDORA_TRACE_BEGIN(trace_.get(), ctx->trace_site, ctx->name);
  // A process parked in Alt::Select resumes only if a guard is still ready.
  // After a lost race the Alt has re-parked it, and the dispatch still
  // counts: a lost race costs one dispatch (DESIGN.md §10.6).
  if (ctx->parked_alt == nullptr || ctx->parked_alt->Unpark()) {
    std::coroutine_handle<> h = std::exchange(ctx->resume_point, nullptr);
    PANDORA_CHECK(h != nullptr, "readied process has no resume point");
    h.resume();
  }
  current_ = nullptr;
  PANDORA_TRACE_END(trace_.get(), ctx->trace_site);
  if ((context_switches_ & 63) == 0) {
    PANDORA_TRACE_COUNTER(trace_.get(), trace_cs_site_, "sched.context_switches",
                          static_cast<int64_t>(context_switches_));
  }
  if (ctx->done && ctx->top) {
    ctx->top.destroy();
    ctx->top = nullptr;
    if (ctx->error) {
      // An unhandled exception escaping a process is re-thrown out of the
      // Run* call that observed it.
      std::exception_ptr error = std::exchange(ctx->error, nullptr);
      if (ctx->pending_timers == 0) {
        RecycleCtx(ctx);
      }
      std::rethrow_exception(error);
    }
    if (ctx->pending_timers == 0) {
      // The common exit: the record returns to the slab immediately.
      RecycleCtx(ctx);
    }
  }
  return true;
}

bool Scheduler::AdvanceToNextTimer(Time limit) {
  TimerWheel::Due due = wheel_.PopDue(limit);
  if (!due.found) {
    return false;
  }
  if (due.when > now_) {
    now_ = due.when;
  }
  due.fire();
  return true;
}

void Scheduler::RunUntilQuiescent() {
  for (;;) {
    while (DispatchOne()) {
    }
    if (!AdvanceToNextTimer(kNever)) {
      return;
    }
  }
}

void Scheduler::RunUntil(Time limit) {
  for (;;) {
    while (DispatchOne()) {
    }
    if (!AdvanceToNextTimer(limit)) {
      break;
    }
  }
  if (now_ < limit) {
    now_ = limit;
  }
}

}  // namespace pandora
