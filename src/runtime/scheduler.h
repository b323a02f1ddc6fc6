// Discrete-event cooperative scheduler with a simulated microsecond clock.
//
// Models the aspects of the Inmos transputer runtime that the Pandora design
// depends on (paper section 3.1): two hardware priority levels, very cheap
// context switches, channel rendezvous synchronisation and a timer with one
// microsecond resolution.  The clock only advances when no process is
// runnable, so an 8-second clawback experiment simulates in milliseconds of
// wall time, deterministically.
//
// The hot path is allocation-free in the steady state: timers are intrusive
// nodes in a hierarchical wheel (timer_wheel.h), timer callbacks are inline
// callables (callback.h), process records recycle through a slab the moment
// a process finishes, and ready queues are intrusive lists threaded through
// the records themselves.  See DESIGN.md section 10.
#ifndef PANDORA_SRC_RUNTIME_SCHEDULER_H_
#define PANDORA_SRC_RUNTIME_SCHEDULER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/runtime/callback.h"
#include "src/runtime/process.h"
#include "src/runtime/time.h"
#include "src/runtime/timer_wheel.h"
#include "src/trace/trace.h"

namespace pandora {

// Handle to a pending timer; allows cancellation (used by Alt timeouts).
// Holds the wheel node plus its arm `seq` (never reused), so cancelling after
// the timer fired (and the node was recycled into a new timer) is a no-op.
class TimerHandle {
 public:
  TimerHandle() = default;

  void Cancel() {
    if (wheel_ != nullptr) {
      wheel_->Cancel(node_, seq_);
      wheel_ = nullptr;
      node_ = nullptr;
    }
  }
  bool active() const { return wheel_ != nullptr && TimerWheel::IsActive(node_, seq_); }

 private:
  friend class Scheduler;
  TimerHandle(TimerWheel* wheel, TimerNode* node)
      : wheel_(wheel), node_(node), seq_(node->seq) {}

  TimerWheel* wheel_ = nullptr;
  TimerNode* node_ = nullptr;
  uint64_t seq_ = 0;
};

// Something (a channel) holding parked values that must be dropped when the
// scheduler stops the world.  A parked rendezvous value may reference
// resources (e.g. a SegmentRef into a BufferPool) that die before the
// channel object itself does; Shutdown() drains registered participants
// while those resources are still alive.
class ShutdownParticipant {
 public:
  // Called during Scheduler::Shutdown, after all coroutine frames have been
  // destroyed.  Drop parked values; nothing will run afterwards.
  virtual void OnSchedulerShutdown() = 0;

  // Kill-sweep hooks for Scheduler::KillProcesses (fault injection: a box
  // crash destroys its processes mid-run while the rest of the world keeps
  // going).  Victims are marked ctx->killed before either hook runs.
  //
  // Phase 1, before the victims' frames are destroyed: remove parked
  // *waiters* (receivers) belonging to killed processes, so that
  // destructors running during frame teardown (e.g. a SegmentRef returning
  // a buffer to its pool) cannot hand a value to a process that will never
  // resume.  Do not destroy values here.
  virtual void OnProcessesKilled() {}
  // Phase 2, after the victims' frames are destroyed: drop parked values
  // belonging to killed processes (a killed sender's payload, a delivery a
  // killed receiver never claimed).
  virtual void OnKilledFramesDestroyed() {}

 protected:
  ~ShutdownParticipant() = default;
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- Process management -------------------------------------------------

  // Takes ownership of the coroutine and queues it for execution.  The name
  // is copied into the (recycled) process record, so per-event spawn sites
  // should pass a precomputed string rather than concatenating one.
  ProcessHandle Spawn(Process process, std::string_view name, Priority priority = Priority::kLow);

  // The process currently being executed (valid only from inside awaitables
  // running on this scheduler).
  ProcessCtx* current() const { return current_; }

  // Moves a parked process back onto its ready queue.
  void Ready(ProcessCtx* ctx);

  // --- Clock & timers ------------------------------------------------------

  Time now() const { return now_; }

  // Schedules `fire` to run (in scheduler context, not process context) when
  // the clock reaches `when`.  The callback must fit TimerCallback's inline
  // budget (enforced at compile time).
  TimerHandle AddTimer(Time when, TimerCallback fire) {
    return TimerHandle(&wheel_, wheel_.Add(when, fire));
  }

  // Timers armed but not yet fired or cancelled (regression surface for the
  // cancel-unlink guarantee: cancelled timers leave immediately).
  size_t pending_timer_count() const { return wheel_.pending_count(); }

  // Simulated time of the next thing this scheduler would do: now() if any
  // process is runnable, else the earliest pending timer deadline (clamped
  // to now(); the clock never moves backwards), else kNever.  The ShardSet
  // conservative-sync loop derives each window from the minimum of these
  // across shards.
  Time NextEventTime() const {
    for (int p = 0; p < kNumPriorities; ++p) {
      if (ready_head_[p] != nullptr) {
        return now_;
      }
    }
    const Time deadline = wheel_.NextDeadline();
    if (deadline == kNever) {
      return kNever;
    }
    return deadline < now_ ? now_ : deadline;
  }

  // --- Running -------------------------------------------------------------

  // Runs until no process is runnable and no timer is pending.
  void RunUntilQuiescent();

  // Runs until the clock would pass `limit`; on return now() <= limit.  If
  // the system goes quiescent earlier, returns early with now() == limit
  // only when a timer or runnable work reached it; otherwise leaves the
  // clock at the quiescence point advanced to `limit`.
  void RunUntil(Time limit);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Destroys all live coroutine frames and pending timers.  Call before
  // destroying channels/pools that parked processes may reference; the
  // destructor calls it as a last resort.  Nothing may run afterwards.
  void Shutdown();
  bool shutting_down() const { return shutting_down_; }

  // Destroys the frames of every live process matching `predicate`, mid-run,
  // without stopping the world (fault injection: a crashing box takes down
  // exactly its own processes).  Parked state the victims left in channels
  // is swept via the ShutdownParticipant kill hooks; the victims' wakeup
  // timers are left to fire harmlessly.  Must not be called from inside a
  // process that matches the predicate.  Returns the number killed.
  size_t KillProcesses(const std::function<bool(const ProcessCtx&)>& predicate);

  // Channels register so Shutdown can drain their parked values (see
  // ShutdownParticipant).  Unregister is safe at any time, including from
  // inside another participant's OnSchedulerShutdown.
  void RegisterShutdownParticipant(ShutdownParticipant* participant);
  void UnregisterShutdownParticipant(ShutdownParticipant* participant);

  // --- Awaitables ----------------------------------------------------------

  // co_await sched.WaitUntil(t): suspend until the simulated clock reaches t.
  auto WaitUntil(Time when) {
    struct Awaiter {
      Scheduler* sched;
      Time when;
      bool await_ready() const { return when <= sched->now_; }
      void await_suspend(std::coroutine_handle<> h) {
        ProcessCtx* ctx = sched->current_;
        ctx->resume_point = h;
        // The closure holds ctx raw; pending_timers keeps the slab slot
        // from being recycled past a kill (see ProcessCtx::pending_timers).
        ++ctx->pending_timers;
        Scheduler* s = sched;
        sched->AddTimer(when, TimerCallback([s, ctx] { s->OnWaitTimerFired(ctx); }));
      }
      void await_resume() const {}
    };
    return Awaiter{this, when};
  }

  auto WaitFor(Duration d) { return WaitUntil(now_ + d); }

  // co_await sched.Yield(): requeue behind peers of the same priority.
  auto Yield() {
    struct Awaiter {
      Scheduler* sched;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ProcessCtx* ctx = sched->current_;
        ctx->resume_point = h;
        sched->Ready(ctx);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  // --- Telemetry -----------------------------------------------------------

  // The scheduler-owned trace recorder, bound to this scheduler's simulated
  // clock.  Always non-null; disabled (and therefore free) unless Enable()
  // was called or the PANDORA_TRACE environment variable was set at
  // construction (capacity override: PANDORA_TRACE_EVENTS).
  TraceRecorder* trace() const { return trace_.get(); }

  // --- Statistics ----------------------------------------------------------

  uint64_t context_switches() const { return context_switches_; }
  // Logical events handled: one per dispatch.  Kept beside
  // context_switches() because throughput reports name both.
  uint64_t events() const { return context_switches_; }
  size_t live_process_count() const { return live_processes_; }
  // Process records currently held (live, or finished or killed with
  // timers still pending).  Recycling keeps this near the live count
  // instead of growing with every spawn.
  size_t tracked_process_count() const { return in_use_processes_; }

 private:
  friend struct Process::promise_type::FinalAwaiter;

  void OnProcessDone(ProcessCtx* ctx);
  // Fired by WaitUntil's timer: releases the timer's pin on the slab slot
  // and either resumes the process or recycles a finished one.
  void OnWaitTimerFired(ProcessCtx* ctx);
  ProcessCtx* AllocCtx();
  void RecycleCtx(ProcessCtx* ctx);
  ProcessCtx* PopReady();
  // Runs one process slice; false if nothing is runnable.
  bool DispatchOne();
  // Fires timers due at or before `limit` after advancing the clock to the
  // earliest pending timer.  Returns false if no timer is pending within
  // `limit`.
  bool AdvanceToNextTimer(Time limit);

  Time now_ = 0;
  ProcessCtx* current_ = nullptr;
  // Intrusive FIFO ready queues, one per priority, linked via
  // ProcessCtx::next_ready.
  ProcessCtx* ready_head_[kNumPriorities] = {};
  ProcessCtx* ready_tail_[kNumPriorities] = {};
  TimerWheel wheel_;
  // Process slab: records are deque-backed (stable addresses), recycled
  // through an intrusive free list, and threaded onto an active list in
  // spawn order (kill/shutdown sweeps depend on that order).
  std::deque<ProcessCtx> process_slab_;
  ProcessCtx* free_ctx_ = nullptr;
  ProcessCtx* active_head_ = nullptr;
  ProcessCtx* active_tail_ = nullptr;
  size_t in_use_processes_ = 0;
  size_t live_processes_ = 0;
  uint64_t context_switches_ = 0;
  bool shutting_down_ = false;
  std::vector<ShutdownParticipant*> shutdown_participants_;
  std::unique_ptr<TraceRecorder> trace_;
  TraceSiteId trace_cs_site_ = 0;  // "sched.context_switches" counter
};

// Declare after the resources a test's processes reference and it will stop
// the world first:
//   Scheduler sched;
//   BufferPool pool(&sched, ...);
//   ShutdownGuard guard(&sched);  // destroyed first -> frames die before pool
class ShutdownGuard {
 public:
  explicit ShutdownGuard(Scheduler* sched) : sched_(sched) {}
  ~ShutdownGuard() { sched_->Shutdown(); }
  ShutdownGuard(const ShutdownGuard&) = delete;
  ShutdownGuard& operator=(const ShutdownGuard&) = delete;

 private:
  Scheduler* sched_;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_SCHEDULER_H_
