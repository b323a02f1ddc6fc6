// Process: the top-level coroutine type for Pandora runtime processes.
//
// Pandora processes mirror the long-lived Occam processes of the paper: each
// board runs a mesh of communicating processes (input handlers, switches,
// buffers, mixers...) that exchange data over rendezvous channels.  A
// Process is a C++20 coroutine spawned onto a Scheduler; it may never
// terminate (device handlers "run for all time", section 3.4) or may finish
// after a bounded job (lifetimes "measured in microseconds").
#ifndef PANDORA_SRC_RUNTIME_PROCESS_H_
#define PANDORA_SRC_RUNTIME_PROCESS_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "src/buffer/frame_pool.h"
#include "src/runtime/time.h"
#include "src/trace/trace.h"

namespace pandora {

class Alt;
class Scheduler;

// Scheduling priority: the transputer has two hardware priority levels.
// Pandora runs output/device processes at high priority so that under
// overload, back-pressure pushes data loss towards the source (section
// 3.7.1).
enum class Priority : uint8_t {
  kHigh = 0,
  kLow = 1,
};

inline constexpr int kNumPriorities = 2;

// Per-process bookkeeping owned by the Scheduler.  Channel and timer
// awaitables park and ready processes through this record.
//
// Records live in a slab and are recycled the moment a process finishes
// (see Scheduler); `generation` ticks on every recycle so a ProcessHandle
// over a reused slot reads as done rather than aliasing the new occupant.
struct ProcessCtx {
  Scheduler* sched = nullptr;
  std::string name;

  // Top-level coroutine frame; destroyed by the Scheduler.
  std::coroutine_handle<> top;
  // Frame to resume at the next dispatch; null while the process runs.
  std::coroutine_handle<> resume_point;
  // The Alt this process is parked in, inside Select; null otherwise.  A
  // dispatch of a parked process first asks the Alt to rescan its guards
  // (Alt::Unpark) and resumes the frame only if one is ready.
  Alt* parked_alt = nullptr;

  // The small fields are grouped into one 16-byte run with no padding
  // holes: the slab holds one record per live process.
  bool done = false;
  bool queued = false;  // present in a ready queue
  // Set by Scheduler::KillProcesses before the frame is destroyed; channels
  // and pools consult it to sweep parked state the victim will never claim.
  bool killed = false;
  bool in_use = false;  // slab slot currently owns a spawned process
  Priority priority = Priority::kLow;
  // Timers created by WaitUntil that have not fired yet.  Their fire
  // closures hold this ProcessCtx by raw pointer, so the slot must not be
  // recycled while any are outstanding (a killed process can leave its
  // wakeup timer pending).
  int pending_timers = 0;
  // Cached trace site for this process's run-slice track (0 = uninterned).
  TraceSiteId trace_site = 0;
  std::exception_ptr error;
  uint64_t resumptions = 0;  // context switches into this process
  uint64_t generation = 0;   // bumped when the slot is recycled

  // Intrusive links, owned by the Scheduler: the ready queues, the slab
  // free list, and the active list (kept in spawn order so kill/shutdown
  // sweeps walk processes in the same order the old registry vector did).
  ProcessCtx* next_ready = nullptr;
  ProcessCtx* next_free = nullptr;
  ProcessCtx* prev_active = nullptr;
  ProcessCtx* next_active = nullptr;
};

// Coroutine return type for top-level processes.  A Process is inert until
// handed to Scheduler::Spawn, which takes ownership of the frame.
class Process {
 public:
  struct promise_type {
    ProcessCtx* ctx = nullptr;

    // Coroutine frames come from the frame pool: per-segment forwarder
    // churn (src/net/atm.cc, src/server/switch.cc) spawns one short-lived
    // frame per delivered segment, and recycling keeps that off malloc.
    static void* operator new(std::size_t n) {   // NOLINT(pandora-raw-new-delete)
      return FramePool::Allocate(n);
    }
    static void operator delete(void* p) noexcept {  // NOLINT(pandora-raw-new-delete)
      FramePool::Deallocate(p);
    }

    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      if (ctx != nullptr) {
        ctx->error = std::current_exception();
      } else {
        std::terminate();
      }
    }
  };

  Process(Process&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      if (handle_) {
        handle_.destroy();
      }
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() {
    if (handle_) {
      handle_.destroy();
    }
  }

 private:
  friend class Scheduler;
  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}

  std::coroutine_handle<promise_type> Release() { return std::exchange(handle_, nullptr); }

  std::coroutine_handle<promise_type> handle_;
};

// Lightweight observer of a spawned process, returned by Scheduler::Spawn.
// Carries the slot's generation at spawn time: once the process finishes
// and the scheduler recycles its ProcessCtx, the handle reads as done and
// every other accessor degrades gracefully instead of aliasing whatever
// process reuses the slot.
class ProcessHandle {
 public:
  ProcessHandle() = default;

  bool done() const { return ctx_ != nullptr && (stale() || ctx_->done); }
  const std::string& name() const {
    static const std::string kRecycled = "<done>";
    return stale() ? kRecycled : ctx_->name;
  }
  uint64_t resumptions() const { return stale() ? 0 : ctx_->resumptions; }

 private:
  friend class Scheduler;
  ProcessHandle(ProcessCtx* ctx, uint64_t generation) : ctx_(ctx), generation_(generation) {}

  bool stale() const { return ctx_ == nullptr || ctx_->generation != generation_; }

  ProcessCtx* ctx_ = nullptr;
  uint64_t generation_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_PROCESS_H_
