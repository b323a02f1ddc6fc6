// ShardSet: the sharded M:N parallel scheduler (ROADMAP item 1).
//
// The paper's Pandora boxes are independent machines on an ATM LAN; the
// reproduction so far multiplexed every box onto one single-threaded
// event loop.  A ShardSet partitions the simulation into *shards* — each
// shard is a full Scheduler (its own timer wheel, process slab, ready
// queues, trace recorder, and, via thread-local FramePool free lists, its
// own coroutine-frame recycler) — and executes them on OS worker threads
// under conservative time synchronization:
//
//   window    All shards agree on a horizon W = min(next event over all
//             shards) + lookahead - 1 and run [.., W] in parallel, each on
//             its own worker, touching only its own state.  The calling
//             thread (the coordinator) is worker 0 and runs its own share.
//   barrier   Workers rendezvous on an epoch barrier (spin, then park); the
//             coordinator drains every outbox.
//   drain     Cross-shard messages (per-source outbox entries, in post
//             order) are armed as ordinary timers on their destination
//             shards, outbox by outbox in source-shard order.  The wheel
//             does the merge: it orders distinct deadlines itself and fires
//             equal ones FIFO, so dispatch follows (deliver_time, src_shard,
//             post order) without a sort.
//
// Safety: a cross-shard message produced by an event at time t carries a
// delivery time >= t + lookahead.  Every event in the window satisfies
// t >= min(next event) = W - lookahead + 1, so deliveries land strictly
// after W — no shard can have run past a message it should have seen.
// Lookahead therefore must not exceed the minimum cross-shard link latency;
// in the Pandora world that latency comes free from LinkRelay/HopQuality
// (cross-shard traffic always crosses a link with nonzero delay).
//
// Determinism: within a window each shard's dispatch order is a pure
// function of its own state (the Scheduler is sequential); the drain order
// is a pure function of each outbox's contents and its source index, and
// each outbox is filled by its source shard's own deterministic execution.
// Thread count and OS scheduling therefore cannot perturb dispatch order:
// threads=1 and threads=8 replay byte-identically, which
// tests/shard_determinism_test.cc pins.
//
// Legacy mode: shards=1 bypasses the window machinery entirely —
// RunUntil/RunFor delegate straight to the single Scheduler and Post arms a
// plain timer — so a one-shard ShardSet is bit-identical to the pre-shard
// engine (the existing chaos/overlay goldens run unchanged through it).
//
// This header and shard_set.cc are the single sanctioned home of OS
// threading primitives inside src/ (pandora-lint thread-primitives rule):
// worker threads never touch simulation state outside the barrier protocol.
#ifndef PANDORA_SRC_RUNTIME_SHARD_SET_H_
#define PANDORA_SRC_RUNTIME_SHARD_SET_H_

// This file is on pandora-lint's THREAD_SANCTIONED_FILES list: the thread
// primitives below are the reason the ban exists everywhere else.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/callback.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/time.h"

namespace pandora {

// Coordinator-side callback run at every window barrier (multi-shard mode
// only), with every helper thread waiting for the next window.  The
// cross-shard data plane uses it to reclaim transfer records whose
// consumption the barrier just made visible.
// Not an std::function member by design: the timer hot path and the lint
// rule both want fixed-size callables, and barrier tasks are long-lived
// objects anyway.
class ShardBarrierTask {
 public:
  virtual ~ShardBarrierTask() = default;
  virtual void OnShardBarrier() = 0;
};

struct ShardSetOptions {
  // Number of shards (independent Schedulers).  1 = legacy single-engine
  // mode, bit-identical to a bare Scheduler.
  int shards = 1;
  // Threads executing the shards, counting the calling thread: worker 0 is
  // the coordinator itself, so threads - 1 helper threads are started.
  // Clamped to [1, shards].  Shard i is statically assigned to worker
  // i % threads, so a shard's frame-pool churn stays on one thread's free
  // lists and results never depend on which worker finishes first.
  int threads = 1;
  // Conservative-sync lookahead.  Must be <= the minimum cross-shard
  // message latency (Post enforces per message); larger lookahead = fewer
  // barriers.
  Duration lookahead = Millis(1);
};

class ShardSet {
 public:
  explicit ShardSet(ShardSetOptions options = {});
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Duration lookahead() const { return options_.lookahead; }

  Scheduler& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const Scheduler& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }
  // Legacy accessor: the facade scheduler existing single-shard callers use.
  Scheduler& scheduler() { return shard(0); }

  // All shard clocks agree at every barrier (and after every Run* call).
  Time now() const { return shard(0).now(); }

  // Queues `fire` to run on shard `dst` at simulated time `when`, appended
  // to the source shard's outbox (its post order is the tie-break among
  // equal-deadline deliveries from that source).  Must be called
  // either from code executing on shard `src` (its worker owns the outbox
  // row during a window) or from the coordinating thread between Run*
  // calls.  Cross-shard deliveries must respect the lookahead contract:
  // `when` must lie strictly beyond the current window (checked).
  // Same-shard posts arm a plain timer immediately, preserving the legacy
  // arm-order semantics shard-local traffic always had.
  void Post(int src, int dst, Time when, TimerCallback fire);

  // Queues `fire` to run on the *coordinator* at simulated time `when`, with
  // every helper waiting at a barrier and every shard clock advanced exactly
  // to `when` — a deterministic stop-the-world instant.  Unlike Post, the
  // callback may therefore touch state on any shard (crash a box here, close
  // a circuit there): the barrier provides the happens-before edges in both
  // directions.  Global events are ordered by (when, submission seq); the
  // window loop never runs a shard past a pending global.  May be called
  // from the coordinator between Run* calls or from inside another global
  // callback (e.g. a fault driver re-arming its next step) — never from a
  // shard worker.  `when` must not precede the most recent window
  // (rewriting history is checked, exactly like Post).  In legacy mode this
  // is a plain shard-0 timer, preserving single-engine semantics.
  void PostGlobal(Time when, TimerCallback fire);

  // Registers a barrier task (not owned; must outlive the set or be removed).
  // No-op scaffolding in legacy mode: barriers never happen there.
  void AddBarrierTask(ShardBarrierTask* task);
  void RemoveBarrierTask(ShardBarrierTask* task);

  // Runs windows until every shard is quiescent and all mailboxes are empty.
  void RunUntilQuiescent();
  // Runs windows until the simulated clock reaches `limit`; on return every
  // shard's now() == limit (or the quiescence point advanced to limit).
  void RunUntil(Time limit);
  void RunFor(Duration d) { RunUntil(now() + d); }

  // Destroys all shards' live frames and timers (shard-index order) and
  // drops undelivered mailbox entries.  Joins nothing: helpers stay parked
  // for reuse until destruction.
  void Shutdown();

  // --- Introspection ---------------------------------------------------------

  // Barrier rounds executed (0 in legacy mode).
  uint64_t windows() const { return windows_; }
  // Cross-shard mailbox entries delivered to destination wheels.
  uint64_t cross_shard_messages() const { return cross_shard_messages_; }
  // Per-shard window runs skipped because the shard provably had no event in
  // the window (idle fast path); each skip saves a RunUntil invocation.
  uint64_t idle_shard_skips() const { return idle_shard_skips_; }
  // Barriers where every outbox was empty (nothing to arm).
  uint64_t empty_mailbox_barriers() const { return empty_mailbox_barriers_; }
  // Barrier waits (coordinator or helper) that outlasted their spin and
  // parked in std::atomic::wait.  Wall-time behaviour, not simulation
  // state: it varies run to run and is 0 without helper threads.
  uint64_t barrier_parks() const;

  // Order-sensitive digest of one shard's execution so far: folds context
  // switches, clock, and cross-shard post count.  Equal digests across two
  // runs mean the shard dispatched the same number of slices to the same
  // simulated time with the same cross-shard traffic — the cheap half of
  // the determinism story (tests fold per-message observables on top).
  uint64_t ShardDigest(int i) const;

  // Enables every shard's trace recorder (per-shard buffers; merged on
  // export so one Perfetto timeline shows all shards as separate tracks).
  void EnableTrace(size_t max_events_per_shard);
  std::string ExportMergedTraceJson() const;
  bool ExportMergedTraceTo(const std::string& path) const;

 private:
  // Source shard and send order are implicit: the outbox row and the
  // entry's position in it.
  struct MailboxEntry {
    Time when = 0;
    int32_t dst = 0;
    TimerCallback fire;
  };
  static_assert(sizeof(MailboxEntry) <= 48);

  // Per-source outbox row.  A row is written only by the worker executing
  // its shard (or the coordinator between windows) and drained only by the
  // coordinator at a barrier, so rows need no locks: the helper's busy_
  // decrement (release) and the coordinator's busy_ == 0 load (acquire)
  // order every write of the window before the drain.
  struct Outbox {
    std::vector<MailboxEntry> entries;
    uint64_t posts = 0;  // cross-shard posts so far (folded into ShardDigest)
  };

  // A stop-the-world callback and its total order key.  Kept in a min-heap
  // over (when, seq): submission order breaks time ties, so replay is exact.
  struct GlobalEvent {
    Time when = 0;
    uint64_t seq = 0;
    TimerCallback fire;
  };
  struct GlobalEventLater {
    bool operator()(const GlobalEvent& a, const GlobalEvent& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  bool legacy() const { return shards_.size() == 1; }
  Time NextGlobalTime() const {
    return global_events_.empty() ? kNever : global_events_.front().when;
  }
  // Pops and runs every global event with when <= upto (coordinator context,
  // helpers waiting, all shard clocks == upto or beyond their last event).
  void RunGlobalEvents(Time upto);
  void RunBarrierTasks();
  // Arms every outbox's entries into their destination wheels — outboxes in
  // source-shard order, each in post order — and empties them.  The wheels'
  // deadline order and equal-deadline FIFO turn that arm order into
  // (when, src, seq) dispatch order.
  void DrainMailboxes();
  // Earliest next event over all shards (mailboxes are already drained into
  // wheels, so shard NextEventTime covers them).  Also refreshes
  // next_event_cache_, which the immediately following RunWindow uses to
  // skip shards with nothing due in the window.
  Time MinNextEvent();
  // Runs one window [.., window_end] across all shards — worker 0's share on
  // this thread, the rest on the helpers — and rethrows the lowest-shard
  // process error afterwards.  With allow_idle_skip, shards whose cached
  // next event lies beyond window_end are not run at all: they provably
  // have nothing to dispatch (cross-window traffic lands strictly after window_end by the
  // lookahead contract), so skipping changes no observable — only the
  // skipped shard's clock, which lags until the RunUntil tail or the
  // quiescence catch-up advances it.  The skip decision is a pure function
  // of cached simulated times, so it is identical across thread counts.
  // Global windows pass false: RunGlobalEvents' contract is that every clock
  // has reached the instant before a stop-the-world callback runs.
  void RunWindow(Time window_end, bool allow_idle_skip);
  // The window loop behind RunUntil and RunUntilQuiescent; returns once
  // nothing is due at or before `limit` (kNever: once all is quiescent).
  void RunWindows(Time limit);
  // Runs worker `worker`'s statically-assigned shards to window_end_.
  void RunWorkerShards(int worker);
  void HelperMain(int worker);
  void StopHelpers();
  void RethrowFirstShardError();
  // Waits until `word` holds a value `done` accepts: spins first when every
  // thread has a core, then parks.  Returns the accepted value.
  template <typename T, typename Done>
  T Await(const std::atomic<T>& word, Done done, int worker);
  // Merges every shard's recorder into `merged` under "sN:" prefixes.
  void MergeTracesInto(TraceRecorder* merged) const;

  ShardSetOptions options_;
  int threads_ = 1;
  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::vector<Outbox> outboxes_;              // index = src shard
  // Per-shard NextEventTime snapshot taken by MinNextEvent; consumed by the
  // next RunWindow's idle-skip test.  Coordinator-written before the window
  // is published, helper-read after — the epoch_ increment (release) and the
  // helper's epoch_ load (acquire) order the two.
  std::vector<Time> next_event_cache_;
  std::vector<GlobalEvent> global_events_;    // min-heap (std::push/pop_heap)
  std::vector<ShardBarrierTask*> barrier_tasks_;
  std::vector<std::exception_ptr> shard_errors_;
  uint64_t next_global_seq_ = 0;
  uint64_t windows_ = 0;
  uint64_t cross_shard_messages_ = 0;
  uint64_t idle_shard_skips_ = 0;
  uint64_t empty_mailbox_barriers_ = 0;
  // Whether the current window may skip idle shards (published to the
  // helpers with window_end_ by the epoch_ increment).
  bool skip_idle_ = false;
  // Window currently (or most recently) executed; cross-shard posts must
  // deliver strictly after it.  Published to helpers by the epoch_ increment.
  Time window_end_ = 0;
  bool shut_down_ = false;

  // --- Epoch barrier (multi-shard, threads > 1) -----------------------------
  // The coordinator writes window_end_/skip_idle_, sets busy_ to the helper
  // count, and release-increments epoch_; each helper acquires the new epoch,
  // runs its shards, and acq_rel-decrements busy_ (the last one notifies).
  // The coordinator runs worker 0's shards meanwhile, then acquire-waits for
  // busy_ == 0.  stop_ is written like window_end_ and read after an epoch.
  // 32-bit words so std::atomic::wait parks on a futex directly.
  struct alignas(64) ParkSlot {
    uint64_t parks = 0;  // written only by its own worker; see barrier_parks
  };
  std::vector<std::thread> helpers_;  // helpers_[w - 1] is worker w
  std::vector<ParkSlot> park_slots_;  // index = worker
  alignas(64) std::atomic<uint32_t> epoch_{0};
  alignas(64) std::atomic<int32_t> busy_{0};
  // Spin before parking only when every thread can have a core: spinning
  // on an oversubscribed host steals the core the awaited thread needs.
  bool spin_ = false;
  bool stop_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_SHARD_SET_H_
