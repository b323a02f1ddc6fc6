// FaultDriver: applies a FaultPlan from the control plane of the simulated
// timeline.
//
// Each step runs as a ShardSet::PostGlobal callback at the exact microsecond
// the next onset or restore is due: a stop-the-world instant on the
// coordinator in a shard-spanning world (every worker parked), a plain
// shard-0 timer on one shard.  Either way the step may touch any shard —
// a crash kills processes and closes circuits on whatever shards the
// victim's calls touch.  A step applies everything due through the
// sanctioned mutators (AtmNetwork's fault hooks, Simulation's
// CrashBox/RestartBox, PandoraBox::SetAudioClockDrift, BufferPool's
// pressure injection) and, for episodic faults, snapshots the prior state
// and heaps its own restore.  The driver is no process, so no box crash can
// kill it, and it draws no randomness: given the same plan against the
// same topology, every apply and restore lands on the same microsecond,
// independent of the worker-thread count, so chaos runs replay
// bit-identically.
//
// Events whose target no longer makes sense when their onset arrives — the
// call was hung up, its circuit is already closed, the box is already down
// — are counted as skipped, not errors: a random plan is allowed to race
// the faults it injected earlier (a crash closes the circuits a later
// burst-loss episode would have impaired).
//
// Random plans freely overlap episodes on one target, so episodes of one
// kind share bookkeeping: the pre-episode state is snapshotted when the
// FIRST overlapping episode begins and put back when the LAST one ends.  A
// later onset must never snapshot the already-impaired state — that would
// leave the impairment in place after every restore had run, with
// quiescent() claiming a healthy environment.  An event with no episode
// length (duration 0) makes its impairment permanent for the run: no
// restore of the same kind may undo it.
#ifndef PANDORA_SRC_FAULT_DRIVER_H_
#define PANDORA_SRC_FAULT_DRIVER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/simulation.h"
#include "src/fault/plan.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"

namespace pandora {

class FaultDriver {
 public:
  FaultDriver(Simulation* sim, FaultPlan plan);

  // Arms the first step.  Call after Simulation::Start() and after
  // the calls the plan targets have been plumbed (targets are call/box
  // indices into the Simulation's registries).
  void Start();

  const FaultPlan& plan() const { return plan_; }
  size_t applied() const { return applied_; }
  size_t skipped() const { return skipped_; }
  size_t restored() const { return restored_; }
  // True once every event fired and every episodic restore has run: from
  // here on the environment is healthy and recovery clocks may be started.
  bool quiescent() const { return quiescent_; }
  // Simulated time the driver went quiescent (-1 while still active).
  Time quiescent_at() const { return quiescent_at_; }

 private:
  // One scheduled undo of an episodic fault.  The state it restores lives
  // in the shared EpisodeState, not here: with overlapping episodes only
  // the last restore of a kind may put the pre-episode snapshot back.
  struct Restore {
    Time at = 0;
    uint64_t order = 0;  // tie-break: restores replay in schedule order
    FaultKind kind = FaultKind::kCircuitDown;
    int target = 0;
  };

  // Bookkeeping shared by every episode of one fault kind on one target.
  struct EpisodeState {
    int active = 0;          // episodes currently open (restore pending)
    bool permanent = false;  // a duration-0 event: the impairment stays
    HopQuality base;         // quality kinds: state before the first episode
    double base_value = 0;   // clock steps: drift before the first episode
  };

  // Each step applies every restore and onset due at the current instant,
  // then arms the next PostGlobal for the next due time.
  void ArmNextGlobal();
  void StepGlobal();
  void Apply(const FaultEvent& event);
  void ApplyRestore(const Restore& restore);
  // Opens one episode of `event`'s kind on its target: a timed event heaps
  // its restore; a duration-0 event marks the impairment permanent.
  void BeginEpisode(const FaultEvent& event, EpisodeState& episode);
  void PushRestore(Restore restore);
  Restore PopRestore();
  void TraceFault(const std::string& what, int target, int64_t value);

  Simulation* sim_;
  FaultPlan plan_;
  std::vector<Restore> restores_;  // min-heap on (at, order)
  std::map<std::pair<FaultKind, int>, EpisodeState> episodes_;
  uint64_t next_restore_order_ = 0;
  size_t next_event_ = 0;  // cursor into plan_.events
  size_t applied_ = 0;
  size_t skipped_ = 0;
  size_t restored_ = 0;
  bool quiescent_ = false;
  Time quiescent_at_ = -1;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_FAULT_DRIVER_H_
