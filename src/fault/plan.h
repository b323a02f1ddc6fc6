// Fault plans: deterministic, simulated-time schedules of impairment.
//
// The paper's machinery exists to survive a hostile environment — congested
// bridges, lossy trunks, boxes that power-cycle mid-call — but the
// reproduction's experiments so far only dialled those conditions in by
// hand.  A FaultPlan makes the hostile environment itself a first-class,
// replayable artifact: a seeded list of timed FaultEvents (circuit down,
// bandwidth collapse, burst-loss episode, jitter storm, box crash and
// restart, clock step, buffer-pool pressure) that a FaultDriver applies at
// their simulated instants.  Every chaos run is exactly
// reproducible from (plan, seed): the driver consumes no randomness at
// apply time, and the plan itself round-trips through a text format so a
// failing run's schedule can be attached to a bug report and replayed with
// PANDORA_FAULT_PLAN=<text>.
#ifndef PANDORA_SRC_FAULT_PLAN_H_
#define PANDORA_SRC_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/time.h"

namespace pandora {

enum class FaultKind {
  kCircuitDown,         // call's circuit administratively down for `duration`
  kBandwidthCollapse,   // call's direct path collapses to `value` bits/s
  kBurstLoss,           // call's direct path loses `value` fraction of segments
  kJitterStorm,         // call's direct path jitters up to `value` microseconds
  kBoxCrash,            // box power-fails; restarts after `duration` (0: never)
  kClockStep,           // box's audio quartz steps to drift `value`
  kPoolPressure,        // `value` buffers of the box's pool seized
  kWireCorrupt,         // call's direct path flips bits in `value` of segments
  kChurn,               // receiver leaves at onset, rejoins after `duration`
                        // (0: gone for good) — consumed by the overlay's
                        // churn driver (src/overlay/sharded.h)
};

// Which kind of entity an event's `target` indexes.  Receivers are overlay
// distribution-tree members (src/overlay/), indexed by the topology
// generator's receiver ids; the Simulation-level FaultDriver has no
// receiver registry and counts receiver-targeted events as skipped.
enum class FaultTarget { kCall, kBox, kReceiver };

inline FaultTarget TargetOf(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCircuitDown:
    case FaultKind::kBandwidthCollapse:
    case FaultKind::kBurstLoss:
    case FaultKind::kJitterStorm:
    case FaultKind::kWireCorrupt:
      return FaultTarget::kCall;
    case FaultKind::kBoxCrash:
    case FaultKind::kClockStep:
    case FaultKind::kPoolPressure:
      return FaultTarget::kBox;
    case FaultKind::kChurn:
      return FaultTarget::kReceiver;
  }
  return FaultTarget::kBox;
}

struct FaultEvent {
  Time at = 0;          // simulated time of onset
  FaultKind kind = FaultKind::kCircuitDown;
  int target = 0;       // call index (Simulation::calls()) or box index
  double value = 0.0;   // kind-specific magnitude (bps, loss rate, us, drift, buffers)
  Duration duration = 0;  // episode length; 0 = permanent (or never-restart)
};

struct FaultPlan {
  uint64_t seed = 0;  // provenance only; the driver never draws from it
  std::vector<FaultEvent> events;

  // Stable-sorts events by onset time, preserving authored order at ties so
  // replay order is exactly the plan order.
  void Normalize();
};

// Options for RandomFaultPlan.  Target counts come from the caller (who
// knows the topology); constrained targeting keeps property-test invariants
// meaningful — e.g. a P5 "good copy loses nothing" check must exclude the
// good copy's call from impairment.
struct RandomPlanOptions {
  Time start = Seconds(1);      // no faults before traffic has plateaued
  Time horizon = Seconds(8);    // onsets drawn in [start, horizon)
  int min_events = 3;
  int max_events = 8;
  int call_count = 0;           // calls eligible for circuit faults
  int box_count = 0;            // boxes eligible for crash/clock/pressure
  std::vector<int> protected_calls;  // never impaired (P5 good copies)
  std::vector<int> protected_boxes;  // never crashed/stepped/pressured
  bool allow_crash = true;
  bool allow_clock_step = true;
  bool allow_pool_pressure = true;
  // Corruption storms (bit flips the destination decoder must reject).
  bool allow_wire_corrupt = true;
  // Overlay receiver churn (join/leave storms).  Zero receivers — the
  // default, and what every pre-overlay caller passes — keeps churn events
  // out of the kind pool, so existing seeds draw exactly the plans they
  // always drew.
  int receiver_count = 0;
  std::vector<int> protected_receivers;  // never churned (pinned observers)
  bool allow_churn = true;
  Duration min_episode = Millis(100);
  Duration max_episode = Millis(800);
};

// Draws a plan from `seed`.  Same (seed, options) -> same plan, always.
FaultPlan RandomFaultPlan(uint64_t seed, const RandomPlanOptions& options);

// Options for RandomChurnPlan: a join/leave storm against an overlay
// receiver population.  Unlike RandomPlanOptions' one-kind-at-a-time draws,
// a churn storm is dense by design — tens to hundreds of receivers drop out
// inside the window and (usually) rejoin, which is what makes join-to-first-
// segment latency a distribution worth measuring rather than an anecdote.
struct ChurnStormOptions {
  Time start = Seconds(1);       // first departure no earlier than this
  Time horizon = Seconds(3);     // onsets drawn in [start, horizon)
  int receiver_count = 0;        // receivers eligible for churn
  std::vector<int> protected_receivers;  // pinned observers, never churned
  int min_events = 32;
  int max_events = 128;
  Duration min_away = Millis(50);   // time off the trees before rejoining
  Duration max_away = Millis(600);
  double permanent_fraction = 0.0;  // probability a departure never rejoins
};

// Draws a pure-churn plan from `seed`.  Same (seed, options) -> same storm.
// The same receiver may be struck more than once; the churn driver treats a
// departure of an already-absent receiver as skipped, exactly like the
// FaultDriver treats faults against closed circuits.
FaultPlan RandomChurnPlan(uint64_t seed, const ChurnStormOptions& options);

// --- Text format -------------------------------------------------------------
//
//   seed=42; @1500ms circuit-down call=0 for=300ms; @2s burst-loss call=1
//   value=0.25 for=500ms; @3s crash box=2 for=1s; @4s clock-step box=0
//   value=2e-05
//
// Events are ';'-separated; within an event, whitespace-separated tokens:
// `@<duration>` (onset), a kind name, then `call=`/`box=`/`recv=` (target),
// `value=`, `for=` (episode length).  Durations take us/ms/s suffixes; a
// bare number is microseconds.  Format output round-trips through Parse
// bit-exactly (times in us, values via %.17g).  Churn events target
// receivers: `@2s churn recv=117 for=400ms` takes overlay receiver 117 out
// of its distribution trees at 2s and rejoins it 400ms later.

std::string FormatFaultKind(FaultKind kind);
bool ParseFaultKind(std::string_view text, FaultKind* kind);

std::string FormatFaultPlan(const FaultPlan& plan);
bool ParseFaultPlan(std::string_view text, FaultPlan* plan, std::string* error = nullptr);

// Parses $PANDORA_FAULT_PLAN if set; false (untouched plan) when unset.
// A set-but-malformed value is reported through `error` and also false.
bool FaultPlanFromEnv(FaultPlan* plan, std::string* error = nullptr);

}  // namespace pandora

#endif  // PANDORA_SRC_FAULT_PLAN_H_
