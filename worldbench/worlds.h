// The four seeded Pandora worlds the benchmark runs, and the counters it
// reads from them.  Every world is driven only through src/'s public entry
// points: Simulation + PandoraBox accessors + FaultDriver for the box
// worlds, ShardSet + ShardedOverlayMulticast + ShardedOverlayChurnDriver for
// the overlay.
#ifndef WORLDBENCH_WORLDS_H_
#define WORLDBENCH_WORLDS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/time.h"

namespace worldbench {

// Every quantity the benchmark reads from a world.  Box-level fields are
// summed over boxes; a box's totals survive its crash and restart (the
// sampler folds the pre-crash totals into a base).  Fields before
// kFirstGauge are monotone totals whose region value is end minus start;
// the rest are extremes over the whole run.
enum Field : int {
  // runtime / shard
  kEvents,
  kContextSwitches,
  kBatchedEvents,  // elements a batch drain absorbed beyond its wakeup
  kWindows,
  kCrossMsgs,
  kIdleSkips,
  kEmptyBarriers,
  // net
  kNetDelivered,
  kNetLost,
  kNetCorrupted,
  kWireBytes,
  // segment
  kDeepCopies,
  kNetinReceived,
  kDecodeFailures,
  // server
  kSwitched,
  kSwitchDrops,
  kSheds,
  kNetoutAudioDrops,
  kNetoutVideoDrops,
  kNetoutAudioSent,
  kNetoutVideoSent,
  // server, boxes that source video only (the P2 check)
  kVideoBoxAudioDrops,
  kVideoBoxAudioSent,
  kVideoBoxVideoDrops,
  kVideoBoxVideoSent,
  // buffer
  kPoolAllocs,
  kPoolStarvations,
  kClawbackActivations,
  kClawbackDrops,
  kClawbackPushes,
  kClawbackPops,
  // audio
  kMixerTicks,
  kLateTicks,
  kReplays,
  kSilences,
  kBlocksMixed,
  kBlocksRejected,
  kAudioSegmentsReceived,
  kAudioMissing,
  kM2eSumUs,
  kM2eCount,
  // video
  kFramesCaptured,
  kVideoSegmentsSent,
  kFramesDisplayed,
  kVideoSegmentsReceived,
  kUndecodable,
  kCacheReloads,
  kTears,
  kFrameLatencySumUs,
  kFrameLatencyCount,
  // repository
  kRecorded,
  kDiscarded,
  // fault
  kFaultApplied,
  kFaultSkipped,
  kFaultRestored,
  // overlay
  kOverlayEmitted,
  kOverlayDelivered,
  kOverlayRepairs,
  // gauges
  kFirstGauge,
  kM2eMaxUs = kFirstGauge,
  kNetoutMaxDepth,
  kPoolMinFree,
  // churn events the overlay driver armed (it arms the whole plan at start)
  kOverlayDepartures,
  kOverlayRejoins,
  kFieldCount,
};

using Counters = std::array<double, kFieldCount>;

// Region value of every field: end - start for totals, end for gauges.
Counters RegionDelta(const Counters& start, const Counters& end);
// FNV-1a over the bit patterns of every field.
uint64_t DigestCounters(const Counters& c, uint64_t seed_hash);

struct SetupTimes {
  double build_s = 0.0;
  double plumb_s = 0.0;
  double warmup_s = 0.0;
  double total() const { return build_s + plumb_s + warmup_s; }
};

struct WorldOptions {
  uint64_t seed = 1;
  int threads = 1;
  // Simulated length of the measured region that follows warmup; fault and
  // churn plans are drawn inside it.
  pandora::Duration horizon = pandora::Seconds(10);
  SpanRecorder* spans = nullptr;  // null: no spans
};

class World {
 public:
  virtual ~World() = default;

  // Builds the world, plumbs its streams, installs its fault or churn plan
  // and runs the warmup; returns the wall time of each phase.
  virtual SetupTimes Setup() = 0;
  virtual pandora::ShardSet& shard_set() = 0;
  // Cumulative counters.  Coordinator-only, between Run* calls; allocates
  // nothing, so it may run inside a region whose allocations are counted.
  virtual void Sample(Counters* out) = 0;
  // Digest material the counters do not cover.
  virtual uint64_t ExtraDigest() const { return 0; }
  // Join-to-first-segment latencies of receivers that joined after warmup
  // (overlay only).  Allocates; call after the measured region.
  virtual std::vector<pandora::Duration> ChurnJoinLatencies() const { return {}; }
  // Turns on every shard's TraceRecorder (harvested for the mixer's
  // end-to-end histograms).
  void EnableRecorders(size_t events_per_shard);
};

struct WorkloadSpec {
  const char* name;
  bool sharded;          // spans 4 shards at min(4, nproc) threads
  pandora::Duration warmup;
  pandora::Duration slice;  // one measured RunFor
  // Simulated seconds per wall second on the reference host; sizes the
  // deterministic horizon (see HorizonFor).
  double nominal_sim_rate;
  bool audio_budget;  // P7: m2e_max_ms <= 20 is checked
  // Untraced runs measure at 1 worker thread.  The overlay's 4-thread
  // barriers stall on whichever core a co-tenant slows, which spread its
  // 4-thread sim_rate past any usable bound on the shared reference host;
  // its traced run still measures 4 threads against 1 (shard.parallel_eff)
  // and checks that their digests agree.
  bool measure_one_thread;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);
// The measured horizon for a run of `seconds`: a fixed share of the wall
// budget at the nominal rate, whole slices, at least four.  A pure function
// of (workload, seconds), so simulated results repeat exactly.
pandora::Duration HorizonFor(const WorkloadSpec& spec, double seconds);

std::unique_ptr<World> MakeWorld(const WorkloadSpec& spec, const WorldOptions& options);

}  // namespace worldbench

#endif  // WORLDBENCH_WORLDS_H_
