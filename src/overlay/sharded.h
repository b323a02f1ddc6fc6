// ShardedOverlayMulticast: the striped distribution data plane.
//
// City-scale means 10^3..10^5 receivers, far past what full PandoraBox /
// AtmPort instances (each owning a wire pool) can populate.  The data plane
// is therefore a lightweight timer layer directly on a ShardSet: the source
// emits one audio segment per cadence tick onto tree seq % k, and every
// delivery is a timer whose callback relays to the receiver's children in
// that tree — recursive split-at-the-switch, exactly the paper's P5/P6
// fan-out but composed to arbitrary depth.  A one-shard set (the ShardSet
// default) runs the whole city on one Scheduler; more shards partition the
// receiver population — receiver r lives on shard r % shards — with the
// exact same semantics:
//
//  * A relay executes on the PARENT's shard (the paper's switch duplicates
//    copies where the stream is).  P5 holds at every hop by construction:
//    the parent serializes copies on its uplink lane (the access uplink
//    dimensioned 1/k per stripe, which is what striping buys), and when the
//    lane's backlog exceeds the queue budget the copy is DROPPED, never
//    blocking the siblings.  A choked subtree therefore starves alone.
//  * A delivery executes on the CHILD's shard.  Same-shard hops arm a plain
//    timer; cross-shard hops ride the ShardSet mailbox at depart + access
//    latency, which satisfies the lookahead contract because every access
//    link's latency is >= the set's lookahead (checked at construction —
//    the overlay's link latencies ARE the conservative-sync slack).
//  * Drop accounting belongs to the child.  A parent-side drop (queue shed,
//    link loss, absent child) on a cross-shard edge posts a notice that
//    charges the child's counters on the child's own shard, so every
//    per-receiver counter keeps a single writer.
//
// Loss draws are STATELESS: instead of one generator consumed in event
// order (whose stream would depend on how receivers interleave across
// shards), each (tree, child, seq) copy hashes to its own uniform draw.
// Every per-receiver outcome is therefore independent of the partition; the
// aggregate RunHash folds state in receiver order plus a time-sorted join
// log, so one seed yields one hash across thread and shard counts.
//
// At city scale the data plane is bound by memory, not instructions, so
// everything Deliver and RelayTo touch for one receiver shares one 64-byte
// record at k = 2; drop counters and join instants sit in a cold side array
// (layout: DESIGN.md section 14.3).
//
// Churn is control-plane: Leave/Join/repair mutate the shared StripedTrees,
// which the data plane reads during windows, so the churn driver runs every
// event as a ShardSet::PostGlobal stop-the-world callback (workers parked,
// all clocks at the event's instant) — the overlay twin of the fault
// driver's spanning mode.
#ifndef PANDORA_SRC_OVERLAY_SHARDED_H_
#define PANDORA_SRC_OVERLAY_SHARDED_H_

#include <cstdint>
#include <vector>

#include "src/fault/plan.h"
#include "src/overlay/repair.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"

namespace pandora {

struct MulticastParams {
  Duration segment_interval = Millis(4);  // live audio cadence (segment/constants.h)
  int64_t segment_bytes = 68;             // E16 wire image of a live audio segment
  Duration repair_delay = Millis(10);     // leave detection + re-parent latency
  // Per-lane backlog (in copies) before a copy is shed.  A relay bursts all
  // of its children's copies at one instant, so the budget must exceed the
  // fanout: a full burst is normal and drains before the next segment, while
  // a lane that cannot drain between segments backs up past any budget.
  int64_t queue_budget = 16;
};

struct OverlayReceiverStats {
  int64_t delivered = 0;
  int64_t dropped_queue = 0;   // parent lane over budget — P5 drop, not block
  int64_t dropped_loss = 0;    // access-link loss
  int64_t dropped_late = 0;    // duplicate / out-of-order after a re-parent
  int64_t missed_absent = 0;   // copy arrived while churned out
  Time last_delivery = 0;
};

struct OverlayRepairEvent {
  Time at = 0;
  int tree = 0;
  int node = 0;        // orphan root or (re)joiner
  int new_parent = 0;  // receiver id or kOverlaySource
};

class ShardedOverlayMulticast {
 public:
  // `trees` must outlive the multicast and is mutated only at stop-the-world
  // instants (Leave/Join/repair).  With a one-shard set every hop is
  // same-shard and every Post/PostGlobal is a plain timer.
  ShardedOverlayMulticast(ShardSet* shards, const OverlayTopology* topology, StripedTrees* trees,
                          MulticastParams params, uint64_t seed);

  // Arms the source cadence on shard 0; segments are emitted every interval
  // until `emit_until`.  Every receiver present at start has its join clock
  // running from the current instant.
  void Start(Time emit_until);

  // Churn entry points.  Must run at a stop-the-world instant: from the
  // coordinator between Run* calls, or inside a PostGlobal callback (the
  // ShardedOverlayChurnDriver).  They mutate the shared trees.  Leave
  // detaches immediately and schedules the subtree repair after
  // repair_delay; Join attaches as a leaf and starts the join-to-first-
  // segment clock.  Ops against a receiver already in that state count as
  // skipped, like FaultDriver faults against closed circuits.
  void Leave(int r);
  void Join(int r);

  int shard_of(int r) const { return r % static_cast<int>(scheds_.size()); }

  // --- Observability (coordinator-side: between Run* calls) -----------------

  int64_t emitted() const { return next_seq_; }
  int64_t emitted_on_tree(int t) const { return emitted_by_tree_[static_cast<size_t>(t)]; }
  // Assembled from the receiver's record and cold counters.  Inline, so a
  // caller reading one field loads only that field's storage.
  OverlayReceiverStats stats(int r) const {
    const ReceiverCold& cold = cold_[static_cast<size_t>(r)];
    OverlayReceiverStats st;
    for (int t = 0; t < trees_->stripes; ++t) {
      st.delivered += delivered_on_tree(r, t);
    }
    st.dropped_queue = cold.dropped_queue;
    st.dropped_loss = cold.dropped_loss;
    st.dropped_late = cold.dropped_late;
    st.missed_absent = cold.missed_absent;
    st.last_delivery = records_[record_index(r, 0)].last_delivery;
    return st;
  }
  int64_t delivered_on_tree(int r, int t) const {
    return records_[record_index(r, t)].stripe[t % kStripesPerRecord].delivered;
  }
  // Data-plane bytes per receiver: its record(s), child row and child
  // count.  Deterministic; E18 reports it.
  size_t hot_bytes_per_receiver() const {
    return static_cast<size_t>(records_per_receiver_) * sizeof(ReceiverRecord) +
           static_cast<size_t>(trees_->fanout) * sizeof(int) + sizeof(uint8_t);
  }
  int64_t repairs() const { return repairs_; }
  int64_t churn_skipped() const { return churn_skipped_; }
  const TreeRepair& repair() const { return repair_; }

  // Join-to-first-segment latencies, merged across shards and sorted by
  // (completion time, receiver) — a canonical order no partition perturbs.
  std::vector<Duration> JoinLatencies() const;

  // FNV-1a over every observable outcome, folded in receiver order (and the
  // canonical join order above): equal across thread counts by the window
  // determinism argument, and across shard counts because no draw or
  // counter depends on cross-receiver event interleaving.
  uint64_t RunHash() const;

 private:
  // A completed join clock: receiver and the instant/latency of its first
  // delivery.  Logged per shard (each appended only by its owner), merged
  // at observation time.
  struct JoinRecord {
    Time at = 0;
    int receiver = 0;
    Duration latency = 0;
  };
  enum DropKind : int { kDropQueue = 0, kDropLoss = 1, kDropAbsent = 2 };
  // Per-stripe play state: the highest seq played (a re-parent can leave
  // old-path copies in flight; only strictly increasing seqs play, the rest
  // count as dropped_late) and the copies delivered.
  struct StripeTally {
    int64_t last_played = -1;
    int64_t delivered = 0;
  };
  static constexpr int kStripesPerRecord = 2;
  // Everything Deliver and RelayTo touch for one receiver, in one cache
  // line at k <= 2.  A k-stripe receiver owns ceil(k / 2) consecutive
  // records; the first one's head fields are live, and record i holds the
  // tallies of stripes 2i and 2i + 1.
  struct alignas(64) ReceiverRecord {
    Time last_delivery = 0;
    // Uplink lane busy-until.  A receiver relays only in its interior tree
    // (InteriorDisjoint), so it has one lane, not k.
    Time lane_busy = 0;
    int32_t latency = 0;       // access latency, us (the link's, cached)
    int32_t lane_service = 0;  // us per copy on the lane
    uint8_t awaiting_first = 0;
    uint8_t lossy = 0;   // loss_rate > 0: only then is the cold link read
    uint16_t shard = 0;  // shard_of(r), cached: no division per copy
    StripeTally stripe[kStripesPerRecord];
  };
  static_assert(sizeof(ReceiverRecord) == 64, "the k = 2 record is one cache line");
  // Per-receiver state only churn, drops and joins touch.
  struct ReceiverCold {
    int64_t dropped_queue = 0;
    int64_t dropped_loss = 0;
    int64_t dropped_late = 0;
    int64_t missed_absent = 0;
    Time join_time = 0;  // last (re)join instant
  };

  void Emit();
  void Deliver(int tree, int node, int64_t seq);
  // Relays one copy from `parent` (kOverlaySource for the root) toward
  // `child`; runs on the parent's shard.
  void RelayTo(int tree, int parent, int child, int64_t seq);
  // Charges a parent-side drop to the child, on the child's shard.
  void CountDrop(int child, int kind);
  void RepairNow(int r);
  // Every shard's join log, merged and sorted by (at, receiver).
  std::vector<JoinRecord> MergedJoinLog() const;
  // Stateless per-copy loss draw — a pure function of (seed, tree, child,
  // seq), independent of event order and shard layout.
  bool LossDraw(int tree, int child, int64_t seq, double loss_rate) const;
  // The record holding receiver r's stripe-t tally; record_index(r, 0) also
  // holds r's head fields.
  size_t record_index(int r, int t) const {
    return static_cast<size_t>(r) * static_cast<size_t>(records_per_receiver_) +
           static_cast<size_t>(t / kStripesPerRecord);
  }

  ShardSet* shards_;
  std::vector<Scheduler*> scheds_;  // scheds_[s] == &shards_->shard(s)
  const OverlayTopology* topology_;
  StripedTrees* trees_;
  MulticastParams params_;
  TreeRepair repair_;
  uint64_t seed_;

  int64_t next_seq_ = 0;  // written only by shard 0's Emit chain
  Time emit_until_ = 0;
  std::vector<int64_t> emitted_by_tree_;
  // Per-receiver state: indexed by receiver id, written only by the owning
  // shard during windows (or by the coordinator stop-the-world).
  int records_per_receiver_ = 1;
  std::vector<ReceiverRecord> records_;  // [r * records_per_receiver_ ...]
  std::vector<ReceiverCold> cold_;
  // Per-shard completed-join logs (outer index = shard; single writer).
  std::vector<std::vector<JoinRecord>> join_log_;
  std::vector<TraceSiteId> join_hist_sites_;  // per shard (per-recorder ids)
  // Control-plane state: coordinator-only.
  std::vector<OverlayRepairEvent> repair_log_;
  int64_t repairs_ = 0;
  int64_t churn_skipped_ = 0;
};

// Applies FaultPlan churn to a ShardedOverlayMulticast.  The fault
// subsystem owns the storm's SHAPE (seeded draw, text round-trip, replay via
// PANDORA_FAULT_PLAN); this driver owns its EFFECT.  A kChurn event
// `@t churn recv=r for=d` becomes Leave(r) at t and — unless d is 0, the
// gone-for-good case — Join(r) at t+d.
class ShardedOverlayChurnDriver {
 public:
  ShardedOverlayChurnDriver(ShardSet* shards, ShardedOverlayMulticast* multicast, FaultPlan plan);

  // Arms every leave/rejoin as a PostGlobal stop-the-world event, in plan
  // order, so coincident events replay exactly as listed.  Non-churn events
  // in a mixed plan are counted ignored — they belong to a Simulation's
  // FaultDriver, which in turn skips ours.
  void Start();

  int64_t departures() const { return departures_; }
  int64_t rejoins() const { return rejoins_; }
  int64_t ignored() const { return ignored_; }

 private:
  ShardSet* shards_;
  ShardedOverlayMulticast* multicast_;
  FaultPlan plan_;
  int64_t departures_ = 0;
  int64_t rejoins_ = 0;
  int64_t ignored_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_OVERLAY_SHARDED_H_
