#include "src/overlay/multicast.h"

#include <algorithm>

#include "src/runtime/check.h"

namespace pandora {

OverlayMulticast::OverlayMulticast(Scheduler* sched, const OverlayTopology* topology,
                                   StripedTrees* trees, MulticastParams params, uint64_t seed)
    : sched_(sched),
      topology_(topology),
      trees_(trees),
      params_(params),
      repair_(topology, trees),
      loss_rng_(seed) {
  const int n = topology_->receiver_count();
  const int k = trees_->stripes;
  PANDORA_CHECK(n == trees_->receiver_count());
  emitted_by_tree_.assign(static_cast<size_t>(k), 0);
  stats_.assign(static_cast<size_t>(n), {});
  delivered_by_tree_.assign(static_cast<size_t>(n) * static_cast<size_t>(k), 0);
  last_played_seq_.assign(static_cast<size_t>(n) * static_cast<size_t>(k), -1);
  lane_busy_.assign(static_cast<size_t>(n) * static_cast<size_t>(k), 0);
  lane_service_.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    // The access uplink is dimensioned 1/k per stripe, so one copy occupies
    // a lane for k times the raw wire time.
    const int64_t bps = std::max<int64_t>(1, topology_->links[static_cast<size_t>(r)].bits_per_second);
    const int64_t us = (params_.segment_bytes * 8 * static_cast<int64_t>(kSecond) *
                            static_cast<int64_t>(k) +
                        bps - 1) /
                       bps;
    lane_service_.push_back(static_cast<Duration>(std::max<int64_t>(1, us)));
  }
  join_time_.assign(static_cast<size_t>(n), 0);
  awaiting_first_.assign(static_cast<size_t>(n), 0);
}

void OverlayMulticast::Start(Time emit_until) {
  emit_until_ = emit_until;
  const int n = topology_->receiver_count();
  for (int r = 0; r < n; ++r) {
    if (!trees_->absent(r)) {
      join_time_[static_cast<size_t>(r)] = sched_->now();
      awaiting_first_[static_cast<size_t>(r)] = 1;
    }
  }
  OverlayMulticast* self = this;
  sched_->AddTimer(sched_->now(), TimerCallback([self] { self->Emit(); }));
}

void OverlayMulticast::Emit() {
  const int64_t seq = next_seq_++;
  const int tree = trees_->tree_of(seq);
  ++emitted_by_tree_[static_cast<size_t>(tree)];
  for (int c : trees_->root_children[static_cast<size_t>(tree)]) {
    RelayTo(tree, kOverlaySource, c, seq);
  }
  const Time next = sched_->now() + params_.segment_interval;
  if (next < emit_until_) {
    OverlayMulticast* self = this;
    sched_->AddTimer(next, TimerCallback([self] { self->Emit(); }));
  }
}

void OverlayMulticast::RelayTo(int tree, int parent, int child, int64_t seq) {
  if (trees_->absent(child)) {
    // Detached between arming and relay; its own stats record the miss.
    ++stats_[static_cast<size_t>(child)].missed_absent;
    return;
  }
  const Time now = sched_->now();
  Time depart = now;
  if (parent != kOverlaySource) {
    // Serialize on the parent's per-stripe uplink lane; over-budget backlog
    // drops THIS copy and leaves the siblings' timing untouched (P5).
    Time& busy = lane_busy(tree, parent);
    const Duration service = lane_service_[static_cast<size_t>(parent)];
    const Time start = std::max(busy, now);
    if (start - now > params_.queue_budget * service) {
      ++stats_[static_cast<size_t>(child)].dropped_queue;
      return;
    }
    busy = start + service;
    depart = busy;
  }
  const OverlayLink& link = topology_->links[static_cast<size_t>(child)];
  if (loss_rng_.Bernoulli(link.loss_rate)) {
    ++stats_[static_cast<size_t>(child)].dropped_loss;
    return;
  }
  OverlayMulticast* self = this;
  const int node = child;
  sched_->AddTimer(depart + link.latency,
                   TimerCallback([self, tree, node, seq] { self->Deliver(tree, node, seq); }));
}

void OverlayMulticast::Deliver(int tree, int node, int64_t seq) {
  if (trees_->absent(node)) {
    ++stats_[static_cast<size_t>(node)].missed_absent;
    return;
  }
  OverlayReceiverStats& st = stats_[static_cast<size_t>(node)];
  int64_t& last = last_played_seq_[static_cast<size_t>(node) *
                                       static_cast<size_t>(trees_->stripes) +
                                   static_cast<size_t>(tree)];
  if (seq <= last) {
    // Old-path copy still in flight across a re-parent: a duplicate (or an
    // arrival too late to play).  Shed it and do not re-relay stale audio.
    ++st.dropped_late;
    return;
  }
  last = seq;
  ++st.delivered;
  st.last_delivery = sched_->now();
  ++delivered_by_tree_[static_cast<size_t>(node) * static_cast<size_t>(trees_->stripes) +
                       static_cast<size_t>(tree)];
  if (awaiting_first_[static_cast<size_t>(node)] != 0) {
    awaiting_first_[static_cast<size_t>(node)] = 0;
    const Duration latency = sched_->now() - join_time_[static_cast<size_t>(node)];
    join_latencies_.push_back(latency);
    PANDORA_TRACE_HISTOGRAM(sched_->trace(), join_hist_site_, "overlay.join_to_first_segment",
                            "us", latency);
  }
  for (int c : trees_->children(tree, node)) {
    RelayTo(tree, node, c, seq);
  }
}

void OverlayMulticast::Leave(int r) {
  if (!repair_.Detach(r)) {
    ++churn_skipped_;
    return;
  }
  awaiting_first_[static_cast<size_t>(r)] = 0;
  OverlayMulticast* self = this;
  sched_->AddTimer(sched_->now() + params_.repair_delay,
                   TimerCallback([self, r] { self->RepairNow(r); }));
}

void OverlayMulticast::Join(int r) {
  std::vector<RepairAction> actions = repair_.Join(r);
  if (actions.empty()) {
    ++churn_skipped_;
    return;
  }
  join_time_[static_cast<size_t>(r)] = sched_->now();
  awaiting_first_[static_cast<size_t>(r)] = 1;
  for (const RepairAction& a : actions) {
    repair_log_.push_back({sched_->now(), a.tree, a.orphan, a.new_parent});
  }
}

void OverlayMulticast::RepairNow(int r) {
  std::vector<RepairAction> actions = repair_.Repair(r);
  repairs_ += static_cast<int64_t>(actions.size());
  for (const RepairAction& a : actions) {
    repair_log_.push_back({sched_->now(), a.tree, a.orphan, a.new_parent});
  }
}

uint64_t OverlayMulticast::RunHash() const {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, static_cast<uint64_t>(next_seq_));
  for (int64_t e : emitted_by_tree_) {
    hash = FnvMix(hash, static_cast<uint64_t>(e));
  }
  for (const OverlayReceiverStats& st : stats_) {
    hash = FnvMix(hash, static_cast<uint64_t>(st.delivered));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_queue));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_loss));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_late));
    hash = FnvMix(hash, static_cast<uint64_t>(st.missed_absent));
    hash = FnvMix(hash, static_cast<uint64_t>(st.last_delivery));
  }
  for (int64_t d : delivered_by_tree_) {
    hash = FnvMix(hash, static_cast<uint64_t>(d));
  }
  for (Duration d : join_latencies_) {
    hash = FnvMix(hash, static_cast<uint64_t>(d));
  }
  for (const OverlayRepairEvent& e : repair_log_) {
    hash = FnvMix(hash, static_cast<uint64_t>(e.at));
    hash = FnvMix(hash, static_cast<uint64_t>(e.tree));
    hash = FnvMix(hash, static_cast<uint64_t>(e.node));
    hash = FnvMix(hash, static_cast<uint64_t>(e.new_parent));
  }
  hash = FnvMix(hash, static_cast<uint64_t>(repairs_));
  hash = FnvMix(hash, static_cast<uint64_t>(churn_skipped_));
  return hash;
}

}  // namespace pandora
