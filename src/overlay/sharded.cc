#include "src/overlay/sharded.h"

#include <algorithm>

#include "src/runtime/check.h"
#include "src/trace/trace.h"

namespace pandora {

ShardedOverlayMulticast::ShardedOverlayMulticast(ShardSet* shards,
                                                const OverlayTopology* topology,
                                                StripedTrees* trees, MulticastParams params,
                                                uint64_t seed)
    : shards_(shards),
      topology_(topology),
      trees_(trees),
      params_(params),
      repair_(topology, trees),
      seed_(seed) {
  const int n = topology_->receiver_count();
  const int k = trees_->stripes;
  const int s = shards_->shard_count();
  PANDORA_CHECK(n == trees_->receiver_count());
  scheds_.reserve(static_cast<size_t>(s));
  for (int i = 0; i < s; ++i) {
    scheds_.push_back(&shards_->shard(i));
  }
  emitted_by_tree_.assign(static_cast<size_t>(k), 0);
  records_per_receiver_ = (k + kStripesPerRecord - 1) / kStripesPerRecord;
  records_.resize(static_cast<size_t>(n) * static_cast<size_t>(records_per_receiver_));
  cold_.resize(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    const OverlayLink& link = topology_->links[static_cast<size_t>(r)];
    // The access links ARE the conservative-sync slack: every cross-shard
    // hop (and drop notice) lands at depart + child's access latency, so
    // the slowest admissible lookahead is the fastest link in the city.
    PANDORA_CHECK(s == 1 || link.latency >= shards_->lookahead(),
                  "overlay access latency below the ShardSet lookahead would break the "
                  "cross-shard delivery contract");
    // The access uplink is dimensioned 1/k per stripe, so one copy occupies
    // the lane for k times the raw wire time.
    const int64_t bps = std::max<int64_t>(1, link.bits_per_second);
    const int64_t us = (params_.segment_bytes * 8 * static_cast<int64_t>(kSecond) *
                            static_cast<int64_t>(k) +
                        bps - 1) /
                       bps;
    const int64_t service = std::max<int64_t>(1, us);
    PANDORA_CHECK(link.latency <= INT32_MAX && service <= INT32_MAX && s <= UINT16_MAX,
                  "latency, lane service time and shard id must fit their record fields");
    ReceiverRecord& rec = records_[record_index(r, 0)];
    rec.latency = static_cast<int32_t>(link.latency);
    rec.lane_service = static_cast<int32_t>(service);
    rec.lossy = link.loss_rate > 0.0 ? 1 : 0;
    rec.shard = static_cast<uint16_t>(shard_of(r));
  }
  join_log_.resize(static_cast<size_t>(s));
  for (auto& log : join_log_) {
    // Steady-state allocation-free: capacity for every owned receiver's
    // first join plus a generous churn-rejoin budget.
    log.reserve(static_cast<size_t>(n / s) + 1024);
  }
  join_hist_sites_.assign(static_cast<size_t>(s), 0);
}

void ShardedOverlayMulticast::Start(Time emit_until) {
  emit_until_ = emit_until;
  const int n = topology_->receiver_count();
  const Time now = shards_->now();
  for (int r = 0; r < n; ++r) {
    if (!trees_->absent(r)) {
      cold_[static_cast<size_t>(r)].join_time = now;
      records_[record_index(r, 0)].awaiting_first = 1;
    }
  }
  ShardedOverlayMulticast* self = this;
  scheds_[0]->AddTimer(now, TimerCallback([self] { self->Emit(); }));
}

void ShardedOverlayMulticast::Emit() {
  const int64_t seq = next_seq_++;
  const int tree = trees_->tree_of(seq);
  ++emitted_by_tree_[static_cast<size_t>(tree)];
  for (int c : trees_->root_children[static_cast<size_t>(tree)]) {
    RelayTo(tree, kOverlaySource, c, seq);
  }
  const Time next = scheds_[0]->now() + params_.segment_interval;
  if (next < emit_until_) {
    ShardedOverlayMulticast* self = this;
    scheds_[0]->AddTimer(next, TimerCallback([self] { self->Emit(); }));
  }
}

bool ShardedOverlayMulticast::LossDraw(int tree, int child, int64_t seq,
                                       double loss_rate) const {
  // SplitMix64 finalizer over a per-copy key: the draw belongs to the edge
  // copy, not to a generator whose stream the partition could reorder.
  uint64_t x = seed_;
  x ^= 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(tree) + 1);
  x ^= 0xbf58476d1ce4e5b9ull * (static_cast<uint64_t>(child) + 1);
  x ^= 0x94d049bb133111ebull * (static_cast<uint64_t>(seq) + 1);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < loss_rate;
}

void ShardedOverlayMulticast::CountDrop(int child, int kind) {
  ReceiverCold& st = cold_[static_cast<size_t>(child)];
  if (kind == kDropQueue) {
    ++st.dropped_queue;
  } else if (kind == kDropLoss) {
    ++st.dropped_loss;
  } else {
    ++st.missed_absent;
  }
}

void ShardedOverlayMulticast::RelayTo(int tree, int parent, int child, int64_t seq) {
  const ReceiverRecord& to = records_[record_index(child, 0)];
  const int ps = parent == kOverlaySource ? 0 : records_[record_index(parent, 0)].shard;
  const int cs = to.shard;
  Scheduler* sched = scheds_[static_cast<size_t>(ps)];
  const Time now = sched->now();
  const Duration latency = to.latency;
  ReceiverCold& child_cold = cold_[static_cast<size_t>(child)];
  ShardedOverlayMulticast* self = this;
  if (trees_->absent(child)) {
    // Detached between arming and relay.  The miss belongs to the child's
    // counters; across shards it is charged when the copy would have
    // arrived, keeping every stat single-writer.
    if (cs == ps) {
      ++child_cold.missed_absent;
    } else {
      const int kind = kDropAbsent;
      shards_->Post(ps, cs, now + latency,
                    TimerCallback([self, child, kind] { self->CountDrop(child, kind); }));
    }
    return;
  }
  Time depart = now;
  if (parent != kOverlaySource) {
    // Serialize on the parent's uplink lane; over-budget backlog drops THIS
    // copy and leaves the siblings' timing untouched (P5).
    ReceiverRecord& from = records_[record_index(parent, 0)];
    const Time start = std::max(from.lane_busy, now);
    if (start - now > params_.queue_budget * from.lane_service) {
      if (cs == ps) {
        ++child_cold.dropped_queue;
      } else {
        const int kind = kDropQueue;
        shards_->Post(ps, cs, now + latency,
                      TimerCallback([self, child, kind] { self->CountDrop(child, kind); }));
      }
      return;
    }
    from.lane_busy = start + from.lane_service;
    depart = from.lane_busy;
  }
  if (to.lossy != 0 &&
      LossDraw(tree, child, seq, topology_->links[static_cast<size_t>(child)].loss_rate)) {
    if (cs == ps) {
      ++child_cold.dropped_loss;
    } else {
      const int kind = kDropLoss;
      shards_->Post(ps, cs, depart + latency,
                    TimerCallback([self, child, kind] { self->CountDrop(child, kind); }));
    }
    return;
  }
  const int node = child;
  if (cs == ps) {
    sched->AddTimer(depart + latency,
                    TimerCallback([self, tree, node, seq] { self->Deliver(tree, node, seq); }));
  } else {
    shards_->Post(ps, cs, depart + latency,
                  TimerCallback([self, tree, node, seq] { self->Deliver(tree, node, seq); }));
  }
}

void ShardedOverlayMulticast::Deliver(int tree, int node, int64_t seq) {
  // Runs on `node`'s shard.
  ReceiverCold& cold = cold_[static_cast<size_t>(node)];
  if (trees_->absent(node)) {
    ++cold.missed_absent;
    return;
  }
  ReceiverRecord& rec = records_[record_index(node, 0)];
  StripeTally& tally = records_[record_index(node, tree)].stripe[tree % kStripesPerRecord];
  if (seq <= tally.last_played) {
    ++cold.dropped_late;
    return;
  }
  tally.last_played = seq;
  const int s = rec.shard;
  const Time now = scheds_[static_cast<size_t>(s)]->now();
  ++tally.delivered;
  rec.last_delivery = now;
  if (rec.awaiting_first != 0) {
    rec.awaiting_first = 0;
    const Duration latency = now - cold.join_time;
    join_log_[static_cast<size_t>(s)].push_back({now, node, latency});
    PANDORA_TRACE_HISTOGRAM(scheds_[static_cast<size_t>(s)]->trace(),
                            join_hist_sites_[static_cast<size_t>(s)],
                            "overlay.join_to_first_segment", "us", latency);
  }
  for (int c : trees_->children(tree, node)) {
    RelayTo(tree, node, c, seq);
  }
}

void ShardedOverlayMulticast::Leave(int r) {
  if (!repair_.Detach(r)) {
    ++churn_skipped_;
    return;
  }
  records_[record_index(r, 0)].awaiting_first = 0;
  ShardedOverlayMulticast* self = this;
  shards_->PostGlobal(shards_->now() + params_.repair_delay,
                      TimerCallback([self, r] { self->RepairNow(r); }));
}

void ShardedOverlayMulticast::Join(int r) {
  std::vector<RepairAction> actions = repair_.Join(r);
  if (actions.empty()) {
    ++churn_skipped_;
    return;
  }
  cold_[static_cast<size_t>(r)].join_time = shards_->now();
  records_[record_index(r, 0)].awaiting_first = 1;
  for (const RepairAction& a : actions) {
    repair_log_.push_back({shards_->now(), a.tree, a.orphan, a.new_parent});
  }
}

void ShardedOverlayMulticast::RepairNow(int r) {
  std::vector<RepairAction> actions = repair_.Repair(r);
  repairs_ += static_cast<int64_t>(actions.size());
  for (const RepairAction& a : actions) {
    repair_log_.push_back({shards_->now(), a.tree, a.orphan, a.new_parent});
  }
}

std::vector<ShardedOverlayMulticast::JoinRecord> ShardedOverlayMulticast::MergedJoinLog() const {
  std::vector<JoinRecord> merged;
  size_t total = 0;
  for (const auto& log : join_log_) {
    total += log.size();
  }
  merged.reserve(total);
  for (const auto& log : join_log_) {
    merged.insert(merged.end(), log.begin(), log.end());
  }
  std::sort(merged.begin(), merged.end(), [](const JoinRecord& a, const JoinRecord& b) {
    return a.at != b.at ? a.at < b.at : a.receiver < b.receiver;
  });
  return merged;
}

std::vector<Duration> ShardedOverlayMulticast::JoinLatencies() const {
  const std::vector<JoinRecord> merged = MergedJoinLog();
  std::vector<Duration> latencies;
  latencies.reserve(merged.size());
  for (const JoinRecord& record : merged) {
    latencies.push_back(record.latency);
  }
  return latencies;
}

uint64_t ShardedOverlayMulticast::RunHash() const {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, static_cast<uint64_t>(next_seq_));
  for (int64_t e : emitted_by_tree_) {
    hash = FnvMix(hash, static_cast<uint64_t>(e));
  }
  const int n = topology_->receiver_count();
  for (int r = 0; r < n; ++r) {
    const OverlayReceiverStats st = stats(r);
    hash = FnvMix(hash, static_cast<uint64_t>(st.delivered));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_queue));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_loss));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_late));
    hash = FnvMix(hash, static_cast<uint64_t>(st.missed_absent));
    hash = FnvMix(hash, static_cast<uint64_t>(st.last_delivery));
  }
  for (int r = 0; r < n; ++r) {
    for (int t = 0; t < trees_->stripes; ++t) {
      hash = FnvMix(hash, static_cast<uint64_t>(delivered_on_tree(r, t)));
    }
  }
  for (const JoinRecord& record : MergedJoinLog()) {
    hash = FnvMix(hash, static_cast<uint64_t>(record.at));
    hash = FnvMix(hash, static_cast<uint64_t>(record.receiver));
    hash = FnvMix(hash, static_cast<uint64_t>(record.latency));
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

ShardedOverlayChurnDriver::ShardedOverlayChurnDriver(ShardSet* shards,
                                                     ShardedOverlayMulticast* multicast,
                                                     FaultPlan plan)
    : shards_(shards), multicast_(multicast), plan_(std::move(plan)) {
  plan_.Normalize();
}

void ShardedOverlayChurnDriver::Start() {
  const Time now = shards_->now();
  for (const FaultEvent& event : plan_.events) {
    if (event.kind != FaultKind::kChurn) {
      ++ignored_;
      continue;
    }
    ShardedOverlayMulticast* mc = multicast_;
    const int target = event.target;
    shards_->PostGlobal(std::max(now, event.at),
                        TimerCallback([mc, target] { mc->Leave(target); }));
    ++departures_;
    if (event.duration > 0) {
      shards_->PostGlobal(std::max(now, event.at + event.duration),
                          TimerCallback([mc, target] { mc->Join(target); }));
      ++rejoins_;
    }
  }
}

}  // namespace pandora
