// E18 — Overlay distribution trees: striping vs. single-tree repair, and
// join-to-first-segment latency under a churn storm (ROADMAP item 2;
// "Multiple-Tree Push-based Overlay Streaming" + "Deterministic
// Near-Optimal P2P Streaming").
//
// Claims under test, at city scale (10^4 receivers):
//   - P5/P6 transitively: a departed interior relay takes down exactly its
//     own subtree on exactly its own stripe; with k >= 2 interior-disjoint
//     trees the orphans keep receiving the other k-1 stripes mid-repair, so
//     audio loss during a single-tree repair drops by ~(k-1)/k vs. the
//     k = 1 baseline.
//   - The near-optimal-delay interior ordering never does worse than the
//     balanced fill on mean source->receiver delay (rearrangement bound).
//   - Join-to-first-segment latency under a seeded 100+-event churn storm
//     stays bounded (p99 reported, gated in CI against BENCH_overlay.json).
//   - Sharded (Part 4): the SAME churn storm at 10^5 receivers spanning a
//     ShardSet stays allocation-free per delivered copy in steady state, and
//     every worker-thread count reproduces one observable run hash.  Each
//     thread count also reports events, cross-shard messages and barrier
//     parks per window (E19's load rows), so the drain's share is visible.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/fault/plan.h"
#include "src/overlay/sharded.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"
#include "src/runtime/shard_set.h"
#include "tests/counting_allocator.h"

namespace {

using namespace pandora;

constexpr int kReceivers = 10'000;
constexpr int kShardedReceivers = 100'000;
constexpr uint64_t kTopologySeed = 1993;
constexpr uint64_t kLossSeed = 404;

struct RepairRunResult {
  int64_t emitted = 0;
  int64_t lost = 0;        // segments never delivered to never-churned receivers
  double loss_pct = 0.0;
};

// One departure of the highest-impact relay (the first root child of tree 0
// owns the largest subtree under the heap-style fill), never rejoining.
// Loss is counted over every OTHER receiver, which should see exactly the
// repair-window gap on the one affected stripe and nothing anywhere else.
RepairRunResult RunSingleRepair(int stripes, TreePolicy policy) {
  TopologyParams params;
  params.seed = kTopologySeed;
  params.receivers = kReceivers;
  OverlayTopology topology = GenerateTopology(params);
  StripedTrees trees = TreeBuilder::Build(topology, stripes, policy);

  ShardSet set;
  ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, kLossSeed);
  const int leaver = trees.root_children[0][0];
  multicast.Start(/*emit_until=*/Seconds(2));
  ShardedOverlayMulticast* mc = &multicast;
  set.PostGlobal(Seconds(1), TimerCallback([mc, leaver] { mc->Leave(leaver); }));
  set.RunUntilQuiescent();

  RepairRunResult result;
  result.emitted = multicast.emitted();
  for (int r = 0; r < kReceivers; ++r) {
    if (r == leaver) {
      continue;
    }
    result.lost += result.emitted - multicast.stats(r).delivered;
  }
  result.loss_pct = 100.0 * static_cast<double>(result.lost) /
                    (static_cast<double>(result.emitted) * (kReceivers - 1));
  return result;
}

struct ShardedStormScore {
  double deliveries_per_sec = 0.0;  // wall-clock rate over the measured window
  double allocs_per_delivery = 0.0;
  uint64_t run_hash = 0;
  Duration join_p50 = 0;
  Duration join_p99 = 0;
  int64_t repairs = 0;
  int64_t emitted = 0;
  // Per barrier round of the measured window, as E19 reports them.
  double events_per_window = 0.0;
  double parks_per_window = 0.0;
  double cross_msgs_per_window = 0.0;
  // Data-plane bytes per receiver (record + child row + count): the
  // footprint a delivery streams through the cache.
  size_t hot_bytes_per_receiver = 0;
  int fanout = 0;
};

int64_t TotalDelivered(const ShardedOverlayMulticast& multicast, int receivers) {
  int64_t total = 0;
  for (int r = 0; r < receivers; ++r) {
    total += multicast.stats(r).delivered;
  }
  return total;
}

// Dispatches plus deliveries: the data plane runs on timer callbacks, which
// Scheduler::events() does not count, so each delivery (one callback on the
// child's shard) is added.
uint64_t TotalEvents(const ShardSet& set, int64_t delivered) {
  uint64_t total = static_cast<uint64_t>(delivered);
  for (int s = 0; s < set.shard_count(); ++s) {
    total += set.shard(s).events();
  }
  return total;
}

// Part 4 worker: the Part 3 churn storm, scaled to 10^5 receivers and spread
// across a ShardSet.  Warm to the storm's onset at 1 s of simulated time
// (free lists, mailbox and log capacity all reach steady state on the
// initial join wave), then run to quiescence under wall-clock + allocation
// counters.
ShardedStormScore RunShardedStorm(int shards, int threads, bool traced) {
  TopologyParams params;
  params.seed = kTopologySeed;
  params.receivers = kShardedReceivers;
  OverlayTopology topology = GenerateTopology(params);
  StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);

  ChurnStormOptions storm;
  storm.receiver_count = kShardedReceivers;
  storm.start = Seconds(1);
  storm.horizon = Seconds(3);
  storm.min_events = 96;
  storm.max_events = 128;
  storm.permanent_fraction = 0.05;
  FaultPlan plan = RandomChurnPlan(/*seed=*/7, storm);

  ShardSetOptions shard_options;
  shard_options.shards = shards;
  shard_options.threads = threads;
  shard_options.lookahead = Millis(1);  // == the fastest access-link latency
  ShardSet set(shard_options);
  if (traced) {
    set.EnableTrace(1 << 15);
  }
  ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, kLossSeed);
  ShardedOverlayChurnDriver churn(&set, &multicast, plan);
  multicast.Start(/*emit_until=*/Millis(3800));
  churn.Start();
  set.RunUntil(Seconds(1));

  const int64_t delivered_before = TotalDelivered(multicast, kShardedReceivers);
  const uint64_t events_before = TotalEvents(set, delivered_before);
  const uint64_t windows_before = set.windows();
  const uint64_t parks_before = set.barrier_parks();
  const uint64_t cross_before = set.cross_shard_messages();
  const uint64_t allocs_before = HeapAllocCount();
  const auto wall_before = std::chrono::steady_clock::now();
  set.RunUntilQuiescent();
  const auto wall_after = std::chrono::steady_clock::now();
  const uint64_t allocs = HeapAllocCount() - allocs_before;
  const int64_t delivered_after = TotalDelivered(multicast, kShardedReceivers);
  const int64_t delivered = delivered_after - delivered_before;
  const uint64_t events = TotalEvents(set, delivered_after) - events_before;
  const uint64_t windows = set.windows() - windows_before;
  const uint64_t parks = set.barrier_parks() - parks_before;
  const uint64_t cross = set.cross_shard_messages() - cross_before;

  ShardedStormScore score;
  const double wall_s = std::chrono::duration<double>(wall_after - wall_before).count();
  score.deliveries_per_sec = wall_s > 0 ? static_cast<double>(delivered) / wall_s : 0.0;
  score.allocs_per_delivery =
      delivered > 0 ? static_cast<double>(allocs) / static_cast<double>(delivered) : 0.0;
  score.run_hash = multicast.RunHash();
  score.hot_bytes_per_receiver = multicast.hot_bytes_per_receiver();
  score.fanout = trees.fanout;
  score.repairs = multicast.repairs();
  score.emitted = multicast.emitted();
  if (windows > 0) {
    score.events_per_window = static_cast<double>(events) / static_cast<double>(windows);
    score.parks_per_window = static_cast<double>(parks) / static_cast<double>(windows);
    score.cross_msgs_per_window = static_cast<double>(cross) / static_cast<double>(windows);
  }
  std::vector<Duration> joins = multicast.JoinLatencies();
  std::sort(joins.begin(), joins.end());
  if (!joins.empty()) {
    score.join_p50 = joins[joins.size() / 2];
    score.join_p99 = joins[(joins.size() * 99) / 100];
  }
  if (traced && !set.ExportMergedTraceTo(BenchState().trace_path)) {
    std::fprintf(stderr, "failed to write merged trace to %s\n", BenchState().trace_path.c_str());
  }
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  BenchParseArgs(argc, argv);
  // --shards=N / --threads=M pin the Part 4 spanning configuration (and skip
  // the 10^4-receiver parts 1-3, which a sharded CI leg re-measures for
  // nothing).
  int only_shards = 0;
  int only_threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--shards=", 0) == 0) {
      only_shards = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      only_threads = std::atoi(arg.c_str() + 10);
    }
  }
  BenchHeader("E18", "overlay trees: multiple-tree striping, churn repair, join latency",
              "P5/P6 transitively: repair of one stripe never disturbs the others");

  if (only_shards > 0 || only_threads > 0) {
    const int shards = only_shards > 0 ? only_shards : 8;
    const int threads = only_threads > 0 ? only_threads : 1;
    const ShardedStormScore score = RunShardedStorm(shards, threads, BenchTraceRequested());
    const std::string tag =
        std::to_string(shards) + " shards, " + std::to_string(threads) + " threads ";
    BenchRow("sharded receivers", kShardedReceivers, "", "(10^5-receiver spanning overlay)");
    BenchRow(tag + "deliveries/sec", score.deliveries_per_sec, "ev/s");
    BenchRow(tag + "allocs/delivery", score.allocs_per_delivery, "alloc");
    BenchRow(tag + "events/window", score.events_per_window, "ev");
    BenchRow(tag + "parks/window", score.parks_per_window, "parks");
    BenchRow(tag + "cross msgs/window", score.cross_msgs_per_window, "msgs");
    BenchRow(tag + "join p50", static_cast<double>(score.join_p50), "us");
    BenchRow(tag + "join p99", static_cast<double>(score.join_p99), "us");
    BenchRow(tag + "run hash", static_cast<double>(score.run_hash % 1000000), "");
    BenchRow("hardware threads", static_cast<double>(std::thread::hardware_concurrency()),
             "cpus");
    return BenchFinish();
  }

  // --- Part 1: audio loss during a single-tree repair, k = 1 vs. striped.
  // Parts 1-3 run at 10^4 receivers on a one-shard set (one Scheduler).
  const RepairRunResult k1 = RunSingleRepair(1, TreePolicy::kBalancedFanout);
  const RepairRunResult k2 = RunSingleRepair(2, TreePolicy::kBalancedFanout);
  const RepairRunResult k3 = RunSingleRepair(3, TreePolicy::kBalancedFanout);
  BenchRow("receivers", kReceivers, "", "(10^4-receiver overlay, fanout 8)");
  BenchRow("segments lost in repair, k=1", static_cast<double>(k1.lost), "seg",
           "(single tree: orphans lose every stripe)");
  BenchRow("segments lost in repair, k=2", static_cast<double>(k2.lost), "seg",
           "(striped: only the repaired stripe gaps)");
  BenchRow("segments lost in repair, k=3", static_cast<double>(k3.lost), "seg");
  BenchRow("audio loss during repair, k=1", k1.loss_pct, "%");
  BenchRow("audio loss during repair, k=2", k2.loss_pct, "%",
           "(paper: P6 -> measurably below the k=1 baseline)");
  BenchRow("audio loss during repair, k=3", k3.loss_pct, "%");

  // --- Part 2: the near-optimal-delay ordering vs. the balanced fill.
  {
    TopologyParams params;
    params.seed = kTopologySeed;
    params.receivers = kReceivers;
    OverlayTopology topology = GenerateTopology(params);
    StripedTrees balanced = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
    StripedTrees optimal = TreeBuilder::Build(topology, 2, TreePolicy::kNearOptimalDelay);
    const DelayStats ds_bal = ComputeDelayStats(topology, balanced);
    const DelayStats ds_opt = ComputeDelayStats(topology, optimal);
    BenchRow("mean delay, balanced fill", ds_bal.mean_us, "us");
    BenchRow("mean delay, near-optimal order", ds_opt.mean_us, "us",
             "(rearrangement bound: never above balanced)");
  }

  // --- Part 3: seeded churn storm on the k = 2 striped overlay.
  {
    TopologyParams params;
    params.seed = kTopologySeed;
    params.receivers = kReceivers;
    OverlayTopology topology = GenerateTopology(params);
    StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);

    ChurnStormOptions storm;
    storm.receiver_count = kReceivers;
    storm.start = Seconds(1);
    storm.horizon = Seconds(3);
    storm.min_events = 96;
    storm.max_events = 128;
    storm.permanent_fraction = 0.05;
    FaultPlan plan = RandomChurnPlan(/*seed=*/7, storm);

    ShardSet set;
    BenchEnableTrace(set.scheduler());
    ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, kLossSeed);
    ShardedOverlayChurnDriver churn(&set, &multicast, plan);
    multicast.Start(/*emit_until=*/Millis(3800));
    churn.Start();
    set.RunUntilQuiescent();

    std::vector<Duration> joins = multicast.JoinLatencies();
    std::sort(joins.begin(), joins.end());
    const Duration p50 = joins[joins.size() / 2];
    const Duration p99 = joins[(joins.size() * 99) / 100];
    BenchRow("churn events applied", static_cast<double>(churn.departures()), "",
             "(" + std::to_string(churn.rejoins()) + " rejoins)");
    BenchRow("subtree re-parents", static_cast<double>(multicast.repairs()), "");
    BenchRow("join-to-first-segment p50", static_cast<double>(p50), "us");
    BenchRow("join-to-first-segment p99", static_cast<double>(p99), "us",
             "(gated: a regression here is a repair-path stall)");
    BenchRow("run hash", static_cast<double>(multicast.RunHash() % 1000000), "",
             "(low 6 digits; bit-exact replay is asserted by tests)");
    BenchExportTrace(set.scheduler());
  }

  // --- Part 4: the same storm at 10^5 receivers spanning 8 shards.  The
  // worker-thread sweep must reproduce one observable run hash (windowed
  // conservative sync: OS scheduling cannot perturb outcomes) and stay
  // allocation-free per delivered copy in steady state.
  {
    BenchRow("sharded receivers", kShardedReceivers, "", "(10^5-receiver spanning overlay)");
    uint64_t base_hash = 0;
    for (const int threads : {1, 2, 8}) {
      // The 8-thread leg carries the merged per-shard trace when requested.
      const ShardedStormScore score =
          RunShardedStorm(/*shards=*/8, threads, threads == 8 && BenchTraceRequested());
      const std::string tag = "8 shards, " + std::to_string(threads) + " threads ";
      BenchRow(tag + "deliveries/sec", score.deliveries_per_sec, "ev/s");
      BenchRow(tag + "allocs/delivery", score.allocs_per_delivery, "alloc",
               "(gated: must stay 0.000)");
      BenchRow(tag + "events/window", score.events_per_window, "ev");
      BenchRow(tag + "parks/window", score.parks_per_window, "parks");
      BenchRow(tag + "cross msgs/window", score.cross_msgs_per_window, "msgs",
               "(gated: > 0, the storm exercises the mailbox drain)");
      if (threads == 1) {
        base_hash = score.run_hash;
        BenchRow(tag + "join p50", static_cast<double>(score.join_p50), "us");
        BenchRow(tag + "join p99", static_cast<double>(score.join_p99), "us",
                 "(gated: a regression here is a repair-path stall)");
        BenchRow(tag + "re-parents", static_cast<double>(score.repairs), "");
        BenchRow(tag + "run hash", static_cast<double>(score.run_hash % 1000000), "");
        BenchRow("fanout", score.fanout, "");
        BenchRow("hot bytes/receiver", static_cast<double>(score.hot_bytes_per_receiver), "B",
                 "(k=2 record + child row + count; gated: <= 64 + 4*fanout + 1)");
      } else if (score.run_hash != base_hash) {
        std::fprintf(stderr, "FATAL: sharded overlay run hash diverged at %d threads\n",
                     threads);
        return 1;
      }
    }
  }
  BenchRow("hardware threads", static_cast<double>(std::thread::hardware_concurrency()), "cpus");

  return BenchFinish();
}
