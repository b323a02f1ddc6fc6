// Unit coverage for src/overlay/: topology generator determinism (golden
// hash), tree-builder invariants, the churn FaultPlan kind's text round
// trip, and the multicast data plane's basic delivery / leave-repair-rejoin
// cycle on small one-shard overlays.  The transitive P5/P6 properties over random
// topologies live in overlay_property_test.cc.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/plan.h"
#include "src/overlay/repair.h"
#include "src/overlay/sharded.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"
#include "src/runtime/shard_set.h"

namespace pandora {
namespace {

TopologyParams SmallParams(uint64_t seed, int receivers) {
  TopologyParams params;
  params.seed = seed;
  params.receivers = receivers;
  return params;
}

TEST(OverlayTopology, SameSeedSameTopologyDifferentSeedDiffers) {
  const OverlayTopology a = GenerateTopology(SmallParams(42, 500));
  const OverlayTopology b = GenerateTopology(SmallParams(42, 500));
  const OverlayTopology c = GenerateTopology(SmallParams(43, 500));
  ASSERT_EQ(a.links.size(), b.links.size());
  for (size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].bits_per_second, b.links[i].bits_per_second);
    EXPECT_EQ(a.links[i].latency, b.links[i].latency);
  }
  EXPECT_EQ(TopologyHash(a), TopologyHash(b));
  EXPECT_NE(TopologyHash(a), TopologyHash(c));
}

TEST(OverlayTopology, GoldenHashPinned) {
  // Pins the generator's exact output: any change to the draw order, tier
  // table or hash folding shows up here before it silently invalidates
  // every checked-in BENCH_overlay.json trajectory.
  const OverlayTopology topology = GenerateTopology(SmallParams(1993, 1000));
  // Recompute by hand only when the generator contract deliberately changes.
  EXPECT_EQ(TopologyHash(topology), UINT64_C(0xffb8f9e0fbed8ac3));
}

TEST(OverlayTree, BuildInvariantsAcrossStripesAndPolicies) {
  const OverlayTopology topology = GenerateTopology(SmallParams(7, 300));
  for (int k : {1, 2, 3}) {
    for (TreePolicy policy : {TreePolicy::kBalancedFanout, TreePolicy::kNearOptimalDelay}) {
      StripedTrees trees = TreeBuilder::Build(topology, k, policy);
      EXPECT_TRUE(SpansAll(trees));
      EXPECT_TRUE(InteriorDisjoint(trees));
      EXPECT_TRUE(RespectsFanout(trees));
      EXPECT_TRUE(IsAcyclic(trees));
    }
  }
}

TEST(OverlayTree, ChildRowsAppendAndRemoveInOrder) {
  const OverlayTopology topology = GenerateTopology(SmallParams(7, 300));
  StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
  // Receiver 0 relays only in tree 0; its row there is a full fanout (the
  // heap fill saturates the first relays), and it is empty in tree 1.
  const std::vector<int> before(trees.children(0, 0).begin(), trees.children(0, 0).end());
  ASSERT_EQ(static_cast<int>(before.size()), trees.fanout);
  EXPECT_TRUE(trees.children(1, 0).empty());
  for (int c : before) {
    EXPECT_EQ(trees.parent[0][static_cast<size_t>(c)], 0);
  }
  // Removing a middle child keeps the others in order and frees one slot.
  trees.RemoveChild(0, 0, before[2]);
  std::vector<int> expected = before;
  expected.erase(expected.begin() + 2);
  EXPECT_EQ(std::vector<int>(trees.children(0, 0).begin(), trees.children(0, 0).end()), expected);
  trees.AddChild(0, 0, before[2]);
  expected.push_back(before[2]);
  EXPECT_EQ(std::vector<int>(trees.children(0, 0).begin(), trees.children(0, 0).end()), expected);
  // The source may be overloaded past the fanout; only RespectsFanout says so.
  const std::vector<int> roots = trees.root_children[0];
  ASSERT_EQ(static_cast<int>(roots.size()), trees.fanout);
  trees.AddChild(0, kOverlaySource, before[2]);
  EXPECT_FALSE(RespectsFanout(trees));
  trees.RemoveChild(0, kOverlaySource, before[2]);
  EXPECT_EQ(trees.root_children[0], roots);
  EXPECT_TRUE(RespectsFanout(trees));
}

TEST(OverlayTreeDeathTest, ChildRowCapacityIsChecked) {
  const OverlayTopology topology = GenerateTopology(SmallParams(7, 300));
  StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
  ASSERT_EQ(static_cast<int>(trees.children(0, 0).size()), trees.fanout);
  // A full receiver row has no slot for another child...
  EXPECT_DEATH(trees.AddChild(0, 0, 299), "receiver child row has no free slot");
  // ...and a receiver has no row at all outside its interior tree.
  EXPECT_DEATH(trees.AddChild(1, 0, 299), "only a tree's interior group relays in it");
}

TEST(OverlayTree, NearOptimalDelayNeverWorseThanBalanced) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const OverlayTopology topology = GenerateTopology(SmallParams(seed, 400));
    for (int k : {1, 2}) {
      const StripedTrees balanced = TreeBuilder::Build(topology, k, TreePolicy::kBalancedFanout);
      const StripedTrees optimal = TreeBuilder::Build(topology, k, TreePolicy::kNearOptimalDelay);
      EXPECT_LE(ComputeDelayStats(topology, optimal).mean_us,
                ComputeDelayStats(topology, balanced).mean_us + 1e-9)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(OverlayChurnPlan, TextRoundTripIsExact) {
  ChurnStormOptions storm;
  storm.receiver_count = 200;
  storm.protected_receivers = {0, 17};
  storm.permanent_fraction = 0.25;
  const FaultPlan plan = RandomChurnPlan(99, storm);
  ASSERT_GE(plan.events.size(), static_cast<size_t>(storm.min_events));
  for (const FaultEvent& event : plan.events) {
    EXPECT_EQ(event.kind, FaultKind::kChurn);
    EXPECT_NE(event.target, 0);
    EXPECT_NE(event.target, 17);
  }

  const std::string text = FormatFaultPlan(plan);
  EXPECT_NE(text.find("churn recv="), std::string::npos);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(text, &parsed, &error)) << error;
  EXPECT_EQ(FormatFaultPlan(parsed), text);
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].at, plan.events[i].at);
    EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(parsed.events[i].target, plan.events[i].target);
    EXPECT_EQ(parsed.events[i].duration, plan.events[i].duration);
  }
}

TEST(OverlayChurnPlan, HandWrittenClauseParses) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("seed=5; @2s churn recv=117 for=400ms", &plan, &error)) << error;
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kChurn);
  EXPECT_EQ(TargetOf(plan.events[0].kind), FaultTarget::kReceiver);
  EXPECT_EQ(plan.events[0].target, 117);
  EXPECT_EQ(plan.events[0].at, Seconds(2));
  EXPECT_EQ(plan.events[0].duration, Millis(400));
}

TEST(ShardedOverlayMulticast, LosslessOverlayDeliversEverySegmentToEveryone) {
  const OverlayTopology topology = GenerateTopology(SmallParams(11, 120));
  StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
  ShardSet set;
  ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 1);
  multicast.Start(Millis(400));
  set.RunUntilQuiescent();

  ASSERT_GT(multicast.emitted(), 0);
  for (int r = 0; r < topology.receiver_count(); ++r) {
    EXPECT_EQ(multicast.stats(r).delivered, multicast.emitted()) << "r=" << r;
    EXPECT_EQ(multicast.stats(r).dropped_queue, 0) << "r=" << r;
    EXPECT_EQ(multicast.stats(r).dropped_loss, 0) << "r=" << r;
  }
  // Everyone present from the start gets exactly one join-latency sample.
  EXPECT_EQ(multicast.JoinLatencies().size(), static_cast<size_t>(topology.receiver_count()));
}

TEST(ShardedOverlayMulticast, LeaveRepairsAndRejoinMeasuresJoinLatency) {
  const OverlayTopology topology = GenerateTopology(SmallParams(13, 150));
  StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
  ShardSet set;
  ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 1);
  // The first root child of tree 0 relays the largest subtree.
  const int leaver = trees.root_children[0][0];
  ASSERT_FALSE(trees.children(0, leaver).empty());

  ShardedOverlayMulticast* mc = &multicast;
  multicast.Start(Millis(600));
  set.PostGlobal(Millis(200), TimerCallback([mc, leaver] { mc->Leave(leaver); }));
  set.PostGlobal(Millis(400), TimerCallback([mc, leaver] { mc->Join(leaver); }));
  set.RunUntilQuiescent();

  // The subtree was re-parented (repair log has the leave repairs plus the
  // rejoin) and the final structure is sound again.
  EXPECT_GT(multicast.repairs(), 0);
  EXPECT_TRUE(SpansAll(trees));
  EXPECT_TRUE(InteriorDisjoint(trees));
  EXPECT_TRUE(RespectsFanout(trees));
  EXPECT_TRUE(IsAcyclic(trees));
  EXPECT_EQ(multicast.repair().overflow(), 0);
  // One extra join sample beyond the initial population: the rejoin.
  EXPECT_EQ(multicast.JoinLatencies().size(),
            static_cast<size_t>(topology.receiver_count()) + 1);
  // The leaver missed the segments emitted while it was away but is back to
  // receiving afterwards.
  EXPECT_LT(multicast.stats(leaver).delivered, multicast.emitted());
  EXPECT_GT(multicast.stats(leaver).last_delivery, Millis(400));
}

TEST(ShardedOverlayChurnDriver, AppliesPlanAndSkipsDoubleDepartures) {
  const OverlayTopology topology = GenerateTopology(SmallParams(17, 100));
  StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
  ShardSet set;
  ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 1);

  FaultPlan plan;
  std::string error;
  // Receiver 5 departs twice while away (second is a skip), rejoins once.
  // The box crash belongs to a Simulation's FaultDriver: the churn driver
  // counts it ignored and arms nothing for it.
  ASSERT_TRUE(ParseFaultPlan("seed=1; @100ms churn recv=5 for=300ms;"
                             " @200ms churn recv=5 for=50ms; @150ms churn recv=9;"
                             " @120ms crash box=5 for=100ms",
                             &plan, &error))
      << error;
  ShardedOverlayChurnDriver churn(&set, &multicast, plan);
  multicast.Start(Millis(600));
  churn.Start();
  set.RunUntilQuiescent();

  EXPECT_EQ(churn.departures(), 3);
  EXPECT_EQ(churn.rejoins(), 2);
  EXPECT_EQ(churn.ignored(), 1);
  // One departure and one rejoin were no-ops (5 already absent; then its
  // first rejoin fires at 400ms, the second at 250ms finds it still absent
  // ... exactly one of the two rejoins lands, the other is skipped).
  EXPECT_GT(multicast.churn_skipped(), 0);
  // Receiver 9 never rejoins (duration 0: gone for good).
  EXPECT_TRUE(trees.absent(9));
  EXPECT_FALSE(trees.absent(5));
  EXPECT_TRUE(IsAcyclic(trees));
  EXPECT_TRUE(InteriorDisjoint(trees));
}

TEST(OverlayFaultDriverSplit, SimulationDriverSkipsReceiverEvents) {
  // The Simulation-level FaultDriver has no receiver registry; a mixed plan
  // replayed there must count churn events as skipped, not crash.  Checked
  // here via TargetOf only (the Simulation-level behavior is covered in
  // fault_test.cc); the overlay driver mirrors it for non-churn kinds.
  EXPECT_EQ(TargetOf(FaultKind::kChurn), FaultTarget::kReceiver);
  EXPECT_EQ(TargetOf(FaultKind::kBoxCrash), FaultTarget::kBox);
  EXPECT_EQ(TargetOf(FaultKind::kBurstLoss), FaultTarget::kCall);
}

}  // namespace
}  // namespace pandora
