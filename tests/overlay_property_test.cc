// Overlay property suite: transitive P5/P6 over random generated
// topologies (ROADMAP item 2, ISSUE 7 tentpole d).
//
//   - Structure: >= 100 random (population, fanout, stripes, policy) tree
//     builds hold SpansAll / InteriorDisjoint / RespectsFanout / IsAcyclic,
//     and the near-optimal-delay ordering never loses to the balanced fill
//     on mean delay (the rearrangement bound is a theorem, so it gets
//     asserted on every topology, not spot-checked).
//   - P5 transitively: one choked interior relay starves only its own
//     subtree; every receiver outside it takes full delivery, bit for bit.
//   - P6 transitively: repair after one relay's departure re-parents only
//     that relay's stripe; sibling trees' structures are untouched and
//     their stripes flow loss-free through the repair.
//     Both run on one shard and on four (relays, deliveries and drop
//     notices crossing the ShardSet mailboxes).
//   - Churn storms converge: after a seeded join/leave storm quiesces,
//     every present receiver is rooted again and still receiving.
//   - City scale: a 10^4-receiver, k=2 striped overlay under a 100+-event
//     storm replays bit-exactly — the second run drives the plan through
//     its text round trip, so (format -> parse -> replay) must reproduce
//     the exact RunHash of the original.
//
// PANDORA_CHAOS_SEED_BASE offsets the seed range (chaos_sweep runs this
// suite as its 10th seed base); PANDORA_CHAOS_PLANS scales the per-test
// topology counts.
#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/plan.h"
#include "src/overlay/sharded.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"
#include "src/runtime/random.h"
#include "src/runtime/shard_set.h"

namespace pandora {
namespace {

uint64_t EnvSeedBase() {
  const char* base = std::getenv("PANDORA_CHAOS_SEED_BASE");
  return base == nullptr ? 0 : std::strtoull(base, nullptr, 10);
}

int EnvPlanCount(int fallback) {
  const char* count = std::getenv("PANDORA_CHAOS_PLANS");
  return count == nullptr ? fallback : std::atoi(count);
}

// Draws a random-but-buildable configuration: fanout comfortably above the
// stripe count so every tree's interior group can absorb the population.
struct DrawnWorld {
  TopologyParams params;
  int stripes = 1;
  TreePolicy policy = TreePolicy::kBalancedFanout;
};

DrawnWorld DrawWorld(uint64_t seed) {
  Rng rng(seed);
  DrawnWorld world;
  world.params.seed = seed;
  world.params.receivers = static_cast<int>(rng.UniformInt(60, 400));
  world.stripes = static_cast<int>(rng.UniformInt(1, 3));
  world.params.fanout = static_cast<int>(rng.UniformInt(2 * world.stripes + 2, 10));
  world.policy = rng.Bernoulli(0.5) ? TreePolicy::kNearOptimalDelay : TreePolicy::kBalancedFanout;
  return world;
}

std::string Describe(const DrawnWorld& world) {
  return "seed=" + std::to_string(world.params.seed) +
         " n=" + std::to_string(world.params.receivers) +
         " fanout=" + std::to_string(world.params.fanout) +
         " k=" + std::to_string(world.stripes) +
         (world.policy == TreePolicy::kNearOptimalDelay ? " policy=near-optimal"
                                                        : " policy=balanced");
}

// Strict descendants of `root` in tree t.
std::vector<int> SubtreeOf(const StripedTrees& trees, int t, int root) {
  std::vector<int> result;
  const std::span<const int> roots = trees.children(t, root);
  std::vector<int> frontier(roots.begin(), roots.end());
  while (!frontier.empty()) {
    int at = frontier.back();
    frontier.pop_back();
    result.push_back(at);
    const std::span<const int> kids = trees.children(t, at);
    frontier.insert(frontier.end(), kids.begin(), kids.end());
  }
  return result;
}

// A relay with a non-trivial subtree in its interior tree, or -1.
int PickInteriorRelay(const StripedTrees& trees, Rng& rng) {
  const int t = 0;
  const std::vector<int>& roots = trees.root_children[static_cast<size_t>(t)];
  std::vector<int> relays;
  for (int r : roots) {
    if (!trees.children(t, r).empty()) {
      relays.push_back(r);
    }
  }
  if (relays.empty()) {
    return -1;
  }
  return relays[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(relays.size()) - 1))];
}

void ExpectStructuralInvariants(const StripedTrees& trees, const std::string& what) {
  EXPECT_TRUE(SpansAll(trees)) << what;
  EXPECT_TRUE(InteriorDisjoint(trees)) << what;
  EXPECT_TRUE(RespectsFanout(trees)) << what;
  EXPECT_TRUE(IsAcyclic(trees)) << what;
}

TEST(OverlayProperty, RandomTreesHoldInvariantsAndDelayBound) {
  const uint64_t base = EnvSeedBase();
  const int count = EnvPlanCount(120);
  for (int i = 0; i < count; ++i) {
    const DrawnWorld world = DrawWorld(base + 500 + static_cast<uint64_t>(i));
    const OverlayTopology topology = GenerateTopology(world.params);
    const StripedTrees trees = TreeBuilder::Build(topology, world.stripes, world.policy);
    ExpectStructuralInvariants(trees, Describe(world));

    const StripedTrees balanced =
        TreeBuilder::Build(topology, world.stripes, TreePolicy::kBalancedFanout);
    const StripedTrees optimal =
        TreeBuilder::Build(topology, world.stripes, TreePolicy::kNearOptimalDelay);
    EXPECT_LE(ComputeDelayStats(topology, optimal).mean_us,
              ComputeDelayStats(topology, balanced).mean_us + 1e-9)
        << Describe(world);
  }
}

TEST(OverlayProperty, ChokedRelayStarvesOnlyItsOwnSubtree) {
  const uint64_t base = EnvSeedBase();
  const int count = std::max(1, EnvPlanCount(120) / 5);
  for (int i = 0; i < count; ++i) {
    DrawnWorld world = DrawWorld(base + 9000 + static_cast<uint64_t>(i));
    world.stripes = 1;  // single tree: the cross-subtree claim in isolation
    OverlayTopology topology = GenerateTopology(world.params);
    StripedTrees trees = TreeBuilder::Build(topology, world.stripes, world.policy);
    Rng pick(world.params.seed ^ 0xc0ffee);
    const int choked = PickInteriorRelay(trees, pick);
    if (choked < 0) {
      continue;
    }
    // An uplink three orders of magnitude below the stream rate: its first
    // few copies crawl out, then the lane budget sheds the rest.
    topology.links[static_cast<size_t>(choked)].bits_per_second = 1'000;
    const std::vector<int> starved = SubtreeOf(trees, 0, choked);
    std::vector<bool> in_subtree(static_cast<size_t>(topology.receiver_count()), false);
    for (int r : starved) {
      in_subtree[static_cast<size_t>(r)] = true;
    }

    // The claim holds on one engine and with the population partitioned.
    for (const int shards : {1, 4}) {
      const std::string what = Describe(world) + " shards=" + std::to_string(shards) +
                               " choked=" + std::to_string(choked);
      ShardSetOptions shard_options;
      shard_options.shards = shards;
      ShardSet set(shard_options);
      ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{},
                                        world.params.seed);
      multicast.Start(Millis(400));
      set.RunUntilQuiescent();

      int64_t starved_drops = 0;
      for (int r = 0; r < topology.receiver_count(); ++r) {
        if (in_subtree[static_cast<size_t>(r)]) {
          starved_drops += multicast.stats(r).dropped_queue;
          continue;
        }
        if (r == choked) {
          continue;  // the choked relay itself still RECEIVES fine
        }
        // P5, transitively: everyone outside the choked subtree is whole.
        EXPECT_EQ(multicast.stats(r).delivered, multicast.emitted()) << what << " r=" << r;
        EXPECT_EQ(multicast.stats(r).dropped_queue, 0) << what << " r=" << r;
      }
      EXPECT_GT(starved_drops, 0) << what << " subtree=" << starved.size();
    }
  }
}

TEST(OverlayProperty, RepairOfOneTreeNeverDisturbsTheOthers) {
  const uint64_t base = EnvSeedBase();
  const int count = std::max(1, EnvPlanCount(120) / 5);
  for (int i = 0; i < count; ++i) {
    DrawnWorld world = DrawWorld(base + 17000 + static_cast<uint64_t>(i));
    world.stripes = std::max(2, world.stripes);
    world.params.fanout = std::max(world.params.fanout, 2 * world.stripes + 2);
    const OverlayTopology topology = GenerateTopology(world.params);
    // The claim holds on one engine and with the population partitioned;
    // each run repairs its own fresh trees.
    for (const int shards : {1, 4}) {
      const std::string what = Describe(world) + " shards=" + std::to_string(shards);
      StripedTrees trees = TreeBuilder::Build(topology, world.stripes, world.policy);
      Rng pick(world.params.seed ^ 0xdecade);
      const int leaver = PickInteriorRelay(trees, pick);
      if (leaver < 0) {
        break;
      }
      const int home = trees.interior_tree(leaver);
      ASSERT_EQ(home, 0);  // PickInteriorRelay draws from tree 0

      const std::vector<std::vector<int>> parents_before = trees.parent;

      ShardSetOptions shard_options;
      shard_options.shards = shards;
      ShardSet set(shard_options);
      ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{},
                                        world.params.seed);
      ShardedOverlayMulticast* mc = &multicast;
      multicast.Start(Millis(400));
      set.PostGlobal(Millis(150), TimerCallback([mc, leaver] { mc->Leave(leaver); }));
      set.RunUntilQuiescent();

      // P6, structural: in every OTHER tree no receiver but the leaver was
      // re-parented — repair touched exactly one stripe.
      for (int t = 0; t < trees.stripes; ++t) {
        if (t == home) {
          continue;
        }
        for (int r = 0; r < topology.receiver_count(); ++r) {
          if (r == leaver) {
            continue;
          }
          EXPECT_EQ(trees.parent[static_cast<size_t>(t)][static_cast<size_t>(r)],
                    parents_before[static_cast<size_t>(t)][static_cast<size_t>(r)])
              << what << " tree=" << t << " r=" << r << " leaver=" << leaver;
        }
        // P6, observable: the other stripes flowed loss-free through the
        // departure and the repair.
        for (int r = 0; r < topology.receiver_count(); ++r) {
          if (r == leaver) {
            continue;
          }
          EXPECT_EQ(multicast.delivered_on_tree(r, t), multicast.emitted_on_tree(t))
              << what << " tree=" << t << " r=" << r;
        }
      }
      EXPECT_GT(multicast.repairs(), 0) << what;
      EXPECT_EQ(multicast.repair().overflow(), 0) << what;
    }
  }
}

TEST(OverlayProperty, ChurnStormsConvergeAndKeepDelivering) {
  const uint64_t base = EnvSeedBase();
  const int count = std::max(1, EnvPlanCount(120) / 10);
  for (int i = 0; i < count; ++i) {
    DrawnWorld world = DrawWorld(base + 33000 + static_cast<uint64_t>(i));
    const OverlayTopology topology = GenerateTopology(world.params);
    StripedTrees trees = TreeBuilder::Build(topology, world.stripes, world.policy);

    ChurnStormOptions storm;
    storm.receiver_count = world.params.receivers;
    storm.start = Millis(100);
    storm.horizon = Millis(400);
    storm.min_events = 16;
    storm.max_events = 48;
    storm.min_away = Millis(20);
    storm.max_away = Millis(150);
    storm.permanent_fraction = 0.1;
    const FaultPlan plan = RandomChurnPlan(world.params.seed ^ 0xbeef, storm);

    ShardSet set;
    ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{},
                                      world.params.seed);
    ShardedOverlayChurnDriver churn(&set, &multicast, plan);
    multicast.Start(Millis(900));
    churn.Start();

    // Let the storm and every scheduled repair play out, then snapshot and
    // verify the tail of the emission reaches every present receiver.
    set.RunUntil(Millis(700));
    std::vector<int64_t> delivered_mid(static_cast<size_t>(world.params.receivers), 0);
    for (int r = 0; r < world.params.receivers; ++r) {
      delivered_mid[static_cast<size_t>(r)] = multicast.stats(r).delivered;
    }
    set.RunUntilQuiescent();

    const std::string what = Describe(world) + " plan=\"" + FormatFaultPlan(plan) + "\"";
    ExpectStructuralInvariants(trees, what);
    EXPECT_EQ(multicast.repair().overflow(), 0) << what;
    for (int r = 0; r < world.params.receivers; ++r) {
      if (trees.absent(r)) {
        continue;
      }
      // Present after the storm means receiving after the storm (P8's
      // reconvergence flavor, transitively through the repaired trees).
      EXPECT_GT(multicast.stats(r).delivered, delivered_mid[static_cast<size_t>(r)])
          << what << " r=" << r;
    }
  }
}

TEST(OverlayProperty, CityScaleStripedStormReplaysBitExact) {
  // The ISSUE 7 acceptance scenario: 10^4 receivers, k=2 striping, a
  // 100+-event seeded storm — run once from the generated plan and once
  // from the plan's TEXT (format -> parse), which must reproduce the exact
  // observable outcome hash.
  TopologyParams params;
  params.seed = 1993;
  params.receivers = 10'000;
  const uint64_t storm_seed = 7 + EnvSeedBase();

  ChurnStormOptions storm;
  storm.receiver_count = params.receivers;
  storm.start = Seconds(1);
  storm.horizon = Millis(1600);
  storm.min_events = 100;
  storm.max_events = 128;
  storm.permanent_fraction = 0.05;
  const FaultPlan plan = RandomChurnPlan(storm_seed, storm);
  ASSERT_GE(plan.events.size(), 100u);

  FaultPlan replayed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(FormatFaultPlan(plan), &replayed, &error)) << error;

  auto run = [&](const FaultPlan& p) {
    OverlayTopology topology = GenerateTopology(params);
    StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
    ShardSet set;
    ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 404);
    ShardedOverlayChurnDriver churn(&set, &multicast, p);
    multicast.Start(Millis(1900));
    churn.Start();
    set.RunUntilQuiescent();
    ExpectStructuralInvariants(trees, "city-scale storm seed=" + std::to_string(storm_seed));
    EXPECT_GT(multicast.repairs(), 0);
    EXPECT_EQ(multicast.repair().overflow(), 0);
    return multicast.RunHash();
  };

  const uint64_t first = run(plan);
  const uint64_t second = run(replayed);
  EXPECT_EQ(first, second) << "text round-trip replay diverged; plan=\""
                           << FormatFaultPlan(plan) << "\"";
}

}  // namespace
}  // namespace pandora
