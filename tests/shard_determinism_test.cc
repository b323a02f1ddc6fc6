// Shard-invariance determinism suite for the M:N scheduler (ShardSet).
//
// The contract under test, from DESIGN.md section 13: per-shard dispatch
// order is a pure function of (seed, plan, shard assignment) — never of the
// executor thread count — and the single-shard configuration is bit-
// identical to a bare Scheduler, so every pre-shard golden keeps its bytes.
//
// Three configurations of the same storm are compared:
//
//   threads=1 / shards=1     the legacy engine (delegation fast path)
//   threads=1 / shards=8     conservative windows, no helper threads
//   threads=8 / shards=8     conservative windows on 8 OS threads
//
// The last two must agree on EVERYTHING (per-shard order-sensitive hashes,
// window count, cross-shard message count, context switches): M:N execution
// is pure bookkeeping.  The first must agree on the partition-invariant
// merged hash and every traffic total: conservative sync delivers the same
// multiset of (time, payload) per link that the sequential engine does.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/fault/plan.h"
#include "src/overlay/sharded.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/time.h"
#include "tests/shard_harness.h"

namespace pandora {
namespace {

ShardStormOptions BaseStorm(uint64_t seed) {
  ShardStormOptions opt;
  opt.shards = 8;
  opt.threads = 1;
  opt.total_actors = 32;
  opt.seed = seed;
  opt.duration = Seconds(1);
  return opt;
}

TEST(ShardDeterminism, ThreadCountIsInvisible) {
  // Same partition, 1 vs 8 executor threads: every observable — including
  // the order-sensitive per-shard chains and the scheduler digests — must be
  // byte-identical.  This is the M:N core guarantee.
  ShardStormOptions sequential = BaseStorm(0xA11CE);
  ShardStormOptions threaded = sequential;
  threaded.threads = 8;

  const ShardStormResult a = RunShardStorm(sequential);
  const ShardStormResult b = RunShardStorm(threaded);

  ASSERT_EQ(a.shard_hashes.size(), 8u);
  for (size_t s = 0; s < a.shard_hashes.size(); ++s) {
    EXPECT_EQ(a.shard_hashes[s], b.shard_hashes[s]) << "shard " << s << " diverged";
  }
  EXPECT_TRUE(a == b);
  // The storm was real: traffic crossed shards and forwarders churned.
  EXPECT_GT(a.deliveries, 1000u);
  EXPECT_GT(a.cross_shard_messages, 1000u);
  EXPECT_GT(a.replies, 0u);
  EXPECT_GT(a.windows, 0u);
}

TEST(ShardDeterminism, DispatchOrderMatchesPinnedGolden) {
  // Every other test here compares two runs of the same binary, so a change
  // to the mailbox drain order that stays thread-invariant (say, draining
  // outboxes in reverse source order) would pass them all.  These constants
  // pin the per-shard dispatch order itself: any change to how cross-shard
  // entries reach the destination wheels moves them.
  const std::vector<uint64_t> golden8 = {
      0x1aca1fbffa354581ull, 0x0fb1a542143a447full, 0xdb98952a7e0d90f1ull,
      0x0767da64114567dbull, 0xb3605538aec38334ull, 0xe454f4a49211730dull,
      0x80982e573a36f979ull, 0xfdc55a760e90f634ull,
  };
  const std::vector<uint64_t> golden4 = {
      0x280573322b48ed27ull, 0xeb8b6c69d85398a9ull, 0xd5feb2cc0ef24dd2ull,
      0x2c1273c01912e95eull,
  };
  ShardStormOptions eight = BaseStorm(0xA11CE);
  ShardStormOptions four = eight;
  four.shards = 4;
  four.threads = 4;
  const ShardStormResult a = RunShardStorm(eight);
  const ShardStormResult b = RunShardStorm(four);
  EXPECT_EQ(a.shard_hashes, golden8);
  EXPECT_EQ(b.shard_hashes, golden4);
  EXPECT_GT(a.cross_shard_messages, 1000u);
  EXPECT_GT(b.cross_shard_messages, 1000u);
}

TEST(ShardSetMailbox, EqualDeadlineEntriesDispatchInSourceThenPostOrder) {
  // The property the mailbox drain relies on, stated once: entries that
  // three source shards post to one destination for the same instant, in
  // one window, dispatch in (source shard, post order) — not in the order
  // the sources ran — and an earlier deadline still dispatches first even
  // though each source armed it last.  Sources run in reverse shard order
  // inside the window, so post-time order would be the opposite.
  for (const int threads : {1, 3}) {
    ShardSetOptions options;
    options.shards = 4;
    options.threads = threads;
    ShardSet set(options);
    ShardSet* sp = &set;
    constexpr int kDst = 3;
    constexpr int kPerSource = 3;
    std::vector<int> log;  // 10 * src + k; touched only on shard kDst
    std::vector<int>* lp = &log;
    for (int src = 0; src < 3; ++src) {
      const Time start = Millis(1) + Micros(300 * (2 - src));
      set.shard(src).AddTimer(start, TimerCallback([sp, lp, src] {
        for (int k = 0; k < kPerSource; ++k) {
          sp->Post(src, kDst, Millis(5),
                   TimerCallback([lp, src, k] { lp->push_back(10 * src + k); }));
        }
        sp->Post(src, kDst, Millis(4), TimerCallback([lp, src] { lp->push_back(10 * src + 9); }));
      }));
    }
    set.RunUntilQuiescent();
    const std::vector<int> expected = {9, 19, 29, 0, 1, 2, 10, 11, 12, 20, 21, 22};
    EXPECT_EQ(log, expected) << "threads=" << threads;
    EXPECT_EQ(set.cross_shard_messages(), 12u);
    set.Shutdown();
  }
}

TEST(ShardDeterminism, PartitionIsInvisibleToObservables) {
  // 1 shard vs 8 shards (either thread count): the partition may only change
  // which wheel arms a timer, never what any actor observes.  Totals and the
  // commutative merged hash pin the multiset of deliveries per link.
  ShardStormOptions single = BaseStorm(0xBEEF);
  single.shards = 1;
  ShardStormOptions eight = BaseStorm(0xBEEF);
  ShardStormOptions eight_mt = eight;
  eight_mt.threads = 8;

  const ShardStormResult one = RunShardStorm(single);
  const ShardStormResult seq = RunShardStorm(eight);
  const ShardStormResult par = RunShardStorm(eight_mt);

  EXPECT_EQ(one.merged_hash, seq.merged_hash);
  EXPECT_EQ(one.merged_hash, par.merged_hash);
  EXPECT_EQ(one.sends, seq.sends);
  EXPECT_EQ(one.deliveries, seq.deliveries);
  EXPECT_EQ(one.drops, seq.drops);
  EXPECT_EQ(one.replies, seq.replies);
  EXPECT_GT(one.deliveries, 1000u);
  // The single-shard run went down the legacy fast path: no windows, no
  // mailboxes — the pre-shard engine, byte for byte.
  EXPECT_EQ(one.windows, 0u);
  EXPECT_EQ(one.cross_shard_messages, 0u);
  EXPECT_GT(seq.cross_shard_messages, 0u);
}

TEST(ShardDeterminism, ReplayIsBitExactAcrossRuns) {
  // Two cold runs of the identical threaded configuration, fault plan and
  // all: process slabs, wheels, pools and worker pool are rebuilt from
  // scratch, and every hash must still come out identical.
  RandomPlanOptions plan_options;
  plan_options.start = Millis(100);
  plan_options.horizon = Millis(700);
  plan_options.min_events = 4;
  plan_options.max_events = 8;
  plan_options.box_count = 32;
  plan_options.call_count = 4;
  plan_options.min_episode = Millis(50);
  plan_options.max_episode = Millis(200);
  const FaultPlan plan = RandomFaultPlan(0xD15EA5E, plan_options);

  ShardStormOptions opt = BaseStorm(0xF00D);
  opt.threads = 8;
  opt.plan = &plan;

  const ShardStormResult first = RunShardStorm(opt);
  const ShardStormResult second = RunShardStorm(opt);
  EXPECT_TRUE(first == second);
  EXPECT_GT(first.deliveries, 0u);
}

TEST(ShardDeterminism, ChaosOverlayIsPartitionInvariant) {
  // A scripted storm with every materialised fault kind: crashes + restarts
  // (kill sweeps mid-window), churn, burst loss and a jitter storm.  The
  // merged hash must survive repartitioning even while actors die and their
  // forwarders are swept.
  FaultPlan plan;
  FaultEvent crash;
  crash.at = Millis(200);
  crash.kind = FaultKind::kBoxCrash;
  crash.target = 3;
  crash.duration = Millis(150);
  plan.events.push_back(crash);
  FaultEvent churn;
  churn.at = Millis(300);
  churn.kind = FaultKind::kChurn;
  churn.target = 13;
  churn.duration = Millis(200);
  plan.events.push_back(churn);
  FaultEvent loss;
  loss.at = Millis(350);
  loss.kind = FaultKind::kBurstLoss;
  loss.value = 0.4;
  loss.duration = Millis(250);
  plan.events.push_back(loss);
  FaultEvent jitter;
  jitter.at = Millis(500);
  jitter.kind = FaultKind::kJitterStorm;
  jitter.value = 900;  // up to 900us of extra (still lookahead-safe) latency
  jitter.duration = Millis(300);
  plan.events.push_back(jitter);

  ShardStormOptions single = BaseStorm(0xCAFE);
  single.shards = 1;
  single.plan = &plan;
  ShardStormOptions eight_mt = BaseStorm(0xCAFE);
  eight_mt.threads = 8;
  eight_mt.plan = &plan;

  const ShardStormResult one = RunShardStorm(single);
  const ShardStormResult par = RunShardStorm(eight_mt);

  // The overlay engaged identically in both partitions.
  EXPECT_EQ(one.crashes, 2u);
  EXPECT_EQ(one.restarts, 2u);
  EXPECT_GT(one.drops, 0u);
  EXPECT_EQ(par.crashes, one.crashes);
  EXPECT_EQ(par.restarts, one.restarts);
  EXPECT_EQ(par.drops, one.drops);
  EXPECT_EQ(par.sends, one.sends);
  EXPECT_EQ(par.deliveries, one.deliveries);
  EXPECT_EQ(par.merged_hash, one.merged_hash);
}

TEST(ShardDeterminism, SingleShardIsBitIdenticalToBareScheduler) {
  // The golden-compatibility proof: the identical coroutine workload on a
  // bare Scheduler and on ShardSet{shards=1} must agree on the full
  // execution fingerprint — clock, context switches, pending timers, event
  // chain.  This is why every pre-shard golden (chaos_golden, the trace and
  // core goldens) is untouched by this refactor: Simulation now runs on a
  // ShardSet, and this path adds zero perturbation.
  auto pinger = [](Scheduler* sched, uint64_t* chain, int id, int rounds) -> Process {
    for (int i = 0; i < rounds; ++i) {
      co_await sched->WaitFor(Micros(100 + 37 * id));
      *chain = FnvMix(*chain, static_cast<uint64_t>(sched->now()) ^ static_cast<uint64_t>(id));
      if ((i & 3) == 0) {
        co_await sched->Yield();
        *chain = FnvMix(*chain, 0x5eedull + static_cast<uint64_t>(id));
      }
    }
  };
  struct Fingerprint {
    uint64_t chain = 1469598103934665603ull;
    uint64_t switches = 0;
    Time now = 0;
    size_t pending = 0;
    size_t live = 0;
  };
  const auto drive = [&](Scheduler& sched, auto run_until) {
    Fingerprint fp;
    for (int id = 0; id < 16; ++id) {
      sched.Spawn(pinger(&sched, &fp.chain, id, 40), "pinger",
                  (id & 1) != 0 ? Priority::kHigh : Priority::kLow);
    }
    run_until(Millis(30));
    fp.switches = sched.context_switches();
    fp.now = sched.now();
    fp.pending = sched.pending_timer_count();
    fp.live = sched.live_process_count();
    return fp;
  };

  Scheduler bare;
  const Fingerprint a = drive(bare, [&](Time t) { bare.RunUntil(t); });
  bare.Shutdown();

  ShardSet set(ShardSetOptions{});  // shards=1, threads=1
  const Fingerprint b = drive(set.scheduler(), [&](Time t) { set.RunUntil(t); });

  EXPECT_EQ(a.chain, b.chain);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.pending, b.pending);
  EXPECT_EQ(a.live, b.live);
  EXPECT_NE(a.switches, 0u);
  // Legacy mode never opened a window or touched a mailbox.
  EXPECT_EQ(set.windows(), 0u);
  EXPECT_EQ(set.cross_shard_messages(), 0u);
  set.Shutdown();
}

TEST(ShardDeterminism, LookaheadScalesWindowCountNotObservables) {
  // Doubling the lookahead halves (roughly) the number of windows but must
  // not change what any actor sees: the window size is an engine tuning
  // knob, not a semantic one.  (Links in the storm carry latency >= the
  // configured lookahead, so both settings satisfy the contract.)
  ShardStormOptions tight = BaseStorm(0x1DEA);
  tight.lookahead = Millis(1);
  tight.base_latency = Millis(1);  // pin link latency across the sweep
  tight.duration = Millis(500);
  ShardStormOptions wide = tight;
  wide.lookahead = Micros(500);  // same links, smaller safe horizon

  const ShardStormResult a = RunShardStorm(tight);
  const ShardStormResult c = RunShardStorm(wide);
  EXPECT_GT(c.windows, a.windows);
  EXPECT_EQ(a.merged_hash, c.merged_hash);
  EXPECT_EQ(a.sends, c.sends);
  EXPECT_EQ(a.deliveries, c.deliveries);
}

// --- Spanning Simulation worlds ---------------------------------------------
// The full product stack — PandoraBoxes, the ATM fabric, host plumbing —
// placed across the ShardSet rather than the synthetic storm actors above.

struct SpanningCalls {
  std::vector<PandoraBox*> boxes;
  std::vector<StreamId> at_dst;
  std::vector<PandoraBox*> dst;
};

// Four audio-only boxes pinned round-robin onto the set's shards, a ring of
// calls between neighbours (every leg cross-shard when shards > 1) plus one
// split copy two shards away.  Cross-shard circuits carry a 1 ms final
// propagation — exactly the set's lookahead floor.
SpanningCalls BuildSpanningWorld(Simulation& sim) {
  SpanningCalls world;
  const int shards = sim.shard_set().shard_count();
  for (int i = 0; i < 4; ++i) {
    PandoraBox::Options options;
    options.name = "span" + std::to_string(i);
    options.with_video = false;
    options.shard = i % shards;
    world.boxes.push_back(&sim.AddBox(options));
  }
  sim.Start();
  CallPath wan;
  wan.direct.propagation = Millis(1);
  for (int i = 0; i < 4; ++i) {
    PandoraBox& src = *world.boxes[static_cast<size_t>(i)];
    PandoraBox& dst = *world.boxes[static_cast<size_t>((i + 1) % 4)];
    world.at_dst.push_back(sim.SendAudio(src, dst, wan));
    world.dst.push_back(&dst);
  }
  world.at_dst.push_back(
      sim.SplitAudioTo(*world.boxes[0], world.boxes[0]->mic_stream(), *world.boxes[2], wan));
  world.dst.push_back(world.boxes[2]);
  return world;
}

// Order-sensitive digest of everything the world observed: fabric totals,
// per-shard execution fingerprints, per-box wire-path copies, per-call
// receive trackers, per-shard report logs.
uint64_t SpanningFingerprint(Simulation& sim, const SpanningCalls& world) {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, sim.network().total_delivered());
  hash = FnvMix(hash, sim.network().total_lost());
  hash = FnvMix(hash, sim.network().total_corrupted());
  for (int s = 0; s < sim.shard_set().shard_count(); ++s) {
    Scheduler& shard = sim.shard_set().shard(s);
    hash = FnvMix(hash, shard.context_switches());
    hash = FnvMix(hash, static_cast<uint64_t>(shard.now()));
    hash = FnvMix(hash, shard.pending_timer_count());
    hash = FnvMix(hash, sim.reports_for(s).size());
  }
  for (PandoraBox* box : world.boxes) {
    hash = FnvMix(hash, box->crash_count());
    hash = FnvMix(hash, box->crashed() ? 1u : box->deep_copies());
  }
  for (size_t i = 0; i < world.at_dst.size(); ++i) {
    if (world.dst[i]->crashed()) {
      hash = FnvMix(hash, 0xdead);
      continue;
    }
    const SequenceTracker* tracker =
        world.dst[i]->audio_receiver().TrackerFor(world.at_dst[i]);
    if (tracker == nullptr) {
      hash = FnvMix(hash, 0);
      continue;
    }
    hash = FnvMix(hash, tracker->received());
    hash = FnvMix(hash, tracker->missing_total());
  }
  return hash;
}

TEST(SpanningSimulation, ThreadCountIsInvisible) {
  // The acceptance bar for the spanning refactor: a Simulation whose boxes
  // live on four different shards produces byte-identical observables at 1
  // and 4 worker threads.
  SimulationOptions options;
  options.seed = 0x5A17;
  options.shards = 4;
  options.threads = 1;
  Simulation seq(options);
  SpanningCalls seq_world = BuildSpanningWorld(seq);
  seq.RunFor(Seconds(2));

  options.threads = 4;
  Simulation par(options);
  SpanningCalls par_world = BuildSpanningWorld(par);
  par.RunFor(Seconds(2));

  EXPECT_EQ(SpanningFingerprint(seq, seq_world), SpanningFingerprint(par, par_world));
  // The world genuinely spanned: live audio crossed shard boundaries.
  EXPECT_GT(seq.network().total_delivered(), 1000u);
  EXPECT_GT(seq.shard_set().cross_shard_messages(), 1000u);
  EXPECT_GT(par.shard_set().windows(), 0u);
}

TEST(SpanningSimulation, LegacyCtorIsTheSingleShardOptionsWorld) {
  // Simulation(seed) must be exactly SimulationOptions{seed} with one shard:
  // same placement (none), same RNG streams, same execution fingerprint.
  Simulation legacy(7);
  SpanningCalls legacy_world = BuildSpanningWorld(legacy);
  legacy.RunFor(Seconds(1));

  SimulationOptions options;
  options.seed = 7;
  Simulation modern(options);
  SpanningCalls modern_world = BuildSpanningWorld(modern);
  modern.RunFor(Seconds(1));

  EXPECT_EQ(SpanningFingerprint(legacy, legacy_world),
            SpanningFingerprint(modern, modern_world));
  // Single-shard worlds ride the legacy fast path: no windows, no mailboxes.
  EXPECT_EQ(modern.shard_set().windows(), 0u);
  EXPECT_EQ(modern.shard_set().cross_shard_messages(), 0u);
}

TEST(SpanningSimulation, SeededPlacementIsDeterministicAndSpreads) {
  // Boxes that leave Options::shard at -1 draw from the Simulation's seeded
  // placement stream: two worlds with one seed place identically, and the
  // draws actually use more than one shard.
  SimulationOptions options;
  options.seed = 99;
  options.shards = 4;
  Simulation a(options);
  Simulation b(options);
  std::vector<int> placed_a;
  std::vector<int> placed_b;
  for (int i = 0; i < 16; ++i) {
    PandoraBox::Options box_options;
    box_options.name = "p" + std::to_string(i);
    box_options.with_video = false;
    placed_a.push_back(a.AddBox(box_options).shard());
    placed_b.push_back(b.AddBox(box_options).shard());
  }
  EXPECT_EQ(placed_a, placed_b);
  std::set<int> distinct(placed_a.begin(), placed_a.end());
  EXPECT_GT(distinct.size(), 1u);
  for (int shard : placed_a) {
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
  }
}

// --- The lookahead contract, enforced loudly --------------------------------

TEST(ShardSetPostDeathTest, PostInsideWindowViolatesLookaheadContract) {
  // A cross-shard message due at the sender's own `now` lands inside the
  // very window it was produced in: the destination may already have run
  // past that instant, so Post must refuse to rewrite history.
  ShardSetOptions options;
  options.shards = 2;
  options.threads = 1;  // no worker threads: safe for the default death-test style
  ShardSet set(options);
  ShardSet* sp = &set;
  set.shard(0).AddTimer(Millis(5), TimerCallback([sp] {
    sp->Post(0, 1, sp->shard(0).now(), TimerCallback([] {}));
  }));
  EXPECT_DEATH(set.RunUntilQuiescent(), "cross-shard Post inside the conservative window");
  set.Shutdown();
}

TEST(ShardSetPostDeathTest, PostGlobalIntoExecutedWindowDies) {
  ShardSetOptions options;
  options.shards = 2;
  options.threads = 1;
  ShardSet set(options);
  set.shard(0).AddTimer(Millis(5), TimerCallback([] {}));
  set.RunUntilQuiescent();
  EXPECT_DEATH(set.PostGlobal(Millis(1), TimerCallback([] {})), "already-executed window");
  set.Shutdown();
}

TEST(SpanningSimulationDeathTest, CrossShardCircuitBelowLookaheadFloorDies) {
  // The contract surfaces at plumbing time, not delivery time: opening a
  // circuit whose final-stage propagation undercuts the lookahead dies in
  // OpenCircuit, long before any segment could violate a window.
  SimulationOptions options;
  options.shards = 2;
  Simulation sim(options);
  PandoraBox::Options box_options;
  box_options.name = "near";
  box_options.with_video = false;
  box_options.shard = 0;
  PandoraBox& near_box = sim.AddBox(box_options);
  box_options.name = "far";
  box_options.shard = 1;
  PandoraBox& far_box = sim.AddBox(box_options);
  sim.Start();
  // Default direct quality: 20 us propagation, far below the 1 ms lookahead.
  EXPECT_DEATH(sim.SendAudio(near_box, far_box),
               "cross-shard circuit latency below the ShardSet lookahead floor");
}

// --- Sharded overlay data plane ---------------------------------------------

TEST(ShardedOverlay, RunHashIsThreadAndPartitionInvariant) {
  // A 600-receiver striped overlay under a churn storm: the observable run
  // hash must not depend on the worker-thread count, nor — because loss
  // draws are stateless per copy and every counter is per-receiver — on the
  // partition itself (1 shard vs 4).
  TopologyParams params;
  params.seed = 71;
  params.receivers = 600;
  params.fanout = 4;
  const auto run = [&params](int shards, int threads) {
    OverlayTopology topology = GenerateTopology(params);
    StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
    ChurnStormOptions storm;
    storm.receiver_count = params.receivers;
    storm.start = Millis(300);
    storm.horizon = Millis(1200);
    storm.min_events = 24;
    storm.max_events = 32;
    storm.permanent_fraction = 0.1;
    const FaultPlan plan = RandomChurnPlan(/*seed=*/5, storm);

    ShardSetOptions shard_options;
    shard_options.shards = shards;
    shard_options.threads = threads;
    ShardSet set(shard_options);
    ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 404);
    ShardedOverlayChurnDriver churn(&set, &multicast, plan);
    multicast.Start(/*emit_until=*/Millis(1800));
    churn.Start();
    set.RunUntilQuiescent();
    EXPECT_GT(multicast.emitted(), 0);
    EXPECT_GT(multicast.repairs(), 0);
    // The storm leaves well-formed trees behind on every partition.
    EXPECT_TRUE(SpansAll(trees));
    EXPECT_TRUE(InteriorDisjoint(trees));
    EXPECT_TRUE(RespectsFanout(trees));
    EXPECT_TRUE(IsAcyclic(trees));
    const uint64_t hash = multicast.RunHash();
    set.Shutdown();
    return hash;
  };
  const uint64_t single = run(1, 1);
  const uint64_t sharded = run(4, 1);
  const uint64_t threaded = run(4, 4);
  EXPECT_EQ(single, sharded);
  EXPECT_EQ(sharded, threaded);
}

// Pins the sharded data plane's observable outcome to recorded values, so a
// storage-layout change that shifts every run alike (which the invariance
// test above cannot see) still fails.  One lossy link class exercises the
// loss draw, a tight queue budget the lane-shed path, and the storm
// includes rejoins; k = 1, 2, 3 cover the per-stripe indexing.  Each world
// runs on 4 shards at 1 and 4 threads.
struct OverlayGolden {
  int receivers;
  int stripes;
  int fanout;
  uint64_t run_hash;
  OverlayReceiverStats probe;              // stats(kProbe)
  std::vector<int64_t> probe_by_tree;      // delivered_on_tree(kProbe, t)
  OverlayReceiverStats total;              // every counter summed over receivers
};

TEST(ShardedOverlay, RunHashMatchesPinnedGolden) {
  constexpr int kProbe = 5;
  const std::vector<OverlayGolden> worlds = {
      {2000, 1, 4, 0x7b12d058062fd79eull, {291, 0, 0, 0, 0, 1213343}, {291},
       {583519, 0, 1791, 94, 53, 0}},
      {3000, 2, 10, 0x986411c77695d18cull, {199, 0, 5, 0, 0, 1215555}, {53, 146},
       {704410, 77750, 2158, 0, 43, 0}},
      {4000, 3, 6, 0x6b61764273473bdaull, {298, 0, 0, 0, 0, 1221712}, {100, 98, 100},
       {1182043, 0, 3524, 17, 62, 0}},
  };
  for (const OverlayGolden& world : worlds) {
    TopologyParams params;
    params.seed = 0x5eed + static_cast<uint64_t>(world.stripes);
    params.receivers = world.receivers;
    params.fanout = world.fanout;
    params.classes.back().link.loss_rate = 0.03;  // the constrained tail is lossy
    ChurnStormOptions storm;
    storm.receiver_count = world.receivers;
    storm.start = Millis(200);
    storm.horizon = Millis(900);
    storm.min_events = 40;
    storm.max_events = 48;
    storm.min_away = Millis(30);
    storm.max_away = Millis(300);
    storm.permanent_fraction = 0.1;
    const FaultPlan plan = RandomChurnPlan(/*seed=*/11, storm);
    MulticastParams mc_params;
    mc_params.queue_budget = 8;  // sheds the tenth copy of a fanout-10 burst
    for (const int threads : {1, 4}) {
      const std::string what =
          "k=" + std::to_string(world.stripes) + " threads=" + std::to_string(threads);
      OverlayTopology topology = GenerateTopology(params);
      StripedTrees trees =
          TreeBuilder::Build(topology, world.stripes, TreePolicy::kBalancedFanout);
      ShardSetOptions shard_options;
      shard_options.shards = 4;
      shard_options.threads = threads;
      ShardSet set(shard_options);
      ShardedOverlayMulticast multicast(&set, &topology, &trees, mc_params, 77);
      ShardedOverlayChurnDriver churn(&set, &multicast, plan);
      multicast.Start(/*emit_until=*/Millis(1200));
      churn.Start();
      set.RunUntilQuiescent();

      EXPECT_EQ(multicast.RunHash(), world.run_hash) << what;
      const OverlayReceiverStats probe = multicast.stats(kProbe);
      EXPECT_EQ(probe.delivered, world.probe.delivered) << what;
      EXPECT_EQ(probe.dropped_queue, world.probe.dropped_queue) << what;
      EXPECT_EQ(probe.dropped_loss, world.probe.dropped_loss) << what;
      EXPECT_EQ(probe.dropped_late, world.probe.dropped_late) << what;
      EXPECT_EQ(probe.missed_absent, world.probe.missed_absent) << what;
      EXPECT_EQ(probe.last_delivery, world.probe.last_delivery) << what;
      for (int t = 0; t < world.stripes; ++t) {
        EXPECT_EQ(multicast.delivered_on_tree(kProbe, t),
                  world.probe_by_tree[static_cast<size_t>(t)])
            << what << " t=" << t;
      }
      OverlayReceiverStats total;
      for (int r = 0; r < world.receivers; ++r) {
        const OverlayReceiverStats st = multicast.stats(r);
        total.delivered += st.delivered;
        total.dropped_queue += st.dropped_queue;
        total.dropped_loss += st.dropped_loss;
        total.dropped_late += st.dropped_late;
        total.missed_absent += st.missed_absent;
      }
      EXPECT_EQ(total.delivered, world.total.delivered) << what;
      EXPECT_EQ(total.dropped_queue, world.total.dropped_queue) << what;
      EXPECT_EQ(total.dropped_loss, world.total.dropped_loss) << what;
      EXPECT_EQ(total.dropped_late, world.total.dropped_late) << what;
      EXPECT_EQ(total.missed_absent, world.total.missed_absent) << what;
      set.Shutdown();
    }
  }
}

}  // namespace
}  // namespace pandora
