// Thread-sanitizer soak for the sharded M:N scheduler.
//
// This suite exists to put every cross-thread edge of ShardSet under load
// while TSan watches (the PANDORA_TSAN CI leg): the coordinator/helper
// epoch barrier (spin and park paths, stop wake-up), mailbox production
// from many shards draining into many wheels, per-thread FramePool
// recycling under heavy spawn churn, kill sweeps racing nothing (they run
// inside a shard's own window), and the merged trace export reading every
// shard's buffer after the barriers have quiesced.  The assertions are
// deliberately light — the shard-invariance golden test owns exactness;
// under TSan this file's job is to make every racy interleaving REACHABLE,
// and let the sanitizer fail the run if any access is unsynchronised.
//
// Kept in the plain tier-1 run as well (it is cheap without instrumentation
// and doubles as an uneven-assignment regression test: shards % threads != 0
// exercises workers owning different shard counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/fault/plan.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/time.h"
#include "tests/shard_harness.h"

namespace pandora {
namespace {

TEST(ShardSoak, StormWithChurnAndChaosUnderFullThreading) {
  RandomPlanOptions plan_options;
  plan_options.start = Millis(50);
  plan_options.horizon = Millis(600);
  plan_options.min_events = 6;
  plan_options.max_events = 10;
  plan_options.box_count = 48;
  plan_options.call_count = 4;
  plan_options.min_episode = Millis(40);
  plan_options.max_episode = Millis(150);
  const FaultPlan plan = RandomFaultPlan(0x50AC, plan_options);

  ShardStormOptions opt;
  opt.shards = 8;
  opt.threads = 8;
  opt.total_actors = 48;
  opt.seed = 0x50AC;
  opt.duration = Millis(800);
  opt.plan = &plan;

  const ShardStormResult result = RunShardStorm(opt);
  EXPECT_GT(result.deliveries, 1000u);
  EXPECT_GT(result.cross_shard_messages, 0u);
  EXPECT_GT(result.windows, 0u);
}

TEST(ShardSoak, UnevenShardToWorkerAssignment) {
  // 8 shards on 3 workers: worker 0 owns shards {0,3,6}, worker 1 {1,4,7},
  // worker 2 {2,5}.  The result must match the sequential run anyway — and
  // under TSan the lopsided finish times stress the busy-count handshake.
  ShardStormOptions opt;
  opt.shards = 8;
  opt.threads = 3;
  opt.total_actors = 24;
  opt.seed = 0x0DD;
  opt.duration = Millis(600);

  ShardStormOptions sequential = opt;
  sequential.threads = 1;

  const ShardStormResult uneven = RunShardStorm(opt);
  const ShardStormResult seq = RunShardStorm(sequential);
  EXPECT_TRUE(uneven == seq);
  EXPECT_GT(uneven.deliveries, 0u);
}

TEST(ShardSoak, RepeatedWorldsRecycleCleanly) {
  // Build and tear down threaded worlds back to back: helper threads started
  // and joined, slabs/wheels/outboxes destroyed while another world's
  // threads run.  Leaks or use-after-join here are TSan/ASan food.
  uint64_t previous = 0;
  for (int round = 0; round < 3; ++round) {
    ShardStormOptions opt;
    opt.shards = 6;
    opt.threads = 6;
    opt.total_actors = 18;
    opt.seed = 0x7EA + static_cast<uint64_t>(round);
    opt.duration = Millis(300);
    const ShardStormResult result = RunShardStorm(opt);
    EXPECT_GT(result.deliveries, 0u);
    EXPECT_NE(result.merged_hash, previous);  // seeds differ, storms differ
    previous = result.merged_hash;
  }
}

TEST(ShardSoak, MergedTraceExportAfterThreadedRun) {
  // Tracing writes per-shard buffers from worker threads; the merge reads
  // them all on the coordinator after the final barrier.  TSan checks the
  // happens-before edge; the JSON shape check is incidental.
  ShardSetOptions set_options;
  set_options.shards = 4;
  set_options.threads = 4;
  ShardSet set(set_options);
  set.EnableTrace(1024);
  for (int s = 0; s < 4; ++s) {
    auto ticker = [](Scheduler* sched, int rounds) -> Process {
      for (int i = 0; i < rounds; ++i) {
        co_await sched->WaitFor(Micros(500));
      }
    };
    set.shard(s).Spawn(ticker(&set.shard(s), 50), "ticker");
  }
  set.RunUntil(Millis(40));
  const std::string json = set.ExportMergedTraceJson();
  EXPECT_NE(json.find("\"s0:"), std::string::npos);
  EXPECT_NE(json.find("\"s3:"), std::string::npos);
  set.Shutdown();
}

TEST(ShardSoak, SameWindowErrorsRethrowLowestShardFirst) {
  // Shards 1 and 3 throw at the same instant, so in the same window.  Shard
  // 0 always runs on the coordinator; the throwers run inline (1 thread), on
  // one helper (2 threads) or on two different helpers (4 threads).  Which
  // error escapes must not depend on which thread finished first, and the
  // set must still tear down cleanly afterwards.
  for (const int threads : {1, 2, 4}) {
    for (int round = 0; round < 8; ++round) {
      ShardSetOptions options;
      options.shards = 4;
      options.threads = threads;
      ShardSet set(options);
      auto ticker = [](Scheduler* sched) -> Process {
        for (int i = 0; i < 40; ++i) {
          co_await sched->WaitFor(Micros(250));
        }
      };
      auto thrower = [](Scheduler* sched, int shard) -> Process {
        co_await sched->WaitFor(Millis(5));
        throw std::runtime_error("shard " + std::to_string(shard));
      };
      set.shard(0).Spawn(ticker(&set.shard(0)), "ticker0");
      set.shard(2).Spawn(ticker(&set.shard(2)), "ticker2");
      set.shard(1).Spawn(thrower(&set.shard(1), 1), "thrower1");
      set.shard(3).Spawn(thrower(&set.shard(3), 3), "thrower3");
      std::string escaped;
      try {
        set.RunUntil(Millis(20));
      } catch (const std::runtime_error& e) {
        escaped = e.what();
      }
      EXPECT_EQ(escaped, "shard 1") << threads << " threads, round " << round;
    }
  }
}

TEST(ShardSoak, IdleHelpersWakeOnStop) {
  // Sets that never run a window: helpers must leave their wait when the set
  // is destroyed, whether they are still starting, spinning, or parked.
  for (int threads = 2; threads <= 8; ++threads) {
    ShardSetOptions options;
    options.shards = 8;
    options.threads = threads;
    { ShardSet immediate(options); }
    ShardSet parked(options);
    // Long past any spin budget, so every helper has parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(parked.windows(), 0u);
    EXPECT_EQ(parked.barrier_parks(), 0u);  // counted on wake, not on park
  }
}

TEST(ShardSoak, OversubscribedThreadsParkAndMatchSequential) {
  // More threads than the host has hardware threads: every barrier wait
  // skips the spin and parks at once.  The per-shard digests must still
  // match the sequential run's.
  const int threads = std::max(2, static_cast<int>(std::thread::hardware_concurrency()) + 1);
  ShardStormOptions opt;
  opt.shards = threads;
  opt.threads = threads;
  opt.total_actors = 2 * threads;
  opt.seed = 0x0A7E;
  opt.duration = Millis(300);
  ShardStormOptions sequential = opt;
  sequential.threads = 1;

  ShardStormWorld world(opt);
  world.Start();
  world.RunUntil(opt.duration);
  const uint64_t parks = world.shard_set()->barrier_parks();
  const ShardStormResult oversubscribed = world.Finish();
  const ShardStormResult seq = RunShardStorm(sequential);
  EXPECT_EQ(oversubscribed.shard_hashes, seq.shard_hashes);
  EXPECT_TRUE(oversubscribed == seq);
  EXPECT_GT(oversubscribed.deliveries, 0u);
  EXPECT_GT(parks, 0u);
}

}  // namespace
}  // namespace pandora
