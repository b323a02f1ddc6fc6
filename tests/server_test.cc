// Tests for the server subsystem: degradation policy (P1-P3), the switch
// (splitting, P5/P6, drop accounting) and the network output splitter (P2).
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/segment/wire.h"
#include "src/server/degrade.h"
#include "src/server/netio.h"
#include "src/server/stream_table.h"
#include "src/server/switch.h"

namespace pandora {
namespace {

StreamAttrs Attrs(StreamId id, bool incoming, bool audio, uint64_t order) {
  return StreamAttrs{id, incoming, audio, order};
}

TEST(DegradeOrderTest, IncomingBeforeOutgoing) {
  // P1: the overloaded user's own transmissions survive longest.
  EXPECT_TRUE(DegradesBefore(Attrs(1, true, true, 5), Attrs(2, false, true, 1)));
  EXPECT_FALSE(DegradesBefore(Attrs(2, false, true, 1), Attrs(1, true, true, 5)));
}

TEST(DegradeOrderTest, VideoBeforeAudio) {
  // P2, within the same direction.
  EXPECT_TRUE(DegradesBefore(Attrs(1, true, false, 9), Attrs(2, true, true, 1)));
  EXPECT_FALSE(DegradesBefore(Attrs(2, true, true, 1), Attrs(1, true, false, 9)));
}

TEST(DegradeOrderTest, OldestFirstWithinClass) {
  // P3: the unexpected new call wins over long-open streams.
  EXPECT_TRUE(DegradesBefore(Attrs(1, true, true, 1), Attrs(2, true, true, 2)));
  EXPECT_FALSE(DegradesBefore(Attrs(2, true, true, 2), Attrs(1, true, true, 1)));
}

TEST(DegradeOrderTest, RepositoryReversesDirection) {
  // Reversed P1: recordings (incoming) are the last to degrade.
  EXPECT_TRUE(DegradesBefore(Attrs(1, false, true, 5), Attrs(2, true, true, 1),
                             /*recording_priority=*/true));
}

TEST(AdaptiveDegraderTest, PressureGrowsAndRecovers) {
  Scheduler sched;
  AdaptiveDegrader degrader(AdaptiveDegrader::Options{.recovery_period = Millis(10)});
  std::vector<StreamAttrs> active = {Attrs(1, true, true, 1), Attrs(2, true, true, 2)};

  EXPECT_FALSE(degrader.ShouldDrop(active[0], active));
  degrader.OnBufferFull(0);
  EXPECT_EQ(degrader.suppressed_count(), 1);
  // Oldest (open_order 1) is shed; the newer stream keeps flowing (P3).
  EXPECT_TRUE(degrader.ShouldDrop(active[0], active));
  EXPECT_FALSE(degrader.ShouldDrop(active[1], active));

  degrader.OnBufferFull(Millis(1));
  EXPECT_TRUE(degrader.ShouldDrop(active[1], active));  // both shed now

  degrader.MaybeRecover(Millis(12));
  EXPECT_EQ(degrader.suppressed_count(), 1);
  degrader.MaybeRecover(Millis(25));
  EXPECT_EQ(degrader.suppressed_count(), 0);
  EXPECT_FALSE(degrader.ShouldDrop(active[0], active));
}

TEST(StreamTableTest, OpenOrderStampsAndRouting) {
  StreamTable table;
  table.Open(10, true, true);
  table.Open(11, false, false);
  EXPECT_LT(table.Find(10)->attrs.open_order, table.Find(11)->attrs.open_order);
  table.AddDestination(10, 0);
  table.AddDestination(10, 1);
  table.AddDestination(10, 1);  // idempotent
  EXPECT_EQ(table.Find(10)->destinations.size(), 2u);
  table.RemoveDestination(10, 0);
  EXPECT_EQ(table.Find(10)->destinations.size(), 1u);
  auto active = table.ActiveTowards(1);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].stream, 10u);
}

// --- Switch -------------------------------------------------------------------

struct SwitchRig {
  SwitchRig()
      : pool(&sched, "pool", 128),
        sw(&sched, SwitchOptions{.name = "sw"}, nullptr, &reports),
        out_a(&sched, {.name = "outA", .capacity = 8, .use_ready_channel = true}, &reports),
        out_b(&sched, {.name = "outB", .capacity = 8, .use_ready_channel = true}, &reports) {
    dest_a = sw.AddDestination("a", &out_a);
    dest_b = sw.AddDestination("b", &out_b);
  }

  void Start() {
    sw.Start();
    out_a.Start();
    out_b.Start();
  }

  SegmentRef MakeRef(StreamId stream, uint32_t seq) {
    auto ref = pool.TryAllocate();
    **ref = MakeAudioSegment(stream, seq, 0, std::vector<uint8_t>(32, 0));
    return std::move(*ref);
  }

  Scheduler sched;
  ReportCollector reports;
  BufferPool pool;
  Switch sw;
  DecouplingBuffer out_a;
  DecouplingBuffer out_b;
  DestinationId dest_a;
  DestinationId dest_b;
  ShutdownGuard guard{&sched};
};

Process DrainBuffer(Scheduler* sched, DecouplingBuffer* buffer, std::vector<uint32_t>* got,
                    Duration pace = 0) {
  for (;;) {
    SegmentRef ref = co_await buffer->output().Receive();
    got->push_back(ref->header.sequence);
    if (pace > 0) {
      co_await sched->WaitFor(pace);
    }
  }
}

TEST(SwitchTest, RoutesToSingleDestination) {
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(5, rig.dest_a, true, true);
  std::vector<uint32_t> got;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 10; ++i) {
      SegmentRef ref = rig->MakeRef(5, i);  // named: GCC 12 co_await-arg workaround
      co_await rig->sw.input().Send(std::move(ref));
      co_await s->WaitFor(Millis(1));
    }
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got), "drain");
  rig.sched.RunFor(Millis(50));
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(rig.sw.segments_switched(), 10u);
  EXPECT_EQ(rig.sw.segments_dropped(), 0u);
}

TEST(SwitchTest, SplitsToTwoDestinationsWithRefCounts) {
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(5, rig.dest_a, true, true);
  rig.sw.OpenRoute(5, rig.dest_b, true, true);
  std::vector<uint32_t> got_a;
  std::vector<uint32_t> got_b;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 10; ++i) {
      SegmentRef ref = rig->MakeRef(5, i);  // named: GCC 12 co_await-arg workaround
      co_await rig->sw.input().Send(std::move(ref));
      co_await s->WaitFor(Millis(1));
    }
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got_a), "drainA");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_b, &got_b), "drainB");
  rig.sched.RunFor(Millis(50));
  EXPECT_EQ(got_a.size(), 10u);
  EXPECT_EQ(got_b.size(), 10u);
  EXPECT_EQ(rig.pool.free_count(), 128u);  // every duplicate released
}

TEST(SwitchTest, StalledDestinationDoesNotAffectTheOtherCopy) {
  // Principle 5: destination B never drains; A must still get everything.
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(5, rig.dest_a, true, true);
  rig.sw.OpenRoute(5, rig.dest_b, true, true);
  std::vector<uint32_t> got_a;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 100; ++i) {
      SegmentRef ref = rig->MakeRef(5, i);
      co_await rig->sw.input().Send(std::move(ref));
      co_await s->WaitFor(Millis(1));
    }
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got_a), "drainA");
  // Nobody drains out_b.
  rig.sched.RunFor(Millis(200));
  EXPECT_EQ(got_a.size(), 100u);  // every segment, in spite of B
  EXPECT_GT(rig.sw.segments_dropped(), 80u);  // B's copies were shed
  EXPECT_GT(rig.reports.CountOf("switch.dropped.b"), 0u);
  // Sequence recovery data is intact: drops were recorded per stream.
  EXPECT_EQ(rig.sw.drops_for(5), rig.sw.segments_dropped());
}

TEST(SwitchTest, ReconfigurationDoesNotDisturbExistingCopy) {
  // Principle 6: add then remove a second destination mid-flow; destination
  // A sees a perfect, gapless sequence throughout.
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(5, rig.dest_a, true, true);
  std::vector<uint32_t> got_a;
  std::vector<uint32_t> got_b;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 60; ++i) {
      SegmentRef ref = rig->MakeRef(5, i);
      co_await rig->sw.input().Send(std::move(ref));
      co_await s->WaitFor(Millis(1));
    }
  };
  auto reconfigure = [](Scheduler* s, SwitchRig* rig) -> Process {
    co_await s->WaitUntil(Millis(20));
    co_await rig->sw.commands().Send(Command{CommandVerb::kOpenRoute, 5, rig->dest_b, 1});
    co_await s->WaitUntil(Millis(40));
    co_await rig->sw.commands().Send(Command{CommandVerb::kCloseRoute, 5, rig->dest_b, 0});
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  rig.sched.Spawn(reconfigure(&rig.sched, &rig), "reconf");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got_a), "drainA");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_b, &got_b), "drainB");
  rig.sched.RunFor(Millis(100));
  ASSERT_EQ(got_a.size(), 60u);
  for (uint32_t i = 0; i < 60; ++i) {
    EXPECT_EQ(got_a[i], i);  // gapless despite the mid-flow re-plumbing
  }
  EXPECT_GT(got_b.size(), 5u);
  EXPECT_LT(got_b.size(), 40u);  // only the middle window
}

TEST(SwitchTest, MoveRouteHandsOverWithoutAGapOrDuplicate) {
  // The overlay repair hook: kMoveRoute re-parents one destination in a
  // single table mutation, so there is never a route-less window (a gap)
  // nor an instant with both routes live (a duplicate).
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(5, rig.dest_a, true, true);
  std::vector<uint32_t> got_a;
  std::vector<uint32_t> got_b;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 60; ++i) {
      SegmentRef ref = rig->MakeRef(5, i);
      co_await rig->sw.input().Send(std::move(ref));
      co_await s->WaitFor(Millis(1));
    }
  };
  auto mover = [](Scheduler* s, SwitchRig* rig) -> Process {
    co_await s->WaitUntil(Millis(30));
    co_await rig->sw.commands().Send(
        Command{CommandVerb::kMoveRoute, 5, rig->dest_a, rig->dest_b});
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  rig.sched.Spawn(mover(&rig.sched, &rig), "mover");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got_a), "drainA");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_b, &got_b), "drainB");
  rig.sched.RunFor(Millis(100));
  // A's prefix plus B's suffix is the whole stream, each segment exactly once.
  ASSERT_EQ(got_a.size() + got_b.size(), 60u);
  for (uint32_t i = 0; i < got_a.size(); ++i) {
    EXPECT_EQ(got_a[i], i);
  }
  for (uint32_t i = 0; i < got_b.size(); ++i) {
    EXPECT_EQ(got_b[i], static_cast<uint32_t>(got_a.size()) + i);
  }
  EXPECT_GT(got_b.size(), 10u);  // the handover actually happened mid-flow
  // Moving a stream that is not routed to `from` mutates nothing.
  EXPECT_FALSE(rig.sw.table().MoveDestination(5, rig.dest_a, rig.dest_b));
}

TEST(SwitchTest, SustainedOverloadShedsOldestStreamFirst) {
  // Principle 3 via the AdaptiveDegrader: two streams into one slow
  // destination; the older stream takes the loss.
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(1, rig.dest_a, true, true);  // opened first = older
  rig.sw.OpenRoute(2, rig.dest_a, true, true);
  std::vector<uint32_t> got;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 300; ++i) {
      SegmentRef ref1 = rig->MakeRef(1, i);
      co_await rig->sw.input().Send(std::move(ref1));
      SegmentRef ref2 = rig->MakeRef(2, i);
      co_await rig->sw.input().Send(std::move(ref2));
      co_await s->WaitFor(Millis(1));
    }
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  // Drain at half the offered rate: sustained overload.
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got, Millis(1)), "slow-drain");
  rig.sched.RunFor(Millis(400));
  EXPECT_GT(rig.sw.drops_for(1), 3 * rig.sw.drops_for(2));
}

TEST(SwitchTest, CommandsProcessedDuringDataFlow) {
  // Principle 4: a status report command lands while data is streaming.
  SwitchRig rig;
  rig.Start();
  rig.sw.OpenRoute(5, rig.dest_a, true, true);
  std::vector<uint32_t> got;
  auto feeder = [](Scheduler* s, SwitchRig* rig) -> Process {
    for (uint32_t i = 0; i < 50; ++i) {
      SegmentRef ref = rig->MakeRef(5, i);
      co_await rig->sw.input().Send(std::move(ref));
      co_await s->WaitFor(Micros(500));
    }
  };
  auto commander = [](Scheduler* s, SwitchRig* rig) -> Process {
    co_await s->WaitUntil(Millis(10));
    co_await rig->sw.commands().Send(Command{CommandVerb::kReportStatus, 0, 0, 0});
  };
  rig.sched.Spawn(feeder(&rig.sched, &rig), "feeder");
  rig.sched.Spawn(commander(&rig.sched, &rig), "commander");
  rig.sched.Spawn(DrainBuffer(&rig.sched, &rig.out_a, &got), "drain");
  rig.sched.RunFor(Millis(60));
  EXPECT_EQ(rig.reports.CountOf("switch.status"), 1u);
  EXPECT_EQ(got.size(), 50u);
}

// --- NetworkOutput -------------------------------------------------------------

TEST(NetworkOutputTest, AudioDrainedBeforeVideo) {
  ShardSet set;
  Scheduler& sched = set.scheduler();
  ReportCollector reports;
  BufferPool pool(&sched, "pool", 128);
  AtmNetwork net(&set);
  AtmPort* src = net.AddPort("src", 20'000'000);
  AtmPort* dst = net.AddPort("dst");
  StreamTable table;
  NetworkOutput netout(&sched, {.name = "no"}, &table, src, &reports);
  ShutdownGuard guard(&sched);
  netout.Start();
  net.OpenCircuit(src, 1, dst);
  net.OpenCircuit(src, 2, dst);

  std::vector<Segment> got;
  auto rx = [](AtmPort* port, std::vector<Segment>* got) -> Process {
    for (;;) {
      NetRx in = co_await port->rx().Receive();
      DecodeResult decoded = DecodeSegment(in.wire->bytes, StreamField::kOmitted, in.vci);
      EXPECT_TRUE(decoded.ok) << decoded.error;
      got->push_back(std::move(decoded.segment));
    }
  };
  auto feeder = [](Scheduler* s, BufferPool* pool, NetworkOutput* no) -> Process {
    // Queue 4 large video segments then 4 audio segments at once; audio
    // must leave the box first even though video arrived first.
    for (uint32_t i = 0; i < 4; ++i) {
      auto video = pool->TryAllocate();
      VideoHeader vh;
      vh.x_width = 100;
      vh.line_count = 40;
      **video = MakeVideoSegment(2, i, 0, vh, std::vector<uint8_t>(4000, 1));
      co_await no->input().Send(std::move(*video));
      (void)co_await no->ready().Receive();
    }
    for (uint32_t i = 0; i < 4; ++i) {
      auto audio = pool->TryAllocate();
      **audio = MakeAudioSegment(1, i, 0, std::vector<uint8_t>(32, 2));
      co_await no->input().Send(std::move(*audio));
      (void)co_await no->ready().Receive();
    }
    (void)s;
  };
  sched.Spawn(rx(dst, &got), "rx");
  sched.Spawn(feeder(&sched, &pool, &netout), "feeder");
  sched.RunFor(Millis(100));
  ASSERT_EQ(got.size(), 8u);
  // At most one video segment (already owning the sender when audio landed)
  // precedes the audio block.
  size_t first_audio = 99;
  size_t audio_seen = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].is_audio()) {
      first_audio = std::min(first_audio, i);
      ++audio_seen;
    }
  }
  EXPECT_EQ(audio_seen, 4u);
  // Up to two video segments can already be committed downstream of the
  // priority point when the first audio arrives (one in hand at the video
  // buffer's output, one taken by the network sender); everything still
  // queued yields to audio.
  EXPECT_LE(first_audio, 2u);
}

TEST(NetworkOutputTest, SaturatedInterfaceDropsVideoNotAudio) {
  ShardSet set;
  Scheduler& sched = set.scheduler();
  ReportCollector reports;
  BufferPool pool(&sched, "pool", 256);
  AtmNetwork net(&set);
  AtmPort* src = net.AddPort("src", 2'000'000);  // slow interface
  AtmPort* dst = net.AddPort("dst");
  StreamTable table;
  NetworkOutput netout(&sched, {.name = "no", .video_buffer_capacity = 2}, &table, src, &reports);
  ShutdownGuard guard(&sched);
  netout.Start();
  net.OpenCircuit(src, 1, dst);
  net.OpenCircuit(src, 2, dst);

  auto sink = [](AtmPort* port) -> Process {
    for (;;) {
      (void)co_await port->rx().Receive();
    }
  };
  auto feeder = [](Scheduler* s, BufferPool* pool, NetworkOutput* no) -> Process {
    for (uint32_t i = 0; i < 200; ++i) {
      auto audio = pool->TryAllocate();
      **audio = MakeAudioSegment(1, i, 0, std::vector<uint8_t>(32, 2));
      co_await no->input().Send(std::move(*audio));
      (void)co_await no->ready().Receive();
      // 10KB of video every 4ms = 20 Mbit/s offered to a 2 Mbit/s link.
      auto video = pool->TryAllocate();
      VideoHeader vh;
      vh.x_width = 100;
      vh.line_count = 100;
      **video = MakeVideoSegment(2, i, 0, vh, std::vector<uint8_t>(10'000, 1));
      co_await no->input().Send(std::move(*video));
      (void)co_await no->ready().Receive();
      co_await s->WaitFor(Millis(4));
    }
  };
  sched.Spawn(sink(dst), "sink");
  sched.Spawn(feeder(&sched, &pool, &netout), "feeder");
  sched.RunFor(Seconds(1));
  const CircuitStats* audio_stats = net.StatsFor(src, 1);
  EXPECT_GT(netout.video_drops(), 50u);  // video shed at the splitter
  EXPECT_EQ(netout.audio_drops(), 0u);   // audio all forwarded
  EXPECT_GT(audio_stats->delivered, 150u);
  EXPECT_GT(reports.CountOf("netout.video_drop"), 0u);
}

TEST(NetworkOutputTest, PaperScaleUplinkShedsVideoNotAudio) {
  // E9's uplink at unit scale: raw 320x240 video in quarter-frame segments
  // (19.2 KB, about 77 ms each on a 2 Mbit/s interface) at 25 fps, and a
  // 4 ms audio cadence, with the default 64-slot audio and 6-slot video
  // buffers.  Audio waits behind at most one video segment on the wire, so
  // its buffer never fills; a sender that shipped the queued video as one
  // burst (over 500 ms) would overflow the 256 ms of audio buffering.
  ShardSet set;
  Scheduler& sched = set.scheduler();
  BufferPool pool(&sched, "pool", 256);
  AtmNetwork net(&set);
  AtmPort* src = net.AddPort("src", 2'000'000);
  AtmPort* dst = net.AddPort("dst");
  StreamTable table;
  NetworkOutput netout(&sched, {.name = "no"}, &table, src);
  ShutdownGuard guard(&sched);
  netout.Start();
  net.OpenCircuit(src, 1, dst);
  net.OpenCircuit(src, 2, dst);

  auto sink = [](AtmPort* port) -> Process {
    for (;;) {
      (void)co_await port->rx().Receive();
    }
  };
  auto feeder = [](Scheduler* s, BufferPool* pool, NetworkOutput* no) -> Process {
    for (uint32_t i = 0; i < 750; ++i) {
      auto audio = pool->TryAllocate();
      **audio = MakeAudioSegment(1, i, s->now(), std::vector<uint8_t>(32, 2));
      co_await no->input().Send(std::move(*audio));
      (void)co_await no->ready().Receive();
      if (i % 10 == 0) {
        // One 320x240 frame every 40 ms, as four 60-line segments.
        for (uint32_t part = 0; part < 4; ++part) {
          auto video = pool->TryAllocate();
          VideoHeader vh;
          vh.frame_number = i / 10;
          vh.segments_in_frame = 4;
          vh.segment_number = part;
          vh.start_line_y = 60 * part;
          vh.x_width = 320;
          vh.line_count = 60;
          **video = MakeVideoSegment(2, 4 * (i / 10) + part, s->now(), vh,
                                     std::vector<uint8_t>(320 * 60, 1));
          co_await no->input().Send(std::move(*video));
          (void)co_await no->ready().Receive();
        }
      }
      co_await s->WaitFor(Millis(4));
    }
  };
  sched.Spawn(sink(dst), "sink");
  sched.Spawn(feeder(&sched, &pool, &netout), "feeder");
  sched.RunFor(Seconds(4));
  EXPECT_EQ(netout.audio_drops(), 0u);  // P2: audio is never shed
  EXPECT_EQ(netout.audio_sent(), 750u);
  EXPECT_GT(netout.video_drops(), 100u);  // ~15 Mbit/s of video on 2 Mbit/s
  EXPECT_EQ(net.StatsFor(src, 1)->delivered, 750u);
}

}  // namespace
}  // namespace pandora
