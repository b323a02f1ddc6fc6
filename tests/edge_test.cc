// Edge-case coverage across modules: command-driven stop/start, buffer
// shrink, playout overflow, empty playback, mid-flight circuit teardown.
#include <gtest/gtest.h>

#include "src/audio/codec.h"
#include "src/audio/sender.h"
#include "src/audio/signal.h"
#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/net/atm.h"
#include "src/repository/repository.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/segment/wire.h"
#include "src/video/capture.h"
#include "src/video/framestore.h"

namespace pandora {
namespace {

TEST(EdgeTest, AudioSenderStopAndRestart) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 16);
  SineSource tone(440.0);
  Channel<AudioBlock> mic(&sched, "mic");
  Channel<SegmentRef> wire(&sched, "wire");
  CodecInput codec(&sched, {.name = "in"}, &tone, &mic);
  AudioSender sender(&sched, {.name = "snd", .stream = 1}, &mic, &pool, &wire);
  ShutdownGuard guard(&sched);
  codec.Start();
  sender.Start();

  uint64_t received = 0;
  auto sink = [](Channel<SegmentRef>* wire, uint64_t* n) -> Process {
    for (;;) {
      (void)co_await wire->Receive();
      ++*n;
    }
  };
  auto commander = [](Scheduler* s, CommandChannel* cmd) -> Process {
    co_await s->WaitUntil(Millis(100));
    co_await cmd->Send(Command{CommandVerb::kStop, 1, 0, 0});
    co_await s->WaitUntil(Millis(200));
    co_await cmd->Send(Command{CommandVerb::kStartStream, 1, 0, 0});
  };
  sched.Spawn(sink(&wire, &received), "sink");
  sched.Spawn(commander(&sched, &sender.commands()), "cmd");

  sched.RunFor(Millis(100));
  uint64_t at_stop = received;
  EXPECT_GT(at_stop, 20u);
  sched.RunFor(Millis(100));
  // While stopped the codec data is discarded at source.
  EXPECT_LE(received, at_stop + 1);
  sched.RunFor(Millis(100));
  EXPECT_GT(received, at_stop + 20);
}

TEST(EdgeTest, VideoCaptureStopAndRestart) {
  Scheduler sched;
  MovingBarPattern pattern(32);
  FrameStore store(&sched, &pattern, 32, 24);
  BufferPool pool(&sched, "pool", 32);
  Channel<SegmentRef> wire(&sched, "wire");
  VideoCapture capture(&sched,
                       {.name = "cap", .stream = 1, .rect = {0, 0, 32, 24},
                        .segments_per_frame = 1},
                       &store, &pool, &wire);
  ShutdownGuard guard(&sched);
  capture.Start();
  auto sink = [](Channel<SegmentRef>* wire) -> Process {
    for (;;) {
      (void)co_await wire->Receive();
    }
  };
  auto commander = [](Scheduler* s, CommandChannel* cmd) -> Process {
    co_await s->WaitUntil(Millis(500));
    co_await cmd->Send(Command{CommandVerb::kStop, 1, 0, 0});
    co_await s->WaitUntil(Seconds(1));
    co_await cmd->Send(Command{CommandVerb::kStartStream, 1, 0, 0});
  };
  sched.Spawn(sink(&wire), "sink");
  sched.Spawn(commander(&sched, &capture.commands()), "cmd");

  sched.RunFor(Millis(500));
  uint64_t at_stop = capture.frames_captured();
  EXPECT_NEAR(static_cast<double>(at_stop), 12.0, 2.0);
  sched.RunFor(Millis(500));
  EXPECT_EQ(capture.frames_captured(), at_stop);  // paused
  sched.RunFor(Millis(500));
  EXPECT_GT(capture.frames_captured(), at_stop + 8);  // resumed
}

TEST(EdgeTest, BufferShrinkBelowDepthPausesIntakeWithoutLoss) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 64);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 8});
  ShutdownGuard guard(&sched);
  buffer.Start();

  auto producer = [](Scheduler* s, BufferPool* p, DecouplingBuffer* b) -> Process {
    for (uint32_t i = 0; i < 20; ++i) {
      auto maybe = p->TryAllocate();
      **maybe = MakeAudioSegment(1, i, 0, std::vector<uint8_t>(16, 0));
      SegmentRef ref = std::move(*maybe);
      co_await b->input().Send(std::move(ref));
      co_await s->WaitFor(Micros(100));
    }
  };
  auto shrink = [](Scheduler* s, DecouplingBuffer* b) -> Process {
    co_await s->WaitUntil(Micros(450));  // several queued
    co_await b->commands().Send(Command{CommandVerb::kResizeBuffer, 0, 2, 0});
  };
  std::vector<uint32_t> got;
  auto consumer = [](Scheduler* s, DecouplingBuffer* b, std::vector<uint32_t>* got) -> Process {
    co_await s->WaitUntil(Millis(1));  // start draining late
    for (int i = 0; i < 20; ++i) {
      SegmentRef ref = co_await b->output().Receive();
      got->push_back(ref->header.sequence);
      co_await s->WaitFor(Micros(200));
    }
  };
  sched.Spawn(producer(&sched, &pool, &buffer), "producer");
  sched.Spawn(shrink(&sched, &buffer), "shrink");
  sched.Spawn(consumer(&sched, &buffer, &got), "consumer");
  sched.RunFor(Millis(20));
  ASSERT_EQ(got.size(), 20u);  // no loss across the shrink
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i], i);
  }
  EXPECT_EQ(buffer.capacity(), 2u);
}

TEST(EdgeTest, CodecOutputOverflowDropsOldest) {
  Scheduler sched;
  CodecOutput out(&sched, {.name = "out", .prime_blocks = 1, .max_fifo_blocks = 4});
  // Not started: nothing drains, so submissions overflow.
  for (int i = 0; i < 10; ++i) {
    AudioBlock block;
    block.source_time = i;
    out.SubmitBlock(block);
  }
  EXPECT_EQ(out.fifo_depth(), 4u);
  EXPECT_EQ(out.overflow_drops(), 6u);
}

TEST(EdgeTest, PlaybackOfUnknownRecordingIsANoOp) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 8);
  Repository repo(&sched, {.name = "repo"});
  ShutdownGuard guard(&sched);
  repo.Start();
  Channel<SegmentRef> out(&sched, "out");
  ProcessHandle handle = repo.Play(99, 1, &out, &pool);
  sched.RunFor(Millis(10));
  EXPECT_TRUE(handle.done());  // returned immediately, sent nothing
  EXPECT_EQ(out.waiting_senders(), 0u);
}

TEST(EdgeTest, CircuitClosedMidFlightDiscardsCleanly) {
  ShardSet set;
  Scheduler& sched = set.scheduler();
  BufferPool pool(&sched, "pool", 32);
  AtmNetwork net(&set);
  AtmPort* a = net.AddPort("a");
  AtmPort* b = net.AddPort("b");
  net.OpenCircuit(a, 42, b);
  ShutdownGuard guard(&sched);

  uint64_t delivered = 0;
  auto rx = [](AtmPort* port, uint64_t* n) -> Process {
    for (;;) {
      (void)co_await port->rx().Receive();
      ++*n;
    }
  };
  auto tx = [](Scheduler* s, BufferPool* p, AtmPort* a) -> Process {
    for (uint32_t i = 0; i < 20; ++i) {
      auto maybe = p->TryAllocate();
      **maybe = MakeAudioSegment(1, i, 0, std::vector<uint8_t>(16, 0));
      WireRef wire = co_await a->wire_pool().Allocate();
      EncodeSegmentInto(**maybe, StreamField::kOmitted, &wire->bytes);
      maybe->Reset();
      NetTx out;
      out.vci = 42;
      out.wire = std::move(wire);
      co_await a->tx().Send(std::move(out));
      co_await s->WaitFor(Millis(1));
    }
  };
  auto closer = [](Scheduler* s, AtmNetwork* net, AtmPort* a) -> Process {
    co_await s->WaitUntil(Millis(10));
    net->CloseCircuit(a, 42);
  };
  sched.Spawn(rx(b, &delivered), "rx");
  sched.Spawn(tx(&sched, &pool, a), "tx");
  sched.Spawn(closer(&sched, &net, a), "closer");
  sched.RunFor(Millis(100));
  EXPECT_GT(delivered, 5u);
  EXPECT_LT(delivered, 15u);          // the rest hit the closed circuit
  EXPECT_GT(a->unrouted(), 5u);       // and were discarded, not leaked
  EXPECT_EQ(pool.free_count(), 32u);  // every buffer recycled
  EXPECT_EQ(a->wire_pool().free_count(), a->wire_pool().capacity());  // wire images too
}

TEST(EdgeTest, ShutdownGuardIsIdempotent) {
  Scheduler sched;
  {
    ShutdownGuard guard(&sched);
    auto proc = [](Scheduler* s) -> Process { co_await s->WaitFor(Seconds(1)); };
    sched.Spawn(proc(&sched), "sleeper");
    sched.RunFor(Millis(1));
  }
  // Guard fired; explicit Shutdown again is safe, and so is destruction.
  sched.Shutdown();
  EXPECT_EQ(sched.live_process_count(), 0u);
}

}  // namespace
}  // namespace pandora
