// Tests for the buffer subsystem: reference-counted pool, decoupling
// buffers with the ready-channel protocol, and clawback buffers (paper
// sections 3.4 and 3.7).
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/clawback.h"
#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/control/command.h"
#include "src/control/report.h"
#include "src/runtime/alt.h"
#include "src/runtime/channel.h"
#include "src/runtime/scheduler.h"
#include "src/segment/audio_block.h"
#include "src/segment/segment.h"

namespace pandora {
namespace {

SegmentRef MakeRef(BufferPool* pool, uint32_t sequence) {
  auto ref = pool->TryAllocate();
  EXPECT_TRUE(ref.has_value());
  **ref = MakeAudioSegment(1, sequence, 0, std::vector<uint8_t>(32, 0));
  return std::move(*ref);
}

AudioBlock MakeBlock(uint8_t fill = 0) {
  AudioBlock block;
  block.samples.fill(fill);
  return block;
}

// --- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, AllocateAndReleaseRoundTrip) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 4);
  EXPECT_EQ(pool.free_count(), 4u);
  {
    auto ref = pool.TryAllocate();
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(pool.free_count(), 3u);
    EXPECT_EQ(pool.RefCount(ref->index()), 1);
  }
  EXPECT_EQ(pool.free_count(), 4u);
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(BufferPoolTest, DupSharesBufferUntilBothReleased) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 2);
  auto a = pool.TryAllocate();
  ASSERT_TRUE(a.has_value());
  (*a)->stream = 42;
  SegmentRef b = a->Dup();
  EXPECT_EQ(pool.RefCount(a->index()), 2);
  EXPECT_EQ(b->stream, 42u);
  EXPECT_EQ(b.get(), a->get());  // same underlying buffer
  a->Reset();
  EXPECT_EQ(pool.free_count(), 1u);  // still held by b
  b.Reset();
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(BufferPoolTest, MovePassesReferenceWithoutCountChange) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 2);
  auto a = pool.TryAllocate();
  int32_t index = a->index();
  SegmentRef b = std::move(*a);
  EXPECT_FALSE(static_cast<bool>(*a));
  EXPECT_EQ(pool.RefCount(index), 1);
  b.Reset();
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(BufferPoolTest, StarvationParksRequesterAndReports) {
  Scheduler sched;
  ReportCollector reports;
  BufferPool pool(&sched, "pool", 1, &reports);
  ShutdownGuard guard(&sched);

  std::vector<int> got;
  auto hog = [](Scheduler* s, BufferPool* p, std::vector<int>* got) -> Process {
    SegmentRef first = co_await p->Allocate();
    got->push_back(1);
    co_await s->WaitFor(Millis(5));
    first.Reset();  // frees the buffer; handoff wakes the waiter
    co_await s->WaitFor(Millis(5));
  };
  auto waiter = [](BufferPool* p, std::vector<int>* got) -> Process {
    SegmentRef ref = co_await p->Allocate();  // parks: pool is empty
    got->push_back(2);
  };
  sched.Spawn(hog(&sched, &pool, &got), "hog");
  sched.Spawn(waiter(&pool, &got), "waiter");
  sched.RunUntilQuiescent();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(pool.starvation_events(), 1u);
  EXPECT_EQ(reports.CountOf("allocator.starved"), 1u);
}

TEST(BufferPoolTest, TryAllocateFailsWhenEmptyWithoutBlocking) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 1);
  auto a = pool.TryAllocate();
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(pool.TryAllocate().has_value());
  EXPECT_EQ(pool.min_free_seen(), 0u);
}

TEST(BufferPoolTest, FreedBufferIsScrubbed) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 1);
  {
    auto ref = pool.TryAllocate();
    (*ref)->payload.assign(100, 0xAB);
    (*ref)->stream = 9;
  }
  auto again = pool.TryAllocate();
  EXPECT_TRUE((*again)->payload.empty());
  EXPECT_EQ((*again)->stream, kInvalidStream);
}

// Regression test (found by ASan via the Medusa fan-out test): a SegmentRef
// parked as a value inside a channel lives in the channel object, not a
// coroutine frame, so Scheduler::Shutdown's frame teardown alone did not
// release it.  When the channel outlives the pool — a network port's tx
// channel vs. a device-owned pool — the channel destructor then DecRef'd
// into a destroyed pool.  Shutdown must drain parked channel values while
// every pool is still alive.
TEST(BufferPoolTest, ShutdownReleasesSegmentsParkedInChannels) {
  Scheduler sched;
  // Declared before the pool, so destroyed after it: the hazardous order.
  Channel<SegmentRef> chan(&sched, "parked");
  BufferPool pool(&sched, "pool", 2);
  auto sender = [](Channel<SegmentRef>* chan, BufferPool* pool) -> Process {
    auto ref = pool->TryAllocate();
    co_await chan->Send(std::move(*ref));
  };
  sched.Spawn(sender(&chan, &pool), "tx");
  sched.RunUntilQuiescent();
  ASSERT_EQ(chan.waiting_senders(), 1u);
  ASSERT_EQ(pool.free_count(), 1u);

  sched.Shutdown();
  EXPECT_EQ(chan.waiting_senders(), 0u);
  EXPECT_EQ(pool.free_count(), pool.capacity());
}

// --- DecouplingBuffer -------------------------------------------------------

TEST(DecouplingBufferTest, PassesSegmentsThroughInOrder) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 16);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 8});
  ShutdownGuard guard(&sched);
  buffer.Start();

  std::vector<uint32_t> got;
  auto producer = [](BufferPool* p, DecouplingBuffer* b) -> Process {
    for (uint32_t i = 0; i < 5; ++i) {
      SegmentRef ref = MakeRef(p, i);  // named: GCC 12 co_await-arg workaround
      co_await b->input().Send(std::move(ref));
    }
  };
  auto consumer = [](DecouplingBuffer* b, std::vector<uint32_t>* got) -> Process {
    for (int i = 0; i < 5; ++i) {
      SegmentRef ref = co_await b->output().Receive();
      got->push_back(ref->header.sequence);
    }
  };
  sched.Spawn(producer(&pool, &buffer), "producer");
  sched.Spawn(consumer(&buffer, &got), "consumer");
  sched.RunFor(Millis(1));
  ASSERT_EQ(got.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i], i);
  }
  EXPECT_EQ(buffer.total_in(), 5u);
  EXPECT_EQ(buffer.total_out(), 5u);
  EXPECT_EQ(pool.free_count(), 16u);  // all refs returned
}

TEST(DecouplingBufferTest, FullBufferBlocksPlainProducer) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 16);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 2});
  ShutdownGuard guard(&sched);
  buffer.Start();

  int sent = 0;
  auto producer = [](BufferPool* p, DecouplingBuffer* b, int* sent) -> Process {
    for (uint32_t i = 0; i < 5; ++i) {
      SegmentRef ref = MakeRef(p, i);
      co_await b->input().Send(std::move(ref));
      ++*sent;
    }
  };
  sched.Spawn(producer(&pool, &buffer, &sent), "producer");
  sched.RunFor(Millis(1));
  // Queue capacity 2 plus one segment parked in the output sender: the
  // producer completed 3 sends and is blocked on the 4th.
  EXPECT_EQ(sent, 3);
  EXPECT_TRUE(buffer.full());

  std::vector<uint32_t> got;
  auto consumer = [](DecouplingBuffer* b, std::vector<uint32_t>* got) -> Process {
    for (int i = 0; i < 5; ++i) {
      SegmentRef ref = co_await b->output().Receive();
      got->push_back(ref->header.sequence);
    }
  };
  sched.Spawn(consumer(&buffer, &got), "consumer");
  sched.RunFor(Millis(1));
  EXPECT_EQ(sent, 5);
  ASSERT_EQ(got.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(DecouplingBufferTest, ReadyChannelProtocol) {
  // Fig 3.6: immediate TRUE/FALSE after every input; deferred TRUE when a
  // slot frees; upstream drops instead of blocking after FALSE (P5).
  Scheduler sched;
  BufferPool pool(&sched, "pool", 32);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 2, .use_ready_channel = true});
  ShutdownGuard guard(&sched);
  buffer.Start();

  ReadySender sender(&buffer.input(), &buffer.ready());
  std::vector<bool> offered_ok;
  auto producer = [](Scheduler* s, BufferPool* p, ReadySender* snd,
                     std::vector<bool>* ok) -> Process {
    for (uint32_t i = 0; i < 10; ++i) {
      snd->Poll();  // pick up any deferred TRUE
      if (snd->can_send()) {
        SegmentRef ref = MakeRef(p, i);
        co_await snd->Send(std::move(ref));
        co_await snd->ConsumeReadySignal();  // the buffer's immediate reply
        ok->push_back(true);
      } else {
        snd->CountDrop();
        ok->push_back(false);
      }
      co_await s->WaitFor(Millis(1));
    }
    // The protocol obliges the upstream process to keep listening on the
    // ready channel after a FALSE; a real Pandora process never terminates.
    for (;;) {
      co_await snd->ConsumeReadySignal();
    }
  };
  std::vector<uint32_t> got;
  auto consumer = [](Scheduler* s, DecouplingBuffer* b, std::vector<uint32_t>* got) -> Process {
    co_await s->WaitUntil(Millis(6));  // stall, then drain slowly
    for (;;) {
      SegmentRef ref = co_await b->output().Receive();
      got->push_back(ref->header.sequence);
      co_await s->WaitFor(Millis(2));
    }
  };
  sched.Spawn(producer(&sched, &pool, &sender, &offered_ok), "producer");
  sched.Spawn(consumer(&sched, &buffer, &got), "consumer");
  sched.RunFor(Millis(60));

  EXPECT_GT(sender.drops(), 0u);
  EXPECT_EQ(sender.sent() + sender.drops(), 10u);
  // Everything that was sent arrived, in order (a strictly increasing
  // subsequence of 0..9) — the producer never blocked.
  ASSERT_EQ(got.size(), sender.sent());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1], got[i]);
  }
}

// One line of a protocol log: "<instant in µs>us <what> <value>".
void NoteAt(Scheduler* sched, std::vector<std::string>* log, const char* what, int64_t value) {
  log->push_back(std::to_string(sched->now() / Micros(1)) + "us " + what + " " +
                 std::to_string(value));
}

TEST(DecouplingBufferTest, ReadyRepliesKeepTheirSimulatedInstants) {
  // The fig 3.6 protocol in simulated time: every immediate reply, every
  // deferred TRUE and every hand-off at output() is pinned at its instant,
  // through a stall, a slow drain and a grow that settles an owed TRUE.
  // The producer offers at 0.25 ms + k ms, so no offer shares an instant
  // with a take (6, 8, ... ms) or the resize (3.5 ms).
  Scheduler sched;
  BufferPool pool(&sched, "pool", 32);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 2, .use_ready_channel = true});
  ShutdownGuard guard(&sched);
  buffer.Start();

  ReadySender sender(&buffer.input(), &buffer.ready());
  std::vector<std::string> log;
  auto producer = [](Scheduler* s, BufferPool* p, ReadySender* snd, Channel<bool>* ready,
                     std::vector<std::string>* log) -> Process {
    co_await s->WaitUntil(Micros(250));
    for (uint32_t i = 0; i < 12; ++i) {
      if (snd->can_send()) {
        SegmentRef ref = MakeRef(p, i);
        co_await snd->Send(std::move(ref));
        co_await snd->ConsumeReadySignal();  // the immediate reply
        NoteAt(s, log, "reply", snd->can_send() ? 1 : 0);
      } else {
        snd->CountDrop();
        NoteAt(s, log, "drop", i);
      }
      // Listen on the ready channel until the next offer is due, so each
      // deferred TRUE is logged at the instant it arrives.
      const Time next = Micros(250) + Millis(1) * static_cast<Duration>(i + 1);
      for (;;) {
        Alt alt(s);
        alt.OnReceive(*ready).OnTimeout(next);
        if (co_await alt.Select() != 0) {
          break;
        }
        co_await snd->ConsumeReadySignal();
        NoteAt(s, log, "deferred", snd->can_send() ? 1 : 0);
      }
    }
    for (;;) {
      co_await snd->ConsumeReadySignal();
      NoteAt(s, log, "deferred", snd->can_send() ? 1 : 0);
    }
  };
  auto consumer = [](Scheduler* s, DecouplingBuffer* b,
                     std::vector<std::string>* log) -> Process {
    co_await s->WaitUntil(Millis(6));  // stall, then drain every 2 ms
    for (;;) {
      SegmentRef ref = co_await b->output().Receive();
      NoteAt(s, log, "out", ref->header.sequence);
      co_await s->WaitFor(Millis(2));
    }
  };
  auto resizer = [](Scheduler* s, DecouplingBuffer* b) -> Process {
    co_await s->WaitUntil(Micros(3500));  // a deferred TRUE is owed here
    co_await b->commands().Send(Command{CommandVerb::kResizeBuffer, 0, 4, 0});
  };
  sched.Spawn(producer(&sched, &pool, &sender, &buffer.ready(), &log), "producer");
  sched.Spawn(consumer(&sched, &buffer, &log), "consumer");
  sched.Spawn(resizer(&sched, &buffer), "resizer");
  sched.RunFor(Millis(40));

  // Capacity 2 holds two queued plus one in hand (seq 0); the grow to 4 at
  // 3.5 ms settles the TRUE owed since 2.25 ms, and each take from 6 ms on
  // frees a slot and posts its deferred TRUE at that same instant.
  const std::vector<std::string> expected = {
      "250us reply 1",
      "1250us reply 1",
      "2250us reply 0",
      "3250us drop 3",
      "3500us deferred 1",
      "4250us reply 1",
      "5250us reply 0",
      "6000us out 0",
      "6000us deferred 1",
      "6250us reply 0",
      "7250us drop 7",
      "8000us out 1",
      "8000us deferred 1",
      "8250us reply 0",
      "9250us drop 9",
      "10000us out 2",
      "10000us deferred 1",
      "10250us reply 0",
      "11250us drop 11",
      "12000us out 4",
      "12000us deferred 1",
      "14000us out 5",
      "16000us out 6",
      "18000us out 8",
      "20000us out 10",
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(buffer.total_in(), 8u);
  EXPECT_EQ(buffer.total_out(), 8u);
  EXPECT_EQ(buffer.max_depth_seen(), 4u);
}

TEST(DecouplingBufferTest, CommandsProcessedWhileOutputStalled) {
  // Principle 4: a wedged consumer must not lock out commands.
  Scheduler sched;
  ReportCollector reports;
  BufferPool pool(&sched, "pool", 16);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 2}, &reports);
  ShutdownGuard guard(&sched);
  buffer.Start();

  auto producer = [](BufferPool* p, DecouplingBuffer* b) -> Process {
    for (uint32_t i = 0; i < 10; ++i) {
      SegmentRef ref = MakeRef(p, i);
      co_await b->input().Send(std::move(ref));  // will wedge: no consumer
    }
  };
  auto commander = [](Scheduler* s, DecouplingBuffer* b) -> Process {
    co_await s->WaitFor(Millis(5));
    co_await b->commands().Send(Command{CommandVerb::kReportStatus, 0, 0, 0});
  };
  sched.Spawn(producer(&pool, &buffer), "producer");
  sched.Spawn(commander(&sched, &buffer), "commander");
  sched.RunFor(Millis(10));
  EXPECT_EQ(reports.CountOf("decoupling.status"), 1u);
  EXPECT_GE(reports.CountOf("decoupling.full"), 1u);
}

TEST(DecouplingBufferTest, DynamicResizeWithoutDataLoss) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 64);
  DecouplingBuffer buffer(&sched, {.name = "d", .capacity = 2});
  ShutdownGuard guard(&sched);
  buffer.Start();

  std::vector<uint32_t> got;
  auto producer = [](Scheduler* s, BufferPool* p, DecouplingBuffer* b) -> Process {
    for (uint32_t i = 0; i < 20; ++i) {
      SegmentRef ref = MakeRef(p, i);
      co_await b->input().Send(std::move(ref));
      co_await s->WaitFor(Micros(100));
    }
  };
  auto resizer = [](Scheduler* s, DecouplingBuffer* b) -> Process {
    co_await s->WaitFor(Millis(1));
    co_await b->commands().Send(Command{CommandVerb::kResizeBuffer, 0, 8, 0});
  };
  auto consumer = [](Scheduler* s, DecouplingBuffer* b, std::vector<uint32_t>* got) -> Process {
    for (int i = 0; i < 20; ++i) {
      SegmentRef ref = co_await b->output().Receive();
      got->push_back(ref->header.sequence);
      co_await s->WaitFor(Micros(300));
    }
  };
  sched.Spawn(producer(&sched, &pool, &buffer), "producer");
  sched.Spawn(resizer(&sched, &buffer), "resizer");
  sched.Spawn(consumer(&sched, &buffer, &got), "consumer");
  sched.RunFor(Millis(20));
  ASSERT_EQ(got.size(), 20u);  // nothing lost across the resize
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i], i);
  }
  EXPECT_EQ(buffer.capacity(), 8u);
}

// --- ClawbackBuffer ---------------------------------------------------------

TEST(ClawbackBufferTest, StoresAndPopsFifo) {
  ClawbackPool pool;
  ClawbackBuffer buffer(1, ClawbackConfig{}, &pool);
  AudioBlock a = MakeBlock(1);
  AudioBlock b = MakeBlock(2);
  EXPECT_EQ(buffer.Push(a), ClawbackPushResult::kStored);
  EXPECT_EQ(buffer.Push(b), ClawbackPushResult::kStored);
  EXPECT_EQ(buffer.depth_blocks(), 2u);
  EXPECT_EQ(buffer.delay(), Millis(4));
  auto got = buffer.Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->samples[0], 1);
  got = buffer.Pop();
  EXPECT_EQ(got->samples[0], 2);
  EXPECT_FALSE(buffer.Pop().has_value());
  EXPECT_EQ(buffer.stats().empty_pops, 1u);
}

TEST(ClawbackBufferTest, SingleRateDropsAtPaperRate) {
  // "4096 in our implementation, representing 8 seconds" — with the buffer
  // above its 4ms target, the 4096th arrival is sacrificed: 2ms per 8s,
  // 1 in 4000, the Clawback Rate.
  ClawbackConfig config;
  ClawbackPool pool;
  ClawbackBuffer buffer(1, config, &pool);
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(buffer.Push(MakeBlock()), ClawbackPushResult::kStored);
  }
  // Steady state: one push + one pop per 2ms tick, depth stays at 12.  The
  // fill-up ramp already advanced the counter a little, so the paper's
  // exact rate shows in the interval BETWEEN consecutive drops.
  std::vector<int> drops;
  for (int i = 1; i <= 14000; ++i) {
    ClawbackPushResult result = buffer.Push(MakeBlock());
    if (result == ClawbackPushResult::kDroppedClawback) {
      drops.push_back(i);
    }
    if (result == ClawbackPushResult::kStored) {
      ASSERT_TRUE(buffer.Pop().has_value());
    }
  }
  ASSERT_GE(drops.size(), 2u);
  EXPECT_EQ(drops[1] - drops[0], 4096);  // 2ms per 8.192s: "1 in 4000"
  EXPECT_LE(drops[0], 4096);             // no slower than the steady rate
}

TEST(ClawbackBufferTest, NoClawbackAtOrBelowTarget) {
  ClawbackConfig config;
  config.count_threshold = 10;  // tight threshold to catch any miscount
  ClawbackPool pool;
  ClawbackBuffer buffer(1, config, &pool);
  // Hold depth at exactly the 2-block target: never "above", never dropped.
  buffer.Push(MakeBlock());
  buffer.Push(MakeBlock());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buffer.Pop().has_value());
    EXPECT_EQ(buffer.Push(MakeBlock()), ClawbackPushResult::kStored);
  }
  EXPECT_EQ(buffer.stats().clawback_drops, 0u);
}

TEST(ClawbackBufferTest, PerStreamLimitDropsOnArrival) {
  // "There is no point in buffering more than about 120ms of audio for a
  // single stream... we throw away samples if the buffer is above its limit
  // when they arrive."
  ClawbackConfig config;
  ClawbackPool pool;
  ClawbackBuffer buffer(1, config, &pool);
  for (int i = 0; i < config.per_stream_limit_blocks; ++i) {
    ASSERT_EQ(buffer.Push(MakeBlock()), ClawbackPushResult::kStored);
  }
  EXPECT_EQ(buffer.delay(), Millis(120));
  EXPECT_EQ(buffer.Push(MakeBlock()), ClawbackPushResult::kDroppedOverLimit);
  EXPECT_EQ(buffer.stats().limit_drops, 1u);
}

TEST(ClawbackBufferTest, SharedPoolBoundsTotalBuffering) {
  // "a total of four seconds of clawback buffering shared between all
  // active streams" — here a miniature 20ms pool shared by two buffers.
  ClawbackPool pool(Millis(20));
  ClawbackConfig config;
  ClawbackBuffer a(1, config, &pool);
  ClawbackBuffer b(2, config, &pool);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(a.Push(MakeBlock()), ClawbackPushResult::kStored);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.Push(MakeBlock()), ClawbackPushResult::kStored);
  }
  EXPECT_EQ(pool.in_use(), Millis(20));
  EXPECT_EQ(b.Push(MakeBlock()), ClawbackPushResult::kDroppedPoolExhausted);
  // Popping from one stream frees budget for the other.
  ASSERT_TRUE(a.Pop().has_value());
  EXPECT_EQ(b.Push(MakeBlock()), ClawbackPushResult::kStored);
  EXPECT_EQ(pool.exhaustions(), 1u);
}

struct MultiRateCase {
  int depth_blocks;
  int expected_first_drop;  // arrivals before the first clawback drop
};

class MultiRateClawbackTest : public ::testing::TestWithParam<MultiRateCase> {};

TEST_P(MultiRateClawbackTest, DropIntervalMatchesBlockSecondsRule) {
  // Paper: at 20 block-seconds, minimum contents of 10ms drops every 2000
  // blocks (4s); 50ms drops every 400 blocks (0.8s).
  const MultiRateCase c = GetParam();
  ClawbackConfig config;
  config.mode = ClawbackMode::kMultiRate;
  config.per_stream_limit_blocks = 100;
  ClawbackPool pool(Seconds(4));
  ClawbackBuffer buffer(1, config, &pool);
  for (int i = 0; i < c.depth_blocks; ++i) {
    ASSERT_EQ(buffer.Push(MakeBlock()), ClawbackPushResult::kStored);
  }
  // The first window is polluted by the fill-up ramp (its minimum is the
  // pre-jitter floor — correctly conservative); the paper's numbers are the
  // steady-state interval between drops, with the running minimum equal to
  // the held depth.
  std::vector<int> drops;
  for (int i = 1; drops.size() < 3 && i <= 60000; ++i) {
    ClawbackPushResult result = buffer.Push(MakeBlock());
    if (result == ClawbackPushResult::kDroppedClawback) {
      drops.push_back(i);
    } else {
      ASSERT_TRUE(buffer.Pop().has_value());
    }
  }
  ASSERT_EQ(drops.size(), 3u);
  EXPECT_EQ(drops[2] - drops[1], c.expected_first_drop);
}

INSTANTIATE_TEST_SUITE_P(PaperExamples, MultiRateClawbackTest,
                         ::testing::Values(MultiRateCase{5, 2000},    // 10ms -> 4s
                                           MultiRateCase{25, 400},    // 50ms -> 0.8s
                                           MultiRateCase{50, 200}));  // 100ms -> 0.4s

TEST(ClawbackBankTest, AutoActivationAndDeactivation) {
  ClawbackBank bank(ClawbackConfig{});
  EXPECT_EQ(bank.active_count(), 0u);
  EXPECT_FALSE(bank.Pop(7).has_value());  // unknown stream: nothing to mix

  bank.Push(7, MakeBlock(1));
  EXPECT_EQ(bank.active_count(), 1u);
  EXPECT_EQ(bank.activations(), 1u);

  ASSERT_TRUE(bank.Pop(7).has_value());
  // Found empty at the next mix tick: deactivated.
  EXPECT_FALSE(bank.Pop(7).has_value());
  EXPECT_EQ(bank.active_count(), 0u);
  EXPECT_EQ(bank.deactivations(), 1u);

  // Data arriving again re-creates the buffer without any control traffic.
  bank.Push(7, MakeBlock(2));
  EXPECT_EQ(bank.active_count(), 1u);
  EXPECT_EQ(bank.activations(), 2u);
}

TEST(ClawbackBankTest, TotalStatsFoldInRetiredBuffers) {
  ClawbackBank bank(ClawbackConfig{});
  bank.Push(1, MakeBlock());
  bank.Push(1, MakeBlock());
  ASSERT_TRUE(bank.Pop(1).has_value());
  ASSERT_TRUE(bank.Pop(1).has_value());
  EXPECT_FALSE(bank.Pop(1).has_value());  // deactivates
  bank.Push(2, MakeBlock());
  auto stats = bank.TotalStats();
  EXPECT_EQ(stats.pushes, 3u);
  EXPECT_EQ(stats.pops, 3u);
  EXPECT_EQ(stats.empty_pops, 1u);
}

TEST(ClawbackBankTest, ReactivatedBufferBehavesLikeANewOne) {
  // Stream 1 leaves clawback counters and stats behind when it deactivates;
  // stream 2 then reuses its storage and must not inherit any of it.
  ClawbackConfig config;
  config.count_threshold = 4;
  ClawbackBank reused(config);
  for (int i = 0; i < 6; ++i) {
    reused.Push(1, MakeBlock());
  }
  while (reused.Pop(1).has_value()) {
  }
  ASSERT_EQ(reused.active_count(), 0u);
  ClawbackBank fresh(config);
  for (int i = 0; i < 12; ++i) {
    const AudioBlock block = MakeBlock(static_cast<uint8_t>(i));
    EXPECT_EQ(reused.Push(2, block), fresh.Push(2, block)) << "push " << i;
    if (i % 3 == 0) {
      EXPECT_EQ(reused.Pop(2).has_value(), fresh.Pop(2).has_value());
    }
  }
  const ClawbackBuffer::Stats& a = reused.Find(2)->stats();
  const ClawbackBuffer::Stats& b = fresh.Find(2)->stats();
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.pops, b.pops);
  EXPECT_EQ(a.clawback_drops, b.clawback_drops);
  EXPECT_GT(a.clawback_drops, 0u);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(reused.Find(2)->depth_blocks(), fresh.Find(2)->depth_blocks());
  EXPECT_EQ(reused.TotalStats().pushes, 6u + 12u);
}

TEST(ClawbackBankTest, PoolSharedAcrossStreams) {
  ClawbackBank bank(ClawbackConfig{}, Millis(8));  // 4 blocks total
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.Push(1, MakeBlock()), ClawbackPushResult::kStored);
  }
  EXPECT_EQ(bank.Push(2, MakeBlock()), ClawbackPushResult::kDroppedPoolExhausted);
}

}  // namespace
}  // namespace pandora
