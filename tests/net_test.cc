// Tests for the ATM network simulation: circuits, VCI relabelling, FIFO
// delivery under jitter, loss, multi-hop paths and the non-interleaving
// interface (paper sections 1.1, 4.2).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/pool.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/segment/segment.h"
#include "src/segment/wire.h"

namespace pandora {
namespace {

SegmentRef MakeAudioRef(BufferPool* pool, StreamId stream, uint32_t seq, size_t bytes = 32) {
  auto ref = pool->TryAllocate();
  EXPECT_TRUE(ref.has_value());
  **ref = MakeAudioSegment(stream, seq, 0, std::vector<uint8_t>(bytes, 7));
  return std::move(*ref);
}

struct NetRig {
  explicit NetRig(uint64_t seed = 1) : pool(&sched, "pool", 256), net(&set, seed) {
    a = net.AddPort("a");
    b = net.AddPort("b");
  }

  ShardSet set;
  Scheduler& sched = set.scheduler();
  BufferPool pool;
  AtmNetwork net;
  AtmPort* a;
  AtmPort* b;
  ShutdownGuard guard{&sched};
};

// Encodes `ref` into `wire` and addresses it to `vci` — the source-side half
// of the wire path, done by hand so this file stays at the net layer (the
// server layer's is EncodeForWire).  The caller allocates `wire` from the
// sending port's pool and hands the NetTx to the interface.
NetTx EncodeOne(WireRef wire, const SegmentRef& ref, Vci vci) {
  EncodeSegmentInto(*ref, StreamField::kOmitted, &wire->bytes);
  NetTx tx;
  tx.vci = vci;
  tx.wire = std::move(wire);
  return tx;
}

Process SendSegments(Scheduler* sched, BufferPool* pool, AtmPort* port, Vci vci, int count,
                     Duration spacing, size_t bytes = 32) {
  for (int i = 0; i < count; ++i) {
    WireRef wire = co_await port->wire_pool().Allocate();
    NetTx tx = EncodeOne(std::move(wire), MakeAudioRef(pool, 99, static_cast<uint32_t>(i), bytes),
                         vci);
    co_await port->tx().Send(std::move(tx));
    co_await sched->WaitFor(spacing);
  }
}

Process CollectSegments(AtmPort* port, std::vector<Segment>* out) {
  for (;;) {
    NetRx in = co_await port->rx().Receive();
    DecodeResult decoded = DecodeSegment(in.wire->bytes, StreamField::kOmitted, in.vci);
    EXPECT_TRUE(decoded.ok) << decoded.error;
    out->push_back(std::move(decoded.segment));
  }
}

TEST(AtmTest, DeliversWithVciRelabelling) {
  NetRig rig;
  rig.net.OpenCircuit(rig.a, /*vci=*/42, rig.b);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 5, Millis(4)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Millis(100));
  ASSERT_EQ(got.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].stream, 42u);  // the VCI is the destination stream id
    EXPECT_EQ(got[i].header.sequence, i);
  }
  EXPECT_EQ(rig.pool.free_count(), 256u);     // source buffers recycled at encode
  EXPECT_EQ(rig.a->wire_pool().free_count(), 256u);  // wire buffers recycled at decode
}

TEST(AtmTest, UnroutedVciIsDiscarded) {
  NetRig rig;
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 7, 3, Millis(1)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Millis(50));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(rig.a->unrouted(), 3u);
}

TEST(AtmTest, JitterNeverReordersACircuit) {
  NetRig rig(1234);
  HopQuality direct;
  direct.jitter_max = Millis(20);  // huge vs the 2ms spacing
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 100, Millis(2)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Seconds(2));
  ASSERT_EQ(got.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(got[i].header.sequence, i);
  }
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->latency.max() - stats->latency.min(), 5000.0);  // jitter happened
}

TEST(AtmTest, LossRateApproximatelyHonoured) {
  NetRig rig(7);
  HopQuality direct;
  direct.loss_rate = 0.2;
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 1000, Millis(1)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Seconds(2));
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  EXPECT_NEAR(static_cast<double>(stats->lost) / 1000.0, 0.2, 0.05);
  EXPECT_EQ(stats->delivered + stats->lost, 1000u);
}

TEST(AtmTest, ReopenedCircuitDoesNotReceiveOldIncarnationTraffic) {
  NetRig rig;
  HopQuality direct;
  direct.propagation = Millis(10);
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 1, Millis(1)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");

  // Close and re-open under the same (port, VCI) key while the segment is
  // in flight — exactly what a box crash + restart does to a call's
  // circuit.  The old-incarnation segment must not be delivered into the
  // new call or touch its zeroed FIFO clamps (ABA on the key).
  rig.sched.RunFor(Millis(5));
  rig.net.CloseCircuit(rig.a, 42);
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  rig.sched.RunFor(Millis(50));

  EXPECT_TRUE(got.empty());
  EXPECT_EQ(rig.net.total_lost(), 1u);
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->offered, 0u);  // the new incarnation's stats stay fresh
  EXPECT_EQ(stats->delivered, 0u);
}

TEST(AtmTest, MultiHopPathAccumulatesLatency) {
  NetRig rig;
  HopQuality hop_quality;
  hop_quality.propagation = Millis(1);
  NetHop* h1 = rig.net.AddHop("bridge1", hop_quality);
  NetHop* h2 = rig.net.AddHop("bridge2", hop_quality);
  NetHop* h3 = rig.net.AddHop("bridge3", hop_quality);
  rig.net.OpenCircuit(rig.a, 42, rig.b, {h1, h2, h3});
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 10, Millis(4)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Millis(200));
  ASSERT_EQ(got.size(), 10u);
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  EXPECT_GT(stats->latency.Mean(), 3000.0);  // 3 x 1ms propagation + transmission
}

TEST(AtmTest, SharedHopContentionDelaysOtherCircuit) {
  // Two circuits share one slow bridge: heavy traffic on circuit 1 delays
  // circuit 2 (store-and-forward queueing).
  ShardSet set;
  Scheduler& sched = set.scheduler();
  BufferPool pool(&sched, "pool", 512);
  AtmNetwork net(&set);
  AtmPort* a = net.AddPort("a", 100'000'000);
  AtmPort* b = net.AddPort("b", 100'000'000);
  AtmPort* c = net.AddPort("c", 100'000'000);
  HopQuality slow;
  slow.bits_per_second = 2'000'000;  // 2 Mbit/s bottleneck
  NetHop* bridge = net.AddHop("bridge", slow);
  net.OpenCircuit(a, 42, b, {bridge});
  net.OpenCircuit(c, 43, b, {bridge});
  ShutdownGuard guard(&sched);

  std::vector<Segment> got;
  // 8KB bursts every 10ms from a (32ms serialization each at 2Mbit/s).
  sched.Spawn(SendSegments(&sched, &pool, a, 42, 20, Millis(10), 8000), "bulk");
  sched.Spawn(SendSegments(&sched, &pool, c, 43, 20, Millis(10), 32), "small");
  sched.Spawn(CollectSegments(b, &got), "rx");
  sched.RunFor(Seconds(2));
  const CircuitStats* small = net.StatsFor(c, 43);
  ASSERT_NE(small, nullptr);
  // The small circuit's latency is dominated by waiting behind bulk
  // transfers on the shared hop.
  EXPECT_GT(small->latency.max(), 20000.0);
}

TEST(AtmTest, NonInterleavedInterfaceDelaysAudioBehindVideo) {
  // E7 at port level: a 50KB video segment occupies the 20Mbit/s interface
  // for 20ms; audio queued behind it inherits that as jitter.
  NetRig rig;
  rig.net.OpenCircuit(rig.a, 42, rig.b);
  rig.net.OpenCircuit(rig.a, 43, rig.b);
  std::vector<Segment> got;
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");

  auto mixed_tx = [](BufferPool* pool, AtmPort* a) -> Process {
    // Send the video first, then immediately the audio.
    WireRef video_wire = co_await a->wire_pool().Allocate();
    NetTx video = EncodeOne(std::move(video_wire), MakeAudioRef(pool, 1, 0, 50'000), 43);
    co_await a->tx().Send(std::move(video));
    WireRef audio_wire = co_await a->wire_pool().Allocate();
    NetTx audio = EncodeOne(std::move(audio_wire), MakeAudioRef(pool, 2, 0, 32), 42);
    co_await a->tx().Send(std::move(audio));
  };
  rig.sched.Spawn(mixed_tx(&rig.pool, rig.a), "tx");
  rig.sched.RunFor(Millis(100));
  const CircuitStats* audio_stats = rig.net.StatsFor(rig.a, 42);
  ASSERT_EQ(audio_stats->delivered, 1u);
  // Note: circuit latency starts after interface serialization; measure via
  // delivery time instead.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].stream, 42u);
  // The audio could not start serializing until the ~20ms video finished.
  EXPECT_GT(rig.a->egress().busy_time(), Millis(20));
}

// Drains a port without decoding: corrupted images count as arrivals too.
Process DrainPort(AtmPort* port) {
  for (;;) {
    NetRx in = co_await port->rx().Receive();
  }
}

TEST(AtmTest, EveryOfferedSegmentIsDeliveredOrLost) {
  // Conservation across the fabric: every segment a circuit was offered ends
  // delivered or lost, on direct and bridged circuits, same-shard and
  // cross-shard, under loss, corruption, jitter and queue-bound sheds.
  ShardSetOptions options;
  options.shards = 4;
  ShardSet set(options);
  AtmNetwork net(&set, /*seed=*/5);
  BufferPool pool0(&set.shard(0), "pool0", 256);
  BufferPool pool1(&set.shard(1), "pool1", 256);
  AtmPort* a = net.AddPort("a", 20'000'000, 256, nullptr, /*shard=*/0);
  AtmPort* b = net.AddPort("b", 20'000'000, 256, nullptr, /*shard=*/0);
  AtmPort* c = net.AddPort("c", 20'000'000, 256, nullptr, /*shard=*/1);
  AtmPort* d = net.AddPort("d", 20'000'000, 256, nullptr, /*shard=*/2);
  AtmPort* e = net.AddPort("e", 20'000'000, 256, nullptr, /*shard=*/3);

  HopQuality impaired;
  impaired.propagation = Millis(2);  // covers the 1 ms lookahead floor
  impaired.jitter_max = Millis(3);
  impaired.loss_rate = 0.05;
  impaired.corrupt_rate = 0.1;
  HopQuality narrow = impaired;  // a slow bridge with a short queue: sheds
  narrow.bits_per_second = 1'000'000;
  narrow.max_queue = Millis(2);
  std::vector<NetHop*> path0;
  std::vector<NetHop*> path1;
  for (const HopQuality& q : {impaired, narrow, impaired}) {
    path0.push_back(net.AddHop("h0." + std::to_string(path0.size()), q, /*shard=*/0));
    path1.push_back(net.AddHop("h1." + std::to_string(path1.size()), q, /*shard=*/1));
  }
  struct Leg {
    AtmPort* src;
    Vci vci;
  };
  const std::vector<Leg> legs = {{a, 1}, {c, 2}, {a, 3}, {c, 4}};
  net.OpenCircuit(a, 1, b, {}, impaired);     // direct, same shard
  net.OpenCircuit(c, 2, d, {}, impaired);     // direct, cross-shard
  net.OpenCircuit(a, 3, b, path0, impaired);  // bridged, same shard
  net.OpenCircuit(c, 4, e, path1, impaired);  // bridged, cross-shard

  for (const Leg& leg : legs) {
    Scheduler& sched = set.shard(leg.src->shard());
    BufferPool* pool = leg.src == a ? &pool0 : &pool1;
    sched.Spawn(SendSegments(&sched, pool, leg.src, leg.vci, 300, Millis(1), 200), "tx");
  }
  for (AtmPort* port : {b, d, e}) {
    set.shard(port->shard()).Spawn(DrainPort(port), "rx");
  }
  set.RunUntilQuiescent();

  uint64_t offered = 0;
  for (const Leg& leg : legs) {
    const CircuitStats* stats = net.StatsFor(leg.src, leg.vci);
    EXPECT_NE(stats, nullptr) << "vci " << leg.vci;
    if (stats == nullptr) {
      continue;  // no early return: the frames must die in Shutdown below
    }
    EXPECT_EQ(stats->offered, 300u) << "vci " << leg.vci;
    EXPECT_EQ(stats->offered, stats->delivered + stats->lost) << "vci " << leg.vci;
    EXPECT_GT(stats->lost, 0u) << "vci " << leg.vci;
    EXPECT_GT(stats->corrupted, 0u) << "vci " << leg.vci;
    offered += stats->offered;
  }
  EXPECT_EQ(net.total_delivered() + net.total_lost(), offered);
  set.Shutdown();
}

TEST(AtmDeathTest, NegativeShardIndexFailsTheCheck) {
  // A shard index below zero must trip the placement check, not index a
  // shard vector out of bounds.
  ShardSetOptions options;
  options.shards = 2;
  ShardSet set(options);
  AtmNetwork net(&set);
  EXPECT_DEATH(net.AddPort("neg", 20'000'000, 256, nullptr, -1),
               "port placed on a shard this network does not span");
  EXPECT_DEATH(net.AddHop("neg", HopQuality{}, -1),
               "hop placed on a shard this network does not span");
}

}  // namespace
}  // namespace pandora
