// Wire-path tests (DESIGN.md §9): the zero-copy contract end-to-end.
//
// A segment is serialized exactly once at the source port and parsed exactly
// once at the destination; everything between moves refcounted handles to
// immutable encoded bytes.  The per-box deep_copies counter proves it:
// copies-per-delivered-segment stays <= 2 no matter how many hops the
// circuit crosses.  The receive side's decode-failure path (bit corruption,
// truncation in flight) is exercised against a LIVE NetworkInput, and the
// wire-corrupt fault kind round-trips through the FaultPlan text format.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/fault/plan.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/segment/segment.h"
#include "src/segment/wire.h"
#include "src/server/netio.h"

namespace pandora {
namespace {

// --- Copies per delivered segment --------------------------------------------

TEST(WirePathTest, CopiesPerDeliveredSegmentAtMostTwoAcrossThreeHops) {
  // A 3-hop bridged audio circuit: if any intermediate stage deep-copied,
  // the bound below would read ~1 extra copy per hop (>= 4x delivered).
  Simulation sim;
  PandoraBox::Options options;
  options.name = "a";
  PandoraBox& a = sim.AddBox(options);
  options = PandoraBox::Options{};
  options.name = "b";
  PandoraBox& b = sim.AddBox(options);
  sim.Start();

  HopQuality hop_quality;
  hop_quality.propagation = Millis(1);
  CallPath path;
  path.hops = {sim.network().AddHop("bridge1", hop_quality),
               sim.network().AddHop("bridge2", hop_quality),
               sim.network().AddHop("bridge3", hop_quality)};
  const StreamId at_b = sim.SendAudio(a, b, path);
  sim.RunFor(Seconds(3));

  const CircuitStats* stats = sim.network().StatsFor(a.port(), at_b);
  ASSERT_NE(stats, nullptr);
  ASSERT_GT(stats->delivered, 100u);
  EXPECT_EQ(stats->lost, 0u);

  // a only encodes (one wire serialization per offered segment), b only
  // decodes (one pool copy per delivery); neither grows with hop count.
  EXPECT_GT(a.deep_copies(), 0u);
  EXPECT_GT(b.deep_copies(), 0u);
  EXPECT_LE(a.deep_copies(), stats->offered + 2);  // +: encoded, not yet offered
  EXPECT_LE(b.deep_copies(), stats->delivered);
  const uint64_t total_copies = a.deep_copies() + b.deep_copies();
  EXPECT_LE(total_copies, 2 * stats->delivered + 8)
      << "wire path deep-copied in flight (copies " << total_copies << ", delivered "
      << stats->delivered << ")";
  EXPECT_GT(sim.network().bytes_on_wire(), 0u);
}

// --- Copy-on-corrupt isolation -----------------------------------------------

TEST(WirePathTest, CorruptionOnOneCircuitNeverDamagesSiblingFanoutCopies) {
  // One encoded buffer fanned out to two circuits by Dup(); the circuit to
  // `noisy` corrupts every traversal.  The strike must damage a COPY — the
  // sibling handle's bytes stay pristine.
  ShardSet set;
  Scheduler& sched = set.scheduler();
  BufferPool pool(&sched, "pool", 32);
  AtmNetwork net(&set, /*seed=*/11);
  AtmPort* src = net.AddPort("src");
  AtmPort* noisy = net.AddPort("noisy");
  AtmPort* clean = net.AddPort("clean");
  HopQuality corrupting;
  corrupting.corrupt_rate = 1.0;
  net.OpenCircuit(src, 42, noisy, {}, corrupting);
  net.OpenCircuit(src, 43, clean);
  ShutdownGuard guard(&sched);

  const std::vector<uint8_t> payload(64, 0x5A);
  constexpr int kCount = 40;

  auto tx = [](Scheduler* s, BufferPool* pool, AtmPort* src,
               const std::vector<uint8_t>* payload) -> Process {
    for (uint32_t i = 0; i < kCount; ++i) {
      auto ref = pool->TryAllocate();
      **ref = MakeAudioSegment(9, i, 0, *payload);
      WireRef wire = co_await src->wire_pool().Allocate();
      EncodeSegmentInto(**ref, StreamField::kOmitted, &wire->bytes);
      ref->Reset();
      NetTx to_noisy;
      to_noisy.vci = 42;
      to_noisy.wire = wire.Dup();
      co_await src->tx().Send(std::move(to_noisy));
      NetTx to_clean;
      to_clean.vci = 43;
      to_clean.wire = std::move(wire);
      co_await src->tx().Send(std::move(to_clean));
      co_await s->WaitFor(Millis(1));
    }
  };
  int clean_ok = 0;
  auto rx_clean = [](AtmPort* port, const std::vector<uint8_t>* payload, int* ok) -> Process {
    for (;;) {
      NetRx in = co_await port->rx().Receive();
      DecodeResult decoded = DecodeSegment(in.wire->bytes, StreamField::kOmitted, in.vci);
      EXPECT_TRUE(decoded.ok) << decoded.error;
      EXPECT_EQ(decoded.segment.payload, *payload);  // byte-for-byte pristine
      ++*ok;
    }
  };
  auto rx_noisy = [](AtmPort* port) -> Process {
    for (;;) {
      // Damaged copies arrive here; a flip can land anywhere, so decode may
      // fail or "succeed" with a damaged payload — either way it must not
      // leak back into the clean circuit's bytes.
      (void)co_await port->rx().Receive();
    }
  };
  sched.Spawn(tx(&sched, &pool, src, &payload), "tx");
  sched.Spawn(rx_clean(clean, &payload, &clean_ok), "rx.clean");
  sched.Spawn(rx_noisy(noisy), "rx.noisy");
  sched.RunFor(Millis(200));

  EXPECT_EQ(clean_ok, kCount);
  EXPECT_EQ(net.total_corrupted(), static_cast<uint64_t>(kCount));
  const CircuitStats* noisy_stats = net.StatsFor(src, 42);
  ASSERT_NE(noisy_stats, nullptr);
  EXPECT_EQ(noisy_stats->corrupted, static_cast<uint64_t>(kCount));
  EXPECT_EQ(net.StatsFor(src, 43)->corrupted, 0u);
  EXPECT_EQ(src->wire_pool().free_count(), src->wire_pool().capacity());
}

// --- Decode-failure path through a live NetworkInput -------------------------

TEST(WirePathTest, NetworkInputCountsReportsAndRecoversPastMalformedWireImages) {
  ShardSet set;
  Scheduler& sched = set.scheduler();
  ReportCollector reports;
  BufferPool pool(&sched, "pool", 8);
  AtmNetwork net(&set);
  AtmPort* dst = net.AddPort("dst");
  Channel<SegmentRef> to_switch(&sched, "out");
  uint64_t deep_copies = 0;
  NetworkInput netin(&sched, {.name = "netin"}, dst, &pool, &to_switch, &reports, &deep_copies);
  ShutdownGuard guard(&sched);
  netin.Start();

  auto make_wire = [&](uint32_t seq) {
    Segment segment = MakeAudioSegment(7, seq, 0, std::vector<uint8_t>(32, 0x11));
    auto wire = dst->wire_pool().TryAllocate();
    EXPECT_TRUE(wire.has_value());
    EncodeSegmentInto(segment, StreamField::kOmitted, &(*wire)->bytes);
    return std::move(*wire);
  };

  auto feeder = [&make_wire](AtmPort* dst) -> Process {
    for (uint32_t seq = 0; seq < 5; ++seq) {
      WireRef wire = make_wire(seq);
      switch (seq) {
        case 1:  // truncated in flight (half the image lost)
          wire->bytes.resize(wire->bytes.size() / 2);
          break;
        case 2:  // version field mangled (bytes 0..3 with the stream omitted)
          wire->bytes[0] ^= 0xFF;
          break;
        case 3:  // single bit flipped in the declared-length field
          wire->bytes[16] ^= 0x04;
          break;
        default:  // seqs 0 and 4 intact: the input must still be forwarding
          break;
      }
      NetRx in;
      in.vci = 7;
      in.wire = std::move(wire);
      co_await dst->rx().Send(std::move(in));
    }
  };
  std::vector<uint32_t> forwarded;
  auto drain = [](Channel<SegmentRef>* out, std::vector<uint32_t>* got) -> Process {
    for (;;) {
      SegmentRef ref = co_await out->Receive();
      EXPECT_EQ(ref->stream, 7u);
      got->push_back(ref->header.sequence);
    }
  };
  sched.Spawn(feeder(dst), "feeder");
  sched.Spawn(drain(&to_switch, &forwarded), "drain");
  sched.RunFor(Millis(50));

  // The three malformed images were counted and reported, never forwarded,
  // and the good segment behind them got through (the sequence gap is the
  // clawback buffer's job downstream).
  EXPECT_EQ(netin.decode_failures(), 3u);
  // The control plane rate-limits reports per error type, so a burst of
  // decode failures may collapse into one report; the exact count lives in
  // the decode_failures() counter asserted above.
  EXPECT_GE(reports.CountOf("netin.decode_failure"), 1u);
  ASSERT_EQ(forwarded, (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(netin.received(), 2u);
  EXPECT_EQ(deep_copies, 2u);  // one pool copy per GOOD segment only
  EXPECT_EQ(dst->wire_pool().free_count(), dst->wire_pool().capacity());
}

// --- EncodedSize()/header.length drift ---------------------------------------

TEST(WirePathDeathTest, EncodeCatchesHeaderLengthDrift) {
#ifdef NDEBUG
  GTEST_SKIP() << "PANDORA_DCHECK is a no-op under NDEBUG";
#endif
  Segment segment = MakeAudioSegment(3, 0, 0, std::vector<uint8_t>(16, 0x22));
  ASSERT_EQ(segment.header.length, segment.EncodedSize());
  segment.payload.push_back(0x23);  // mutated without restamping length
  EXPECT_DEATH((void)EncodeSegment(segment), "drifted from EncodedSize");
  // Restamping heals it.
  segment.header.length = static_cast<uint32_t>(segment.EncodedSize());
  std::vector<uint8_t> bytes = EncodeSegment(segment);
  EXPECT_TRUE(DecodeSegment(bytes).ok);
}

// --- wire-corrupt in the FaultPlan text format -------------------------------

TEST(WireCorruptPlanTest, RoundTripsThroughTextFormat) {
  FaultPlan plan;
  plan.seed = 17;
  FaultEvent event;
  event.at = Millis(1500);
  event.kind = FaultKind::kWireCorrupt;
  event.target = 2;
  event.value = 0.375;
  event.duration = Millis(250);
  plan.events.push_back(event);

  const std::string text = FormatFaultPlan(plan);
  EXPECT_NE(text.find("wire-corrupt call=2"), std::string::npos) << text;
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(text, &parsed, &error)) << error;
  EXPECT_EQ(FormatFaultPlan(parsed), text);  // bit-exact round trip
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].kind, FaultKind::kWireCorrupt);
  EXPECT_EQ(parsed.events[0].value, 0.375);
  EXPECT_EQ(parsed.events[0].duration, Millis(250));
  EXPECT_EQ(TargetOf(FaultKind::kWireCorrupt), FaultTarget::kCall);

  FaultKind kind = FaultKind::kCircuitDown;
  ASSERT_TRUE(ParseFaultKind("wire-corrupt", &kind));
  EXPECT_EQ(kind, FaultKind::kWireCorrupt);
}

TEST(WireCorruptPlanTest, RandomPlansRespectAllowWireCorrupt) {
  RandomPlanOptions options;
  options.call_count = 3;
  options.min_events = 8;
  options.max_events = 8;

  options.allow_wire_corrupt = false;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (const FaultEvent& event : RandomFaultPlan(seed, options).events) {
      EXPECT_NE(event.kind, FaultKind::kWireCorrupt) << "seed " << seed;
    }
  }

  options.allow_wire_corrupt = true;
  int wire_corrupt_events = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (const FaultEvent& event : RandomFaultPlan(seed, options).events) {
      if (event.kind == FaultKind::kWireCorrupt) {
        ++wire_corrupt_events;
        EXPECT_GE(event.value, 0.05);
        EXPECT_LE(event.value, 0.5);
      }
    }
  }
  EXPECT_GT(wire_corrupt_events, 0);
}

}  // namespace
}  // namespace pandora
