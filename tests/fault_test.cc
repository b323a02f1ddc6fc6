// Fault-injection subsystem: plan round-trips, driver apply/restore
// semantics, box crash/restart integrity (no leaks, stream tables scrubbed,
// live calls undisturbed) and deterministic chaos replay.
#include <cstdlib>

#include <gtest/gtest.h>

#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/fault/driver.h"
#include "src/fault/plan.h"
#include "src/segment/segment.h"
#include "src/server/switch.h"

namespace pandora {
namespace {

PandoraBox::Options BoxOptions(const std::string& name, bool with_video = false) {
  PandoraBox::Options options;
  options.name = name;
  options.with_video = with_video;
  return options;
}

// A world of `shards` shards with every box pinned to shard 0, so the
// traffic is the same at any shard count while the driver's PostGlobal
// steps take either mode: a plain shard-0 timer on one shard, a
// stop-the-world instant on several.
SimulationOptions ShardedWorld(int shards) {
  SimulationOptions options;
  options.shards = shards;
  return options;
}

PandoraBox::Options PinnedBoxOptions(const std::string& name) {
  PandoraBox::Options options = BoxOptions(name);
  options.shard = 0;
  return options;
}

// --- FaultPlan text format and random generation ----------------------------

TEST(FaultPlanTest, KindNamesRoundTrip) {
  for (FaultKind kind : {FaultKind::kCircuitDown, FaultKind::kBandwidthCollapse,
                         FaultKind::kBurstLoss, FaultKind::kJitterStorm, FaultKind::kBoxCrash,
                         FaultKind::kClockStep, FaultKind::kPoolPressure}) {
    FaultKind parsed;
    ASSERT_TRUE(ParseFaultKind(FormatFaultKind(kind), &parsed)) << FormatFaultKind(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(FaultPlanTest, FormatParseRoundTripsRandomPlans) {
  RandomPlanOptions options;
  options.call_count = 4;
  options.box_count = 3;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    FaultPlan plan = RandomFaultPlan(seed, options);
    ASSERT_FALSE(plan.events.empty());
    FaultPlan reparsed;
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(FormatFaultPlan(plan), &reparsed, &error)) << error;
    ASSERT_EQ(reparsed.seed, plan.seed);
    ASSERT_EQ(reparsed.events.size(), plan.events.size());
    for (size_t i = 0; i < plan.events.size(); ++i) {
      EXPECT_EQ(reparsed.events[i].at, plan.events[i].at);
      EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind);
      EXPECT_EQ(reparsed.events[i].target, plan.events[i].target);
      EXPECT_EQ(reparsed.events[i].value, plan.events[i].value);  // %.17g is exact
      EXPECT_EQ(reparsed.events[i].duration, plan.events[i].duration);
    }
  }
}

TEST(FaultPlanTest, ParseAcceptsHandWrittenPlans) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "seed=7; @1500ms burst-loss call=1 value=0.25 for=300ms; @2s crash box=0 for=1s", &plan,
      &error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].at, Millis(1500));
  EXPECT_EQ(plan.events[0].kind, FaultKind::kBurstLoss);
  EXPECT_EQ(plan.events[0].target, 1);
  EXPECT_DOUBLE_EQ(plan.events[0].value, 0.25);
  EXPECT_EQ(plan.events[0].duration, Millis(300));
  EXPECT_EQ(plan.events[1].kind, FaultKind::kBoxCrash);
  EXPECT_EQ(plan.events[1].duration, Seconds(1));
}

TEST(FaultPlanTest, ParseRejectsMalformedInput) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("@1s wibble call=0", &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseFaultPlan("crash box=0", &plan, &error));  // missing @time
  EXPECT_FALSE(ParseFaultPlan("@1s crash", &plan, &error));    // missing target
  EXPECT_FALSE(ParseFaultPlan("@zz crash box=0", &plan, &error));
}

TEST(FaultPlanTest, RandomPlansAreDeterministicAndConstrained) {
  RandomPlanOptions options;
  options.call_count = 5;
  options.box_count = 4;
  options.protected_calls = {2};
  options.protected_boxes = {0, 3};
  options.allow_clock_step = false;
  options.start = Seconds(1);
  options.horizon = Seconds(3);
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultPlan a = RandomFaultPlan(seed, options);
    FaultPlan b = RandomFaultPlan(seed, options);
    ASSERT_EQ(FormatFaultPlan(a), FormatFaultPlan(b));
    for (const FaultEvent& event : a.events) {
      EXPECT_GE(event.at, options.start);
      EXPECT_LT(event.at, options.horizon);
      EXPECT_GT(event.duration, 0);
      EXPECT_NE(event.kind, FaultKind::kClockStep);
      if (TargetOf(event.kind) == FaultTarget::kCall) {
        EXPECT_NE(event.target, 2);
      } else {
        EXPECT_NE(event.target, 0);
        EXPECT_NE(event.target, 3);
      }
    }
  }
}

TEST(FaultPlanTest, EnvVarOverride) {
  FaultPlan plan;
  unsetenv("PANDORA_FAULT_PLAN");
  EXPECT_FALSE(FaultPlanFromEnv(&plan));
  setenv("PANDORA_FAULT_PLAN", "seed=3; @1s circuit-down call=0 for=200ms", 1);
  ASSERT_TRUE(FaultPlanFromEnv(&plan));
  EXPECT_EQ(plan.seed, 3u);
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCircuitDown);
  unsetenv("PANDORA_FAULT_PLAN");
}

// --- FaultDriver semantics --------------------------------------------------

TEST(FaultDriverTest, CircuitEpisodeRestoresPriorQuality) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Simulation sim(ShardedWorld(shards));
    PandoraBox& a = sim.AddBox(PinnedBoxOptions("a"));
    PandoraBox& b = sim.AddBox(PinnedBoxOptions("b"));
    sim.Start();
    StreamId at_b = sim.SendAudio(a, b);

    FaultPlan plan;
    ASSERT_TRUE(ParseFaultPlan("@1s burst-loss call=0 value=0.5 for=400ms;"
                               "@2s jitter-storm call=0 value=15000 for=300ms",
                               &plan));
    FaultDriver driver(&sim, plan);
    driver.Start();
    sim.RunFor(Seconds(4));

    EXPECT_TRUE(driver.quiescent());
    EXPECT_EQ(driver.applied(), 2u);
    EXPECT_EQ(driver.restored(), 2u);
    EXPECT_EQ(driver.skipped(), 0u);
    const HopQuality* quality = sim.network().CircuitQuality(a.port(), at_b);
    ASSERT_NE(quality, nullptr);
    EXPECT_EQ(quality->loss_rate, 0.0);
    EXPECT_EQ(quality->jitter_max, 0);

    // The burst episode lost roughly half of 400ms of 4ms segments (~50 of
    // 100); outside the episodes the stream was clean.
    const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
    ASSERT_NE(tracker, nullptr);
    EXPECT_GT(tracker->missing_total(), 20u);
    EXPECT_LT(tracker->missing_total(), 90u);
    EXPECT_GT(tracker->received(), 800u);
  }
}

TEST(FaultDriverTest, OverlappingEpisodesRestoreThePreStormState) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Simulation sim(ShardedWorld(shards));
    PandoraBox& a = sim.AddBox(PinnedBoxOptions("a"));
    PandoraBox& b = sim.AddBox(PinnedBoxOptions("b"));
    sim.Start();
    StreamId at_b = sim.SendAudio(a, b);

    // Jitter episode B starts inside episode A and outlives A's restore; a
    // burst-loss episode overlaps both.  A's restore must not truncate B, and
    // B's restore must put back the PRE-storm state, not A's impairment
    // (which is what a restore-time snapshot of "current" would capture).
    FaultPlan plan;
    ASSERT_TRUE(ParseFaultPlan("@1s jitter-storm call=0 value=20000 for=600ms;"
                               "@1200ms jitter-storm call=0 value=30000 for=1s;"
                               "@1300ms burst-loss call=0 value=0.4 for=400ms",
                               &plan));
    FaultDriver driver(&sim, plan);
    driver.Start();

    // 1.9s: A (1.6s) and the burst episode (1.7s) have nominally ended, B is
    // still active — the circuit must still carry B's jitter, with the burst
    // restore having put back only its own field.
    sim.RunFor(Millis(1900));
    const HopQuality* quality = sim.network().CircuitQuality(a.port(), at_b);
    ASSERT_NE(quality, nullptr);
    EXPECT_EQ(quality->jitter_max, 30000);
    EXPECT_EQ(quality->loss_rate, 0.0);

    sim.RunFor(Millis(2100));
    EXPECT_TRUE(driver.quiescent());
    EXPECT_EQ(driver.applied(), 3u);
    EXPECT_EQ(driver.restored(), 3u);
    quality = sim.network().CircuitQuality(a.port(), at_b);
    ASSERT_NE(quality, nullptr);
    EXPECT_EQ(quality->jitter_max, 0);
    EXPECT_EQ(quality->loss_rate, 0.0);
    EXPECT_EQ(quality->bits_per_second, HopQuality{}.bits_per_second);
  }
}

TEST(FaultDriverTest, OverlappingCircuitDownStaysDownUntilTheLastEpisodeEnds) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);

  // Two overlapping outages covering 1.0s..1.8s: the first restore (1.4s)
  // must not bring the circuit up under the second episode.
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("@1s circuit-down call=0 for=400ms;"
                             "@1200ms circuit-down call=0 for=600ms",
                             &plan));
  FaultDriver driver(&sim, plan);
  driver.Start();
  sim.RunFor(Seconds(3));

  EXPECT_TRUE(driver.quiescent());
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  // ~200 segments fall in the union of the outages (a truncated second
  // episode would lose only ~100); delivery resumes afterwards.
  EXPECT_GT(tracker->missing_total(), 160u);
  EXPECT_LT(tracker->missing_total(), 240u);
  EXPECT_GT(tracker->received(), 450u);
}

TEST(FaultDriverTest, BridgedCircuitQualityFaultsAreSkipped) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  CallPath path;
  path.hops = {sim.network().AddHop("bridge", HopQuality{})};
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b, path);

  // ForwardProc never consults the direct quality on a bridged circuit, so
  // a quality storm there must count as skipped, not silently applied.
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("@1s burst-loss call=0 value=0.5 for=300ms", &plan));
  FaultDriver driver(&sim, plan);
  driver.Start();
  sim.RunFor(Seconds(2));

  EXPECT_TRUE(driver.quiescent());
  EXPECT_EQ(driver.applied(), 0u);
  EXPECT_EQ(driver.skipped(), 1u);
  EXPECT_EQ(driver.restored(), 0u);
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->missing_total(), 0u);
}

TEST(FaultDriverTest, ReceiverChurnClausesAreSkippedNotApplied) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);

  // Mixed plan: churn clauses target overlay receivers, which the
  // Simulation-level driver has no registry for.  They must count as
  // skipped — the call-level clause still applies and restores.
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("@500ms churn recv=12 for=200ms;"
                             " @1s burst-loss call=0 value=0.25 for=200ms;"
                             " @900ms churn recv=31",
                             &plan));
  FaultDriver driver(&sim, plan);
  driver.Start();
  sim.RunFor(Seconds(2));

  EXPECT_TRUE(driver.quiescent());
  EXPECT_EQ(driver.applied(), 1u);
  EXPECT_EQ(driver.skipped(), 2u);
  EXPECT_EQ(driver.restored(), 1u);
  // The call is alive and streaming after the mixed storm.
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  EXPECT_GT(tracker->received(), 0u);
}

TEST(FaultDriverTest, CircuitDownLosesOnlyDuringEpisode) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);

  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("@1s circuit-down call=0 for=500ms", &plan));
  FaultDriver driver(&sim, plan);
  driver.Start();
  sim.RunFor(Seconds(3));

  EXPECT_TRUE(driver.quiescent());
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  // ~125 segments fall in the 500ms outage; delivery resumes afterwards.
  EXPECT_GT(tracker->missing_total(), 100u);
  EXPECT_LT(tracker->missing_total(), 150u);
  EXPECT_GT(tracker->received(), 550u);
}

TEST(FaultDriverTest, StaleTargetsAreSkippedNotFatal) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Simulation sim(ShardedWorld(shards));
    PandoraBox& a = sim.AddBox(PinnedBoxOptions("a"));
    PandoraBox& b = sim.AddBox(PinnedBoxOptions("b"));
    sim.Start();
    StreamId at_b = sim.SendAudio(a, b);

    // Call 7 and box 9 do not exist; call 0 is hung up before its fault fires.
    FaultPlan plan;
    ASSERT_TRUE(ParseFaultPlan("@1s burst-loss call=7 value=0.5 for=100ms;"
                               "@1s crash box=9 for=100ms;"
                               "@2s circuit-down call=0 for=100ms",
                               &plan));
    FaultDriver driver(&sim, plan);
    driver.Start();
    sim.RunFor(Millis(1500));
    sim.HangUpAudio(a, b, at_b);
    sim.RunFor(Millis(2000));

    EXPECT_TRUE(driver.quiescent());
    EXPECT_EQ(driver.applied(), 0u);
    EXPECT_EQ(driver.skipped(), 3u);
  }
}

TEST(FaultDriverTest, PoolPressureEpisodeStarvesThenReleases) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);

  FaultPlan plan;
  // Seize nearly the whole sender-side pool for half a second.
  ASSERT_TRUE(ParseFaultPlan("@1s pool-pressure box=0 value=250 for=500ms", &plan));
  FaultDriver driver(&sim, plan);
  driver.Start();
  sim.RunFor(Millis(1200));
  EXPECT_GT(a.pool().pressure_held(), 200u);
  sim.RunFor(Millis(1800));
  EXPECT_TRUE(driver.quiescent());
  EXPECT_EQ(a.pool().pressure_held(), 0u);

  // Audio kept being delivered after the squeeze ended.
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  uint64_t received_after = tracker->received();
  EXPECT_GT(received_after, 500u);
}

TEST(FaultDriverTest, OverlappingPoolPressureReleasesOnlyAfterTheLastEpisode) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  sim.SendAudio(a, b);

  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("@1s pool-pressure box=0 value=60 for=300ms;"
                             "@1100ms pool-pressure box=0 value=60 for=600ms",
                             &plan));
  FaultDriver driver(&sim, plan);
  driver.Start();

  // 1.5s: the first episode's restore has fired but the second is active —
  // the seized buffers must still be held, not released wholesale.
  sim.RunFor(Millis(1500));
  EXPECT_GT(a.pool().pressure_held(), 0u);
  sim.RunFor(Millis(1500));
  EXPECT_TRUE(driver.quiescent());
  EXPECT_EQ(a.pool().pressure_held(), 0u);
}

// --- Crash / restart --------------------------------------------------------

TEST(FaultCrashTest, DeadPeersRowsDropLiveCallsUndisturbed) {
  Simulation sim;
  PandoraBox& src = sim.AddBox(BoxOptions("src"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  PandoraBox& c = sim.AddBox(BoxOptions("c"));
  sim.Start();
  sim.SendAudio(src, b);
  StreamId at_c = sim.SplitAudioTo(src, src.mic_stream(), c);
  sim.RunFor(Seconds(1));

  const SequenceTracker* c_tracker = c.audio_receiver().TrackerFor(at_c);
  ASSERT_NE(c_tracker, nullptr);
  uint64_t c_before = c_tracker->received();

  sim.CrashBox(b);
  sim.RunFor(Seconds(1));

  // The source's table kept the mic stream but dropped the dead VCI.
  const StreamRoute* route = src.server_switch().table().Find(src.mic_stream());
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->out_vcis.size(), 1u);
  EXPECT_EQ(route->out_vcis[0], at_c);

  // The good copy never lost a segment and kept flowing (principle 6).
  EXPECT_EQ(c_tracker->missing_total(), 0u);
  EXPECT_GT(c_tracker->received(), c_before + 200);
}

TEST(FaultCrashTest, ReceiverCrashAndRestartReplumbsSameStreamId) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);
  sim.RunFor(Seconds(1));

  sim.CrashBox(b);
  EXPECT_TRUE(b.crashed());
  EXPECT_EQ(b.crash_count(), 1u);
  sim.RunFor(Millis(300));

  sim.RestartBox(b);
  EXPECT_FALSE(b.crashed());
  sim.RunFor(Seconds(1));

  // Same stream id at the destination; the rebuilt receiver sees traffic.
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  EXPECT_GT(tracker->received(), 200u);
  EXPECT_GT(b.codec_out().played_blocks(), 400u);
}

TEST(FaultCrashTest, SenderCrashScrubsReceiverRouteThenRestartsClean) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a", /*with_video=*/true));
  PandoraBox& b = sim.AddBox(BoxOptions("b", /*with_video=*/true));
  sim.Start();
  StreamId audio_at_b = sim.SendAudio(a, b);
  StreamId video_at_b = sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4);
  sim.RunFor(Seconds(1));

  sim.CrashBox(a);
  // The receiver's table no longer routes the dead peer's streams.
  EXPECT_EQ(b.server_switch().table().Find(audio_at_b), nullptr);
  EXPECT_EQ(b.server_switch().table().Find(video_at_b), nullptr);
  sim.RunFor(Millis(500));

  uint64_t frames_before = b.display()->frames_displayed();
  sim.RestartBox(a);
  sim.RunFor(Seconds(2));

  // Restart re-plumbed both legs with the original ids: audio plays and the
  // re-added camera produces frames again.
  EXPECT_NE(b.server_switch().table().Find(audio_at_b), nullptr);
  EXPECT_NE(b.server_switch().table().Find(video_at_b), nullptr);
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(audio_at_b);
  ASSERT_NE(tracker, nullptr);
  EXPECT_GT(tracker->received(), 200u);
  EXPECT_GT(b.display()->frames_displayed(), frames_before + 20);
}

TEST(FaultCrashTest, CrashMidSegmentUnderLoadLeaksNothing) {
  // Both directions, video both ways, and a crash landed mid-run: every
  // segment parked in the dead box's channels, decoupling buffers, clawback
  // bank and network queues must drain back to its pool before the pool is
  // destroyed (ASan/LSan in the sanitized configuration proves the "leaks
  // nothing" half; the continued health of the survivor proves isolation).
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a", /*with_video=*/true));
  PandoraBox& b = sim.AddBox(BoxOptions("b", /*with_video=*/true));
  sim.Start();
  sim.SendAudio(a, b);
  sim.SendAudio(b, a);
  sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4);
  sim.SendVideo(b, a, Rect{0, 0, 64, 48}, 1, 1, 4);
  sim.RunFor(Millis(1234));  // deliberately not segment-aligned

  sim.CrashBox(b);
  sim.RunFor(Seconds(1));

  // The survivor's own audio pipeline is still healthy.
  EXPECT_FALSE(a.crashed());
  uint64_t played = a.codec_out().played_blocks();
  sim.RunFor(Seconds(1));
  EXPECT_GT(a.codec_out().played_blocks(), played);

  // Crash the survivor too: both pools must unwind cleanly at teardown.
  sim.CrashBox(a);
  sim.RunFor(Millis(200));
}

TEST(FaultCrashTest, CrashWithQueuedNetoutSegmentsRestartsClean) {
  // A saturated uplink keeps both of the box's network output buffers
  // non-empty; the box crashes with segments queued (and one in hand) in
  // each.  They must go back to the pool without the kill sweep touching
  // them as a dead process's values, and after a restart and re-plumb the
  // peers hear the box again.
  Simulation sim;
  PandoraBox::Options a_options = BoxOptions("a", /*with_video=*/true);
  a_options.network_egress_bps = 400'000;
  PandoraBox& a = sim.AddBox(a_options);
  PandoraBox& b = sim.AddBox(BoxOptions("b", /*with_video=*/true));
  sim.Start();
  const StreamId audio_at_b = sim.SendAudio(a, b);
  const StreamId audio_at_a = sim.SendAudio(b, a);
  sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4);
  sim.RunFor(Millis(500));

  DecouplingBuffer& audio = a.network_output().audio_buffer();
  DecouplingBuffer& video = a.network_output().video_buffer();
  for (int step = 0; step < 2000 && (audio.depth() == 0 || video.depth() == 0); ++step) {
    sim.RunFor(Micros(250));
  }
  ASSERT_GT(audio.depth(), 0u);
  ASSERT_GT(video.depth(), 0u);
  EXPECT_GT(a.network_output().video_drops(), 0u);  // the uplink really is saturated

  sim.CrashBox(a);
  sim.RunFor(Millis(300));
  sim.RestartBox(a);
  const SequenceTracker* at_b = b.audio_receiver().TrackerFor(audio_at_b);
  const uint64_t b_before = at_b == nullptr ? 0 : at_b->received();
  sim.RunFor(Seconds(1));

  at_b = b.audio_receiver().TrackerFor(audio_at_b);
  ASSERT_NE(at_b, nullptr);
  EXPECT_GT(at_b->received(), b_before + 100);
  const SequenceTracker* at_a = a.audio_receiver().TrackerFor(audio_at_a);
  ASSERT_NE(at_a, nullptr);
  EXPECT_GT(at_a->received(), 100u);
  EXPECT_GT(a.codec_out().played_blocks(), 200u);
}

TEST(FaultCrashTest, RepeatedCrashRestartCyclesStayStable) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a"));
  PandoraBox& b = sim.AddBox(BoxOptions("b"));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);
  StreamId at_a = sim.SendAudio(b, a);
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim.RunFor(Millis(700));
    sim.CrashBox(b);
    sim.RunFor(Millis(300));
    sim.RestartBox(b);
  }
  sim.RunFor(Seconds(1));
  EXPECT_EQ(b.crash_count(), 3u);
  const SequenceTracker* tracker = b.audio_receiver().TrackerFor(at_b);
  ASSERT_NE(tracker, nullptr);
  EXPECT_GT(tracker->received(), 150u);
  ASSERT_NE(a.audio_receiver().TrackerFor(at_a), nullptr);
}

// --- Deterministic replay ---------------------------------------------------

struct ChaosOutcome {
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t a_played = 0;
  uint64_t b_played = 0;
  uint64_t b_received = 0;
  size_t applied = 0;
  size_t skipped = 0;
  size_t restored = 0;
  Time quiescent_at = 0;

  bool operator==(const ChaosOutcome&) const = default;
};

ChaosOutcome RunChaosOnce(const FaultPlan& plan) {
  Simulation sim;
  PandoraBox& a = sim.AddBox(BoxOptions("a", /*with_video=*/true));
  PandoraBox& b = sim.AddBox(BoxOptions("b", /*with_video=*/true));
  sim.Start();
  StreamId at_b = sim.SendAudio(a, b);
  sim.SendAudio(b, a);
  sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4);
  FaultDriver driver(&sim, plan);
  driver.Start();
  sim.RunFor(Seconds(5));

  ChaosOutcome outcome;
  outcome.delivered = sim.network().total_delivered();
  outcome.lost = sim.network().total_lost();
  outcome.a_played = a.crashed() ? 0 : a.codec_out().played_blocks();
  outcome.b_played = b.crashed() ? 0 : b.codec_out().played_blocks();
  const SequenceTracker* tracker =
      b.crashed() ? nullptr : b.audio_receiver().TrackerFor(at_b);
  outcome.b_received = tracker != nullptr ? tracker->received() : 0;
  outcome.applied = driver.applied();
  outcome.skipped = driver.skipped();
  outcome.restored = driver.restored();
  outcome.quiescent_at = driver.quiescent_at();
  return outcome;
}

TEST(FaultDriverTest, ChaosRunsReplayBitIdentically) {
  RandomPlanOptions options;
  options.call_count = 3;
  options.box_count = 2;
  options.start = Millis(800);
  options.horizon = Seconds(3);
  for (uint64_t seed : {11u, 47u, 90210u}) {
    FaultPlan plan = RandomFaultPlan(seed, options);
    ChaosOutcome first = RunChaosOnce(plan);
    ChaosOutcome second = RunChaosOnce(plan);
    EXPECT_EQ(first, second) << "seed " << seed << " plan: " << FormatFaultPlan(plan);
    EXPECT_GT(first.applied + first.skipped, 0u);
  }
}

// --- P1 shed accounting at a mixed-direction destination --------------------

TEST(FaultShedStatsTest, IncomingShedsBeforeOutgoingAtMixedDestination) {
  // Switch-level: one congested destination fed by an incoming and an
  // outgoing video stream.  The degrader must sacrifice the incoming one
  // first (P1); the per-destination shed stats make the ordering checkable
  // without parsing traces.
  Scheduler sched;
  BufferPool pool(&sched, "pool", 128);
  SwitchOptions sw_options;
  sw_options.name = "sw";
  Switch sw(&sched, sw_options);
  DecouplingBuffer out(&sched, {.name = "out", .capacity = 8, .use_ready_channel = true});
  ShutdownGuard guard(&sched);
  DestinationId dest = sw.AddDestination("out", &out);
  sw.OpenRoute(1, dest, /*incoming=*/true, /*audio=*/false);
  sw.OpenRoute(2, dest, /*incoming=*/false, /*audio=*/false);
  sw.Start();
  out.Start();

  auto feeder = [](Scheduler* s, BufferPool* p, Switch* sw) -> Process {
    VideoHeader vh;
    for (uint32_t i = 0; i < 2000; ++i) {
      for (StreamId stream : {StreamId{1}, StreamId{2}}) {
        auto ref = p->TryAllocate();
        if (ref.has_value()) {
          **ref = MakeVideoSegment(stream, i, s->now(), vh, std::vector<uint8_t>(64, 0));
          co_await sw->input().Send(std::move(*ref));
        }
      }
      co_await s->WaitFor(Millis(1));
    }
  };
  auto slow_drain = [](Scheduler* s, DecouplingBuffer* out) -> Process {
    for (;;) {
      (void)co_await out->output().Receive();
      co_await s->WaitFor(Millis(1));  // half the offered rate
    }
  };
  sched.Spawn(feeder(&sched, &pool, &sw), "feeder");
  sched.Spawn(slow_drain(&sched, &out), "drain");
  sched.RunFor(Seconds(3));

  const Switch::ShedStats& sheds = sw.shed_stats_for(dest);
  EXPECT_GT(sheds.incoming, 0u);
  ASSERT_NE(sheds.first_incoming, -1);
  if (sheds.outgoing > 0) {
    EXPECT_LE(sheds.first_incoming, sheds.first_outgoing);
    EXPECT_GE(sheds.incoming, sheds.outgoing);
  }
}

}  // namespace
}  // namespace pandora
