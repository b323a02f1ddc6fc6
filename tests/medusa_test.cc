// Tests for the Medusa exploded-Pandora devices (paper section 5.2).
#include <gtest/gtest.h>

#include "src/medusa/devices.h"

namespace pandora {
namespace {

// NOTE: each test declares its ShutdownGuard AFTER the devices, so frames
// die before the device pools/channels they reference.
struct MedusaRig {
  MedusaRig() : net(&set, 99) {}

  ShardSet set;
  Scheduler& sched = set.scheduler();
  AtmNetwork net;
};

TEST(MedusaTest, MicrophoneToSpeakerDeliversContinuousAudio) {
  MedusaRig rig;
  NetMicrophone mic(&rig.sched, &rig.net, {.name = "mic", .stream = 1});
  NetSpeaker speaker(&rig.sched, &rig.net, {.name = "spk"});
  StreamId stream = ConnectAudio(&rig.net, &mic, &speaker);
  ShutdownGuard guard(&rig.sched);
  mic.Start();
  speaker.Start();
  rig.sched.RunFor(Seconds(5));

  EXPECT_GT(speaker.codec_out().played_blocks(), 2400u);
  const SequenceTracker* tracker = speaker.receiver().TrackerFor(stream);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->missing_total(), 0u);
  // Best-case latency regime: no server boards in the path.
  const StatAccumulator* latency = speaker.mixer().LatencyFor(stream);
  ASSERT_NE(latency, nullptr);
  EXPECT_LT(latency->Mean(), 12000.0);
}

TEST(MedusaTest, SpeakerMixesSeveralMicrophones) {
  MedusaRig rig;
  NetMicrophone mic1(&rig.sched, &rig.net, {.name = "mic1", .stream = 1, .frequency = 300.0});
  NetMicrophone mic2(&rig.sched, &rig.net, {.name = "mic2", .stream = 1, .frequency = 500.0});
  NetMicrophone mic3(&rig.sched, &rig.net, {.name = "mic3", .stream = 1, .frequency = 800.0});
  NetSpeaker speaker(&rig.sched, &rig.net, {.name = "spk"});
  StreamId s1 = ConnectAudio(&rig.net, &mic1, &speaker);
  StreamId s2 = ConnectAudio(&rig.net, &mic2, &speaker);
  StreamId s3 = ConnectAudio(&rig.net, &mic3, &speaker);
  ShutdownGuard guard(&rig.sched);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s2, s3);
  mic1.Start();
  mic2.Start();
  mic3.Start();
  speaker.Start();
  rig.sched.RunFor(Seconds(3));

  // All three streams active and mixed ("no limit is placed on the number
  // of incoming streams").
  for (StreamId s : {s1, s2, s3}) {
    const SequenceTracker* tracker = speaker.receiver().TrackerFor(s);
    ASSERT_NE(tracker, nullptr) << s;
    EXPECT_GT(tracker->received(), 700u);
    EXPECT_EQ(tracker->missing_total(), 0u);
  }
  EXPECT_GT(speaker.mixer().blocks_mixed(), 4000u);
}

TEST(MedusaTest, MicrophoneFansOutToSeveralSpeakers) {
  MedusaRig rig;
  NetMicrophone mic(&rig.sched, &rig.net, {.name = "mic", .stream = 1});
  NetSpeaker spk1(&rig.sched, &rig.net, {.name = "spk1"});
  NetSpeaker spk2(&rig.sched, &rig.net, {.name = "spk2"});
  ConnectAudio(&rig.net, &mic, &spk1);
  ConnectAudio(&rig.net, &mic, &spk2);
  ShutdownGuard guard(&rig.sched);
  mic.Start();
  spk1.Start();
  spk2.Start();
  rig.sched.RunFor(Seconds(2));
  EXPECT_GT(spk1.codec_out().played_blocks(), 900u);
  EXPECT_GT(spk2.codec_out().played_blocks(), 900u);
}

TEST(MedusaTest, FanOutOverAHopPinsEveryOutcome) {
  // One microphone feeding two speakers and one camera feeding two displays
  // through one jittery, lossy hop.  Each uplink encodes a segment once and
  // shares the wire image across its circuits; the exact values pin the
  // run, so a change to the uplinks that moves any send, draw or release
  // shows here.
  MedusaRig rig;
  HopQuality quality;
  quality.jitter_max = Millis(8);
  quality.loss_rate = 0.01;
  NetHop* hop = rig.net.AddHop("hop", quality);
  NetMicrophone mic(&rig.sched, &rig.net, {.name = "mic", .stream = 1});
  NetSpeaker spk1(&rig.sched, &rig.net, {.name = "spk1"});
  NetSpeaker spk2(&rig.sched, &rig.net, {.name = "spk2"});
  NetCamera cam(&rig.sched, &rig.net, {.name = "cam", .stream = 2});
  NetDisplay disp1(&rig.sched, &rig.net, {.name = "disp1"});
  NetDisplay disp2(&rig.sched, &rig.net, {.name = "disp2"});
  // A source port keys its circuits by VCI, and every device numbers its
  // inputs from 1: the second listeners skip an id so that each circuit
  // has a VCI of its own.
  spk2.AllocateInput();
  disp2.AllocateInput();
  EXPECT_EQ(ConnectAudio(&rig.net, &mic, &spk1, {hop}), 1u);
  EXPECT_EQ(ConnectAudio(&rig.net, &mic, &spk2, {hop}), 2u);
  EXPECT_EQ(ConnectVideo(&rig.net, &cam, &disp1, {hop}), 1u);
  EXPECT_EQ(ConnectVideo(&rig.net, &cam, &disp2, {hop}), 2u);
  ShutdownGuard guard(&rig.sched);
  mic.Start();
  spk1.Start();
  spk2.Start();
  cam.Start();
  disp1.Start();
  disp2.Start();
  rig.sched.RunFor(Seconds(3));

  EXPECT_EQ(spk1.codec_out().played_blocks(), 1498u);
  EXPECT_EQ(spk1.codec_out().underruns(), 0u);
  EXPECT_EQ(spk1.mixer().blocks_mixed(), 1495u);
  EXPECT_EQ(spk2.codec_out().played_blocks(), 1498u);
  EXPECT_EQ(spk2.codec_out().underruns(), 0u);
  EXPECT_EQ(spk2.mixer().blocks_mixed(), 1493u);
  EXPECT_EQ(cam.capture().frames_captured(), 74u);
  EXPECT_EQ(disp1.display().frames_displayed(), 71u);
  EXPECT_EQ(disp1.display().tears(), 0u);
  EXPECT_EQ(disp2.display().frames_displayed(), 70u);
  EXPECT_EQ(disp2.display().tears(), 0u);
  EXPECT_EQ(rig.net.total_delivered(), 2068u);
  EXPECT_EQ(rig.net.bytes_on_wire(), 1205648u);
  EXPECT_EQ(mic.deep_copies(), 750u);
  EXPECT_EQ(spk1.deep_copies(), 740u);
  EXPECT_EQ(spk2.deep_copies(), 743u);
  EXPECT_EQ(cam.deep_copies(), 296u);
  EXPECT_EQ(disp1.deep_copies(), 293u);
  EXPECT_EQ(disp2.deep_copies(), 292u);
}

TEST(MedusaTest, CameraToDisplayShowsFrames) {
  MedusaRig rig;
  NetCamera camera(&rig.sched, &rig.net, {.name = "cam", .stream = 1});
  NetDisplay display(&rig.sched, &rig.net, {.name = "disp"});
  ConnectVideo(&rig.net, &camera, &display);
  ShutdownGuard guard(&rig.sched);
  camera.Start();
  display.Start();
  rig.sched.RunFor(Seconds(2));
  EXPECT_GT(display.display().frames_displayed(), 40u);
  EXPECT_EQ(display.display().tears(), 0u);
  EXPECT_EQ(display.display().undecodable_segments(), 0u);
}

TEST(MedusaTest, TwoCamerasOnOneDisplayInterleave) {
  MedusaRig rig;
  NetCamera cam1(&rig.sched, &rig.net,
                 {.name = "cam1", .stream = 1, .rect = {0, 0, 64, 24}, .segments_per_frame = 2});
  NetCamera cam2(&rig.sched, &rig.net,
                 {.name = "cam2", .stream = 1, .rect = {0, 24, 64, 24}, .segments_per_frame = 2});
  NetDisplay display(&rig.sched, &rig.net, {.name = "disp"});
  StreamId v1 = ConnectVideo(&rig.net, &cam1, &display);
  StreamId v2 = ConnectVideo(&rig.net, &cam2, &display);
  ShutdownGuard guard(&rig.sched);
  cam1.Start();
  cam2.Start();
  display.Start();
  rig.sched.RunFor(Seconds(2));
  EXPECT_GT(display.display().MeasuredFps(v1, Seconds(2)), 20.0);
  EXPECT_GT(display.display().MeasuredFps(v2, Seconds(2)), 20.0);
  // The line cache reloaded as the two streams interleaved.
  EXPECT_GT(display.display().cache_reloads(), 40u);
}

TEST(MedusaTest, ClawbackStillAdaptsAcrossTheFabric) {
  // Principle 8 carries over: the same devices, a jittery path, no tuning.
  MedusaRig rig;
  HopQuality bad;
  bad.jitter_max = Millis(25);
  NetHop* hop = rig.net.AddHop("bad", bad);
  NetMicrophone mic(&rig.sched, &rig.net, {.name = "mic", .stream = 1});
  NetSpeaker speaker(&rig.sched, &rig.net, {.name = "spk"});
  ConnectAudio(&rig.net, &mic, &speaker, {hop});
  ShutdownGuard guard(&rig.sched);
  mic.Start();
  speaker.Start();
  rig.sched.RunFor(Seconds(20));
  auto stats = speaker.bank().TotalStats();
  EXPECT_GT(stats.max_depth, 5u);    // grew to ride the jitter
  EXPECT_EQ(stats.limit_drops, 0u);  // but never hit the 120ms wall
  EXPECT_GT(speaker.codec_out().played_blocks(), 9000u);
}

}  // namespace
}  // namespace pandora
