// E9 — Degradation order under overload (paper section 2.1, principles 1-3).
//
// Claims: under overload, incoming streams degrade before outgoing ones
// (P1), video before audio (P2), and the longest-open streams first (P3).
//
// Workload: a box with a squeezed network interface carrying four outgoing
// streams opened in order: old video, old audio, new video, new audio —
// while also receiving streams.  We report per-stream delivery so the
// degradation ordering is visible, plus a P3 A/B: two same-class streams of
// different ages through one congested destination.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/core/simulation.h"
#include "src/server/switch.h"

namespace pandora {
namespace {

// P2 at the interface: audio and video sharing a starved 2Mbit/s uplink.
void RunAudioVideoSqueeze() {
  Simulation sim;
  PandoraBox::Options options;
  options.with_video = true;
  options.video_width = 320;
  options.video_height = 240;
  options.name = "tx";
  options.network_egress_bps = 2'000'000;  // the squeezed interface itself
  PandoraBox& tx = sim.AddBox(options);
  options.name = "rx";
  options.network_egress_bps = 20'000'000;
  PandoraBox& rx = sim.AddBox(options);
  sim.Start();

  StreamId audio = sim.SendAudio(tx, rx);
  StreamId video = sim.SendVideo(tx, rx, Rect{0, 0, 320, 240}, 1, 1, 4);
  // Raw video at 25fps = ~15Mbit/s offered to a 2Mbit/s path: hopeless.
  sim.RunFor(Seconds(10));

  const SequenceTracker* audio_tracker = rx.audio_receiver().TrackerFor(audio);
  double audio_loss = audio_tracker != nullptr ? audio_tracker->LossFraction() : 1.0;
  uint64_t video_drops = tx.network_output().video_drops();
  uint64_t audio_drops = tx.network_output().audio_drops();
  std::printf("\n  P2 — 2Mbit/s uplink, audio + 25fps video offered together:\n");
  BenchRow("audio loss at destination", audio_loss * 100.0, "%", "(paper: audio protected)");
  BenchRow("video segments shed at the splitter", static_cast<double>(video_drops), "",
           "(paper: video degrades first)");
  BenchRow("audio segments shed at the splitter", static_cast<double>(audio_drops), "",
           "(paper: 0)");
  std::printf("  video stream=%u displayed %.1f fps of 25 offered\n", video,
              rx.display()->MeasuredFps(video, Seconds(10)));
}

// P3 in isolation: two equal audio streams, different ages, one congested
// destination buffer drained at half the offered rate.
void RunAgePriority() {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 128);
  Switch sw(&sched, SwitchOptions{.name = "sw"});
  DecouplingBuffer out(&sched, {.name = "out", .capacity = 8, .use_ready_channel = true});
  ShutdownGuard guard(&sched);
  DestinationId dest = sw.AddDestination("out", &out);
  sw.OpenRoute(1, dest, true, true);  // opened first: the OLD stream
  sw.OpenRoute(2, dest, true, true);  // the NEW stream (the incoming call)
  sw.Start();
  out.Start();

  auto feeder = [](Scheduler* s, BufferPool* p, Switch* sw) -> Process {
    for (uint32_t i = 0; i < 2000; ++i) {
      for (StreamId stream : {StreamId{1}, StreamId{2}}) {
        auto ref = p->TryAllocate();
        if (ref.has_value()) {
          **ref = MakeAudioSegment(stream, i, s->now(), std::vector<uint8_t>(32, 0));
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

  std::printf("\n  P3 — two audio streams, one congested output, drain at half rate:\n");
  BenchRow("drops on the LONGEST-OPEN stream", static_cast<double>(sw.drops_for(1)), "",
           "(paper: degraded first)");
  BenchRow("drops on the NEWEST stream", static_cast<double>(sw.drops_for(2)), "",
           "(paper: protected — the unexpected call gets through)");
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  BenchHeader("E9", "who degrades first under overload?",
              "P1 incoming before outgoing; P2 video before audio; P3 oldest first");
  RunAudioVideoSqueeze();
  RunAgePriority();
  std::printf("\n");
  BenchNote("P1 shows in the architecture: outgoing chains run at high priority and the");
  BenchNote("degradation comparator ranks incoming attrs first (tests: server_test.cc).");
  return BenchFinish();
}
