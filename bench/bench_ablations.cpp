// Ablations — what each Pandora design choice buys (DESIGN.md section 5).
//
// Three A/B comparisons that disable one mechanism at a time:
//  A1. Clawback OFF: the jitter buffer still grows during an episode but
//      never recovers — the conversation keeps the worst-case echo delay
//      forever (the paper's argument against plain elastic buffers).
//  A2. The audio/video interface split OFF (one shared buffer, no audio
//      priority): a video burst starves audio at the saturated interface.
//  A3. The ready channel OFF (plain blocking buffer at the switch): a
//      stalled destination back-pressures the switch and a split copy's
//      gaps appear on the healthy destination too (principle 5 violated).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/buffer/clawback.h"
#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/core/simulation.h"
#include "src/runtime/random.h"
#include "src/server/switch.h"

namespace pandora {
namespace {

// --- A1: clawback on/off under a jitter episode -----------------------------

struct A1Outcome {
  double delay_at_end_ms = 0.0;
  double peak_ms = 0.0;
};

A1Outcome RunClawback(bool clawback_enabled) {
  Scheduler sched;
  ClawbackConfig config;
  if (!clawback_enabled) {
    // An effectively infinite threshold never sacrifices a block: the
    // buffer becomes the plain elastic buffer of [Swinehart83].
    config.count_threshold = 0x7fffffff;
  }
  ClawbackBank bank{config};
  Rng rng(42);
  ShutdownGuard guard(&sched);

  auto producer = [](Scheduler* s, ClawbackBank* bank, Rng* rng) -> Process {
    Time nominal = 0;
    Time last = 0;
    while (nominal < Seconds(120)) {
      Duration jitter_max = nominal < Seconds(20) ? Millis(20) : Millis(2);
      Time arrival = nominal + static_cast<Duration>(
                                   rng->Uniform(0.0, static_cast<double>(jitter_max)));
      arrival = std::max(arrival, last + 1);
      last = arrival;
      if (arrival > s->now()) {
        co_await s->WaitUntil(arrival);
      }
      AudioBlock block;
      bank->Push(1, block);
      nominal += kAudioBlockDuration;
    }
  };
  double peak = 0.0;
  auto mixer = [](Scheduler* s, ClawbackBank* bank, double* peak) -> Process {
    for (Time t = 0; t < Seconds(120); t += kAudioBlockDuration) {
      co_await s->WaitUntil(t);
      ClawbackBuffer* buffer = bank->Find(1);
      if (buffer != nullptr) {
        *peak = std::max(*peak, ToMillis(buffer->delay()));
      }
      (void)bank->Pop(1);
    }
  };
  sched.Spawn(producer(&sched, &bank, &rng), "producer");
  sched.Spawn(mixer(&sched, &bank, &peak), "mixer");
  sched.RunUntilQuiescent();

  A1Outcome o;
  ClawbackBuffer* buffer = bank.Find(1);
  o.delay_at_end_ms = buffer != nullptr ? ToMillis(buffer->delay()) : 0.0;
  o.peak_ms = peak;
  return o;
}

// --- A2: interface audio/video split on/off ---------------------------------

struct A2Outcome {
  double audio_loss_pct = 0.0;
  double audio_latency_ms = 0.0;
  uint64_t video_shed = 0;
};

A2Outcome RunSplit(bool split_enabled) {
  Simulation sim;
  PandoraBox::Options options;
  options.with_video = true;
  options.video_width = 320;
  options.video_height = 240;
  options.name = "tx";
  options.network_egress_bps = 2'000'000;
  if (!split_enabled) {
    // Ablate both halves of the mechanism: a generous shared-size video
    // queue and no audio priority at the interface.
    options.netout.video_buffer_capacity = options.netout.audio_buffer_capacity;
    options.netout.audio_priority = false;
  } else {
    options.netout.video_buffer_capacity = 6;
    options.netout.audio_priority = true;
  }
  PandoraBox& tx = sim.AddBox(options);
  options.name = "rx";
  options.network_egress_bps = 20'000'000;
  PandoraBox& rx = sim.AddBox(options);
  sim.Start();
  StreamId audio = sim.SendAudio(tx, rx);
  sim.SendVideo(tx, rx, Rect{0, 0, 320, 240}, 1, 1, 4);
  sim.RunFor(Seconds(10));

  A2Outcome o;
  // Loss as heard: blocks that never reached the loudspeaker in time.
  const SequenceTracker* tracker = rx.audio_receiver().TrackerFor(audio);
  uint64_t offered = tx.audio_sender().segments_sent();
  uint64_t received = tracker != nullptr ? tracker->received() : 0;
  o.audio_loss_pct =
      offered == 0 ? 0.0 : 100.0 * (1.0 - static_cast<double>(received) / offered);
  const StatAccumulator* latency = rx.mixer().LatencyFor(audio);
  o.audio_latency_ms = latency != nullptr ? latency->Mean() / 1000.0 : 0.0;
  o.video_shed = tx.network_output().video_drops();
  return o;
}

// --- A3: ready channel on/off at the switch ---------------------------------

struct A3Outcome {
  uint64_t healthy_received = 0;
  uint64_t healthy_expected = 0;
  bool switch_wedged = false;
};

A3Outcome RunReady(bool ready_enabled) {
  Scheduler sched;
  BufferPool pool(&sched, "pool", 128);
  Switch sw(&sched, SwitchOptions{.name = "sw"});
  // Healthy destination drains promptly; the stalled one never drains.
  DecouplingBuffer healthy(&sched,
                           {.name = "healthy", .capacity = 8, .use_ready_channel = true});
  DecouplingBuffer stalled(
      &sched, {.name = "stalled", .capacity = 8, .use_ready_channel = ready_enabled});
  ShutdownGuard guard(&sched);
  DestinationId d_healthy = sw.AddDestination("healthy", &healthy);
  DestinationId d_stalled = sw.AddDestination("stalled", &stalled);
  sw.OpenRoute(5, d_healthy, true, true);
  sw.OpenRoute(5, d_stalled, true, true);
  sw.Start();
  healthy.Start();
  stalled.Start();

  uint64_t received = 0;
  auto feeder = [](Scheduler* s, BufferPool* p, Switch* sw) -> Process {
    for (uint32_t i = 0; i < 500; ++i) {
      auto maybe = p->TryAllocate();
      if (maybe.has_value()) {
        **maybe = MakeAudioSegment(5, i, s->now(), std::vector<uint8_t>(32, 0));
        SegmentRef ref = std::move(*maybe);
        co_await sw->input().Send(std::move(ref));
      }
      co_await s->WaitFor(Millis(2));
    }
  };
  auto drain = [](DecouplingBuffer* buffer, uint64_t* received) -> Process {
    for (;;) {
      (void)co_await buffer->output().Receive();
      ++*received;
    }
  };
  sched.Spawn(feeder(&sched, &pool, &sw), "feeder");
  sched.Spawn(drain(&healthy, &received), "drain");
  sched.RunFor(Seconds(2));

  A3Outcome o;
  o.healthy_received = received;
  o.healthy_expected = 500;
  // Without the ready channel the switch blocks on the stalled buffer and
  // stops serving everyone.
  o.switch_wedged = received < 450;
  return o;
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  BenchHeader("ABLATIONS", "what each design choice buys",
              "clawback vs elastic buffer; interface split; ready channel vs blocking");

  std::printf("\n  A1 — clawback vs plain elastic buffer (20ms jitter for 20s, then 2ms):\n");
  A1Outcome with_cb = RunClawback(true);
  A1Outcome without_cb = RunClawback(false);
  BenchRow("final echo delay WITH clawback", with_cb.delay_at_end_ms, "ms",
           "(recovered to the target)");
  BenchRow("final echo delay WITHOUT clawback", without_cb.delay_at_end_ms, "ms",
           "(stuck at the episode's worst case forever)");

  std::printf("\n  A2 — audio/video interface split (2Mbit/s uplink, raw 25fps video):\n");
  A2Outcome with_split = RunSplit(true);
  A2Outcome without_split = RunSplit(false);
  BenchRow("audio loss WITH the split", with_split.audio_loss_pct, "%",
           "(video shed instead: principle 2)");
  BenchRow("audio latency WITH the split", with_split.audio_latency_ms, "ms",
           "(late behind 77ms video serializations, but intact)");
  BenchRow("audio loss WITHOUT the split", without_split.audio_loss_pct, "%",
           "(audio starves behind queued video)");
  BenchRow("audio latency WITHOUT the split", without_split.audio_latency_ms, "ms",
           "(survivors only: almost everything was squeezed out)");

  std::printf("\n  A3 — ready channel vs blocking buffer (one stalled split destination):\n");
  A3Outcome with_ready = RunReady(true);
  A3Outcome without_ready = RunReady(false);
  BenchRow("healthy copy delivery WITH ready channel",
           100.0 * static_cast<double>(with_ready.healthy_received) /
               static_cast<double>(with_ready.healthy_expected),
           "%", "(principle 5 holds)");
  BenchRow("healthy copy delivery WITHOUT it",
           100.0 * static_cast<double>(without_ready.healthy_received) /
               static_cast<double>(without_ready.healthy_expected),
           "%", "(the stalled copy wedges the switch)");
  return BenchFinish();
}
