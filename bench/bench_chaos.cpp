// E15 — Chaos: a three-box call through a scripted fault storm.
//
// Claims: the degradation machinery holds its ordering promises while the
// environment is actively hostile — audio survives a storm that video does
// not (P2), incoming streams are sacrificed before outgoing ones (P1) and
// old before new (P3), a box power-cycle mid-call re-plumbs
// deterministically — and once the storm passes, the clawback buffers walk
// their delay back down to the quiet-time band.
//
// Workload: boxes a, b, c.  a sends audio+two videos to b through a
// squeezed 900kbit/s uplink (P2 pressure), b answers with audio and two
// videos, and a splits its microphone to c over a circuit the storm never
// touches (the P5 good copy).  On a, the two incoming videos from b plus
// a's own local-camera stream are additionally routed to a deliberately
// congested destination drained at half the offered rate, so the P1/P3
// shedding order is exercised by real, storm-modulated traffic.  The
// pinned plan crashes b for 600ms mid-call, then lashes the re-established
// circuits with burst loss, a bandwidth collapse and jitter storms, and
// finally seizes a quarter of a's buffer pool.
//
// The whole run is simulated time: two invocations produce byte-identical
// summary JSON (the chaos_golden CTest entry diffs exactly that).  Override
// the storm with PANDORA_FAULT_PLAN=<plan text> to replay a failing seed
// from the property suite.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "src/buffer/decoupling.h"
#include "src/core/simulation.h"
#include "src/fault/driver.h"
#include "src/fault/plan.h"
#include "src/server/switch.h"

namespace pandora {
namespace {

// The scripted storm (all times are onsets in simulated time; every episode
// restores what it broke).  Call indices follow the plumbing order in main.
constexpr const char* kPinnedPlan =
    "seed=424242;"
    " @1200ms crash box=1 for=600ms;"
    " @2200ms burst-loss call=0 value=0.3 for=300ms;"
    " @2600ms bandwidth-collapse call=1 value=256000 for=400ms;"
    " @3100ms jitter-storm call=5 value=30000 for=500ms;"
    " @3150ms jitter-storm call=3 value=24000 for=450ms;"
    " @3700ms pool-pressure box=0 value=24 for=300ms";

// The storm runs until the driver goes quiescent, but no longer than this.
constexpr Time kStormWindow = Seconds(20);

// Why this topology cannot replay `event`, or null when it can.  Box a
// (box 0) holds the auxiliary destination's segments in its pool, which a
// crash frees under the drain; boxes b and c must be back up for the
// report, so their crashes must restart inside the storm window.
const char* Unreplayable(const FaultEvent& event) {
  if (event.kind != FaultKind::kBoxCrash) {
    return nullptr;
  }
  if (event.target == 0) {
    return "crashing box a would free segments the auxiliary destination still holds";
  }
  if ((event.target == 1 || event.target == 2) &&
      (event.duration <= 0 || event.at + event.duration >= kStormWindow)) {
    return "a crash of box b or c must restart inside the 20s storm window";
  }
  return nullptr;
}

// Depth every live clawback buffer must re-reach after the storm: the lower
// target (2 blocks) plus slack for blocks legitimately in flight.
constexpr uint32_t kReplateauBlocks = 4;

bool AllClawedBack(Simulation& sim) {
  for (size_t i = 0; i < sim.box_count(); ++i) {
    PandoraBox& box = sim.box(i);
    if (box.crashed()) {
      continue;
    }
    for (StreamId stream : box.clawback_bank().ActiveStreams()) {
      ClawbackBuffer* buffer = box.clawback_bank().Find(stream);
      if (buffer != nullptr && buffer->depth_blocks() > kReplateauBlocks) {
        return false;
      }
    }
  }
  return true;
}

// Per-stream switch drop counters reset when churn closes and re-opens the
// route (a crash of the sending box does exactly that), so the bench sums
// across route epochs by sampling every slice.
struct DropAccumulator {
  uint64_t base = 0;
  uint64_t prev = 0;
  void Sample(uint64_t now) {
    if (now < prev) {
      base += prev;  // the route was torn down and recreated
    }
    prev = now;
  }
  uint64_t total() const { return base + prev; }
};

// The half-rate consumer behind the congested auxiliary destination.
Process AuxDrain(Scheduler* sched, DecouplingBuffer* buffer) {
  for (;;) {
    (void)co_await buffer->output().Receive();
    co_await sched->WaitFor(Millis(2));
  }
}

double Percent(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  BenchHeader("E15", "three-box call through a scripted fault storm",
              "orderly degradation under faults; clawback re-plateaus after the storm");

  FaultPlan plan;
  std::string parse_error;
  if (!FaultPlanFromEnv(&plan, &parse_error)) {
    if (!parse_error.empty()) {
      std::fprintf(stderr, "PANDORA_FAULT_PLAN rejected: %s\n", parse_error.c_str());
      return 2;
    }
    const bool ok = ParseFaultPlan(kPinnedPlan, &plan, &parse_error);
    if (!ok) {
      std::fprintf(stderr, "pinned plan rejected: %s\n", parse_error.c_str());
      return 2;
    }
  }
  for (const FaultEvent& event : plan.events) {
    if (const char* why = Unreplayable(event)) {
      FaultPlan clause;
      clause.events.push_back(event);
      const std::string text = FormatFaultPlan(clause);
      std::fprintf(stderr, "PANDORA_FAULT_PLAN rejected: `%s`: %s\n",
                   text.substr(text.find("; ") + 2).c_str(), why);
      return 2;
    }
  }

  Simulation sim;
  PandoraBox::Options options;
  options.name = "a";
  options.with_video = true;
  // Two 64x48@25fps videos (~614kbit/s each) plus audio into 900kbit/s:
  // persistent overload, so the P2 class ordering is exercised from t=0.
  options.network_egress_bps = 900'000;
  options.clawback.count_threshold = 256;  // claw ~2 blocks/s: visible re-plateau
  PandoraBox& a = sim.AddBox(options);

  options = PandoraBox::Options{};
  options.name = "b";
  options.with_video = true;
  options.clawback.count_threshold = 256;
  PandoraBox& b = sim.AddBox(options);

  options = PandoraBox::Options{};
  options.name = "c";
  options.with_video = false;
  options.clawback.count_threshold = 256;
  PandoraBox& c = sim.AddBox(options);

  BenchEnableTrace(sim.scheduler());
  sim.Start();
  StreamId audio_at_b = sim.SendAudio(a, b);                                 // call 0
  StreamId video_at_b = sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4);   // call 1
  StreamId audio_at_c = sim.SplitAudioTo(a, a.mic_stream(), c);             // call 2
  sim.SendAudio(b, a);                                                      // call 3
  sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4);                         // call 4
  StreamId video_old = sim.SendVideo(b, a, Rect{0, 0, 64, 48}, 1, 1, 4);    // call 5
  StreamId video_new = sim.SendVideo(b, a, Rect{0, 0, 64, 48}, 1, 1, 4);    // call 6
  StreamId camera = sim.ShowLocalVideo(a, Rect{0, 0, 64, 48});
  (void)video_at_b;

  // The congested auxiliary destination at a: three video streams (~600
  // segments/s) into a half-rate drain, carrying a mixed population —
  // incoming video_old (longest open), incoming video_new, and a's own
  // OUTGOING camera stream — so the degrader's P1/P3 ordering decides who
  // suffers.
  DecouplingBuffer aux(&sim.scheduler(),
                       {.name = "bench.aux", .capacity = 8, .use_ready_channel = true});
  aux.Start();
  DestinationId aux_dest = a.server_switch().AddDestination("bench.aux", &aux);
  a.server_switch().OpenRoute(video_old, aux_dest, /*incoming=*/true, /*audio=*/false);
  a.server_switch().OpenRoute(video_new, aux_dest, /*incoming=*/true, /*audio=*/false);
  a.server_switch().OpenRoute(camera, aux_dest, /*incoming=*/false, /*audio=*/false);
  sim.scheduler().Spawn(AuxDrain(&sim.scheduler(), &aux), "bench.aux_drain");

  FaultDriver driver(&sim, plan);
  driver.Start();

  // Run out the storm (pinned plan quiesces at 4.0s) in slices, sampling
  // the per-stream drop counters so the totals survive b's crash (which
  // closes and re-opens the routes, resetting the live counters).
  DropAccumulator old_drops;
  DropAccumulator new_drops;
  auto sample = [&] {
    old_drops.Sample(a.server_switch().drops_for(video_old));
    new_drops.Sample(a.server_switch().drops_for(video_new));
  };
  while (!driver.quiescent() && sim.now() < kStormWindow) {
    sim.RunFor(Millis(100));
    sample();
  }
  const Time storm_over = driver.quiescent() ? driver.quiescent_at() : sim.now();
  Time replateau_at = -1;
  while (sim.now() < storm_over + Seconds(30)) {
    sim.RunFor(Millis(100));
    sample();
    if (replateau_at < 0 && AllClawedBack(sim)) {
      replateau_at = sim.now();
    }
    if (replateau_at >= 0 && sim.now() >= replateau_at + Seconds(1)) {
      break;  // a post-plateau margin so final counters settle
    }
  }

  std::printf("\n  storm: %zu events applied, %zu skipped (stale targets)\n",
              static_cast<size_t>(driver.applied()), static_cast<size_t>(driver.skipped()));
  BenchRow("faults applied", static_cast<double>(driver.applied()), "");
  BenchRow("box b power cycles survived", static_cast<double>(b.crash_count()), "",
           "(call re-plumbed with the same stream ids)");

  // --- audio through the storm ---
  const SequenceTracker* at_b = b.audio_receiver().TrackerFor(audio_at_b);
  const SequenceTracker* at_c = c.audio_receiver().TrackerFor(audio_at_c);
  const double storm_loss =
      at_b == nullptr ? 100.0
                      : Percent(at_b->missing_total(), at_b->received() + at_b->missing_total());
  const double good_loss =
      at_c == nullptr ? 100.0
                      : Percent(at_c->missing_total(), at_c->received() + at_c->missing_total());
  BenchRow("audio loss on the stormed circuit", storm_loss, "%",
           "(burst-loss episode + crash re-plumb)");
  BenchRow("audio loss on the good split copy", good_loss, "%", "(paper P5: 0)");

  // --- P2 at a's squeezed uplink ---
  const NetworkOutput& out = a.network_output();
  const double audio_fraction = Percent(out.audio_drops(), out.audio_drops() + out.audio_sent());
  const double video_fraction = Percent(out.video_drops(), out.video_drops() + out.video_sent());
  const bool p2_held = audio_fraction <= video_fraction + 1e-9;
  BenchRow("audio shed fraction at the uplink", audio_fraction, "%");
  BenchRow("video shed fraction at the uplink", video_fraction, "%");
  BenchRow("P2 held (audio <= video)", p2_held ? 1.0 : 0.0, "", p2_held ? "yes" : "NO");

  // --- P1/P3 at the congested mixed destination on a ---
  const Switch::ShedStats& sheds = a.server_switch().shed_stats_for(aux_dest);
  const bool p1_held =
      sheds.outgoing == 0 ||
      (sheds.incoming > 0 && sheds.first_incoming <= sheds.first_outgoing);
  BenchRow("incoming sheds at the congested dest", static_cast<double>(sheds.incoming), "");
  BenchRow("outgoing sheds at the congested dest", static_cast<double>(sheds.outgoing), "");
  BenchRow("P1 held (incoming shed first)", p1_held ? 1.0 : 0.0, "",
           sheds.incoming == 0 && sheds.outgoing == 0 ? "yes (not exercised)"
           : p1_held                                  ? "yes"
                                                      : "NO");
  const bool p3_held = old_drops.total() >= new_drops.total();
  BenchRow("drops on the LONGEST-OPEN video", static_cast<double>(old_drops.total()), "");
  BenchRow("drops on the NEWEST video", static_cast<double>(new_drops.total()), "");
  BenchRow("P3 held (oldest degraded first)", p3_held ? 1.0 : 0.0, "", p3_held ? "yes" : "NO");

  // --- clawback re-plateau ---
  const double replateau_ms =
      replateau_at < 0 ? -1.0 : static_cast<double>(replateau_at - storm_over) / 1000.0;
  BenchRow("time to clawback re-plateau", replateau_ms, "ms",
           replateau_at < 0 ? "NEVER within 30s" : "(storm end -> all depths <= 4 blocks)");

  BenchNote(
      "replay a plan against this topology: PANDORA_FAULT_PLAN=\"<plan>\" bench_chaos"
      " (box a never crashes; b and c restart inside 20s)");
  BenchExportTrace(sim.scheduler());
  const int rc = BenchFinish();
  // `aux` (and the frames pumping it) must not outlive each other across
  // main's reverse-declaration teardown: destroy every coroutine frame now,
  // while aux's channels are still alive.  ~Simulation's own Shutdown call
  // is then a no-op.
  sim.scheduler().Shutdown();
  return rc != 0 || !p2_held || !p3_held || !p1_held ? (rc != 0 ? rc : 3) : 0;
}
