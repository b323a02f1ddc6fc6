// MEDUSA — the exploded Pandora (paper section 5.2, future work).
//
// Claim: "The main difference in Medusa is that the Pandora boards
// communicating over a network of links and ATM rings have been replaced by
// Medusa boards communicating over an ATM switch fabric so that we have an
// exploded Pandora...  the principles employed in Pandora will still be
// applicable", with streams "more independent than in Pandora" because they
// no longer converge on a server transputer.
//
// Comparison: one live audio stream, box-to-box (through two server boards
// and two inter-board links) vs device-to-device (straight onto the
// fabric), on the same network; then both architectures under the same
// jitter episode, showing the clawback behaving identically.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/simulation.h"
#include "src/medusa/devices.h"

namespace pandora {
namespace {

struct Outcome {
  double latency_mean_ms = 0.0;
  double latency_min_ms = 0.0;
  double played_blocks = 0.0;
  double clawback_max_ms = 0.0;
};

Outcome RunPandora(Duration jitter_max) {
  Simulation sim;
  PandoraBox::Options options;
  options.with_video = false;
  options.name = "tx";
  PandoraBox& tx = sim.AddBox(options);
  options.name = "rx";
  PandoraBox& rx = sim.AddBox(options);
  sim.Start();
  CallPath path;
  path.direct.jitter_max = jitter_max;
  StreamId stream = sim.SendAudio(tx, rx, path);
  sim.RunFor(Seconds(30));

  Outcome o;
  const StatAccumulator* latency = rx.mixer().LatencyFor(stream);
  if (latency != nullptr) {
    o.latency_mean_ms = latency->Mean() / 1000.0;
    o.latency_min_ms = latency->min() / 1000.0;
  }
  o.played_blocks = static_cast<double>(rx.codec_out().played_blocks());
  o.clawback_max_ms = static_cast<double>(rx.clawback_bank().TotalStats().max_depth) * 2.0;
  return o;
}

Outcome RunMedusa(Duration jitter_max) {
  ShardSet set;
  Scheduler& sched = set.scheduler();
  AtmNetwork net(&set, 1);
  NetMicrophone mic(&sched, &net, {.name = "mic", .stream = 1});
  NetSpeaker speaker(&sched, &net, {.name = "spk"});
  ShutdownGuard guard(&sched);
  HopQuality direct;
  direct.jitter_max = jitter_max;
  StreamId stream = ConnectAudio(&net, &mic, &speaker, {}, direct);
  mic.Start();
  speaker.Start();
  sched.RunFor(Seconds(30));

  Outcome o;
  const StatAccumulator* latency = speaker.mixer().LatencyFor(stream);
  if (latency != nullptr) {
    o.latency_mean_ms = latency->Mean() / 1000.0;
    o.latency_min_ms = latency->min() / 1000.0;
  }
  o.played_blocks = static_cast<double>(speaker.codec_out().played_blocks());
  o.clawback_max_ms = static_cast<double>(speaker.bank().TotalStats().max_depth) * 2.0;
  return o;
}

}  // namespace
}  // namespace pandora

int main() {
  using namespace pandora;
  BenchHeader("MEDUSA", "exploded Pandora: devices on the fabric vs full boxes",
              "same principles, fewer boards in the path; streams fully independent");

  std::printf("\n  one audio stream for 30s (mic -> far mixer latency):\n");
  std::printf("  %-26s %-12s %-12s %-12s %-14s\n", "architecture", "mean (ms)", "min (ms)",
              "blocks", "clawback max");
  Outcome pandora_quiet = RunPandora(0);
  std::printf("  %-26s %-12.2f %-12.2f %-12.0f %-14.1f\n", "Pandora boxes (quiet)",
              pandora_quiet.latency_mean_ms, pandora_quiet.latency_min_ms,
              pandora_quiet.played_blocks, pandora_quiet.clawback_max_ms);
  Outcome medusa_quiet = RunMedusa(0);
  std::printf("  %-26s %-12.2f %-12.2f %-12.0f %-14.1f\n", "Medusa devices (quiet)",
              medusa_quiet.latency_mean_ms, medusa_quiet.latency_min_ms,
              medusa_quiet.played_blocks, medusa_quiet.clawback_max_ms);

  Outcome pandora_jitter = RunPandora(Millis(15));
  std::printf("  %-26s %-12.2f %-12.2f %-12.0f %-14.1f\n", "Pandora boxes (15ms jit)",
              pandora_jitter.latency_mean_ms, pandora_jitter.latency_min_ms,
              pandora_jitter.played_blocks, pandora_jitter.clawback_max_ms);
  Outcome medusa_jitter = RunMedusa(Millis(15));
  std::printf("  %-26s %-12.2f %-12.2f %-12.0f %-14.1f\n", "Medusa devices (15ms jit)",
              medusa_jitter.latency_mean_ms, medusa_jitter.latency_min_ms,
              medusa_jitter.played_blocks, medusa_jitter.clawback_max_ms);

  std::printf("\n");
  BenchRow("latency saved by exploding the box",
           pandora_quiet.latency_mean_ms - medusa_quiet.latency_mean_ms, "ms",
           "(no server boards / inter-board links in the path)");
  BenchRow("clawback growth under jitter, Pandora", pandora_jitter.clawback_max_ms, "ms", "");
  BenchRow("clawback growth under jitter, Medusa", medusa_jitter.clawback_max_ms, "ms",
           "(same mechanism, same adaptation — the principles carry over)");
  return 0;
}
