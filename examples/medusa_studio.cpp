// Medusa studio: the paper's future-work architecture (section 5.2) — an
// exploded Pandora where the microphone, camera, speaker and display are
// independent devices "linked only by the LAN".
//
// Two microphones and two cameras feed a monitoring room's speaker and
// display across the ATM fabric.  The same Pandora principles run in every
// device: clawback jitter buffering at the speaker, whole-frame display
// with the interpolation line cache, per-VCI fan-out at the sources.
#include <cstdio>

#include "src/medusa/devices.h"

int main() {
  using namespace pandora;

  ShardSet set;
  Scheduler& sched = set.scheduler();
  AtmNetwork net(&set, 7);

  // A slightly unruly studio LAN.
  HopQuality lan;
  lan.jitter_max = Millis(6);
  NetHop* hop = net.AddHop("studio-lan", lan);

  NetMicrophone presenter(&sched, &net,
                          {.name = "mic.presenter", .stream = 1, .kind = MicKind::kSpeech});
  NetMicrophone guest(&sched, &net,
                      {.name = "mic.guest", .stream = 1, .kind = MicKind::kSine,
                       .frequency = 330.0, .amplitude = 5000.0});
  NetCamera wide(&sched, &net, {.name = "cam.wide", .stream = 1, .rect = {0, 0, 64, 24},
                                .segments_per_frame = 2});
  NetCamera close(&sched, &net, {.name = "cam.close", .stream = 1, .rect = {0, 24, 64, 24},
                                 .segments_per_frame = 2});
  NetSpeaker monitor_audio(&sched, &net, {.name = "monitor.speaker"});
  NetDisplay monitor_video(&sched, &net, {.name = "monitor.display"});

  StreamId a1 = ConnectAudio(&net, &presenter, &monitor_audio, {hop});
  StreamId a2 = ConnectAudio(&net, &guest, &monitor_audio, {hop});
  StreamId v1 = ConnectVideo(&net, &wide, &monitor_video, {hop});
  StreamId v2 = ConnectVideo(&net, &close, &monitor_video, {hop});

  // Declared after the devices: frames die before the pools they touch.
  ShutdownGuard guard(&sched);

  presenter.Start();
  guest.Start();
  wide.Start();
  close.Start();
  monitor_audio.Start();
  monitor_video.Start();

  std::printf("medusa studio: 2 mics + 2 cameras -> monitor speaker + display\n");
  sched.RunFor(Seconds(10));

  std::printf("\nmonitor speaker:\n");
  std::printf("  blocks played       : %llu (underruns %llu)\n",
              static_cast<unsigned long long>(monitor_audio.codec_out().played_blocks()),
              static_cast<unsigned long long>(monitor_audio.codec_out().underruns()));
  for (StreamId s : {a1, a2}) {
    const SequenceTracker* t = monitor_audio.receiver().TrackerFor(s);
    const StatAccumulator* l = monitor_audio.mixer().LatencyFor(s);
    std::printf("  stream %u            : %llu segments, %llu missing, %.2f ms latency\n", s,
                static_cast<unsigned long long>(t ? t->received() : 0),
                static_cast<unsigned long long>(t ? t->missing_total() : 0),
                l ? l->Mean() / 1000.0 : 0.0);
  }
  auto cb = monitor_audio.bank().TotalStats();
  std::printf("  clawback            : max depth %zu blocks (%zu ms of jitter absorbed)\n",
              cb.max_depth, cb.max_depth * 2);

  std::printf("\nmonitor display:\n");
  std::printf("  frames displayed    : %llu (tears %llu)\n",
              static_cast<unsigned long long>(monitor_video.display().frames_displayed()),
              static_cast<unsigned long long>(monitor_video.display().tears()));
  std::printf("  wide / close fps    : %.1f / %.1f\n",
              monitor_video.display().MeasuredFps(v1, Seconds(10)),
              monitor_video.display().MeasuredFps(v2, Seconds(10)));
  std::printf("  line-cache reloads  : %llu (interleaved streams)\n",
              static_cast<unsigned long long>(monitor_video.display().cache_reloads()));
  return 0;
}
