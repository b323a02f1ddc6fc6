// Layer replay harness: times src/'s public pure functions on inputs shaped
// like a workload's (2-block live audio segments, 64-pixel DPCM video strips
// of 24 lines, a clawback bank holding the workload's per-mixer stream
// count) and counts their heap allocations.  The traced run scales these
// per-op costs by the ops the world counted to estimate each layer's share
// of the measured wall time.
#ifndef WORLDBENCH_REPLAY_H_
#define WORLDBENCH_REPLAY_H_

#include "report.h"

namespace worldbench {

struct ReplayCosts {
  // segment
  double encode_audio_ns = 0.0;
  double encode_video_ns = 0.0;
  double decode_audio_ns = 0.0;
  double decode_video_ns = 0.0;
  double allocs_per_decode_audio = 0.0;
  double allocs_per_decode_video = 0.0;
  double peek_ns = 0.0;
  double split_blocks_ns = 0.0;
  // buffer
  double clawback_push_ns = 0.0;
  double clawback_pop_ns = 0.0;
  double active_streams_ns = 0.0;
  double active_streams_allocs = 0.0;
  // audio: one stream's decode + accumulate, and one tick's clamp + encode
  double mix_ns_per_stream = 0.0;
  double mix_tick_ns = 0.0;
  // video
  double compress_line_ns = 0.0;
  double decompress_line_ns = 0.0;
  double allocs_per_line = 0.0;
};

// Runs every replay loop once (each inside its own span when `spans` is
// non-null).  `mixer_streams` sizes the clawback bank.  Takes ~1 s.
ReplayCosts RunReplay(int mixer_streams, SpanRecorder* spans);

}  // namespace worldbench

#endif  // WORLDBENCH_REPLAY_H_
