// AudioMixer: software real-time mixing of incoming audio streams.
//
// "Their accompanying audio streams are mixed by software in real-time on
// the destination transputer.  No limit is placed on the number of incoming
// streams that can be mixed, save that imposed by system bandwidths and CPU
// resources." (section 2.0).
//
// Every 2ms the mixer reads one block from each stream's clawback buffer
// (fig 3.8), sums them in linear space and re-encodes.  An empty buffer
// means the stream is skipped ("equivalent to inserting 2ms of zero
// amplitude samples") — or, with the replay policy of section 3.8, the last
// block for that stream is repeated ("Replaying the last 2ms block
// occasionally is perfectly acceptable for speech").
//
// CPU costs are charged against the audio board's CpuModel; overload makes
// the mixing tick late, starving the playout fifo — the paper's capacity
// limits (5 plain streams, 3 full-featured) emerge from this, measured by
// bench E4.
#ifndef PANDORA_SRC_AUDIO_MIXER_H_
#define PANDORA_SRC_AUDIO_MIXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/audio/codec.h"
#include "src/audio/costs.h"
#include "src/audio/muting.h"
#include "src/buffer/clawback.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/stats.h"

namespace pandora {

// What to do when a stream's clawback buffer is empty at mixing time.
enum class MixRecovery {
  kSilence,     // skip the stream (insert zero amplitude)
  kReplayLast,  // repeat the stream's previous block (section 3.8 default)
};

struct AudioMixerOptions {
  std::string name = "audio.mixer";
  double clock_drift = 0.0;
  bool jitter_correction = true;  // charge clawback CPU per stream
  MixRecovery recovery = MixRecovery::kReplayLast;
  AudioCpuCosts costs;
};

class AudioMixer {
 public:
  AudioMixer(Scheduler* sched, AudioMixerOptions options, ClawbackBank* bank,
             CpuModel* cpu = nullptr, CodecOutput* out = nullptr,
             MutingControl* muting = nullptr);

  void Start();

  // Fault hook: steps the mixing-side quartz (next tick onward).
  void SetClockDrift(double drift) { options_.clock_drift = drift; }

  uint64_t ticks() const { return ticks_; }
  uint64_t late_ticks() const { return late_ticks_; }
  Duration max_lateness() const { return max_lateness_; }
  uint64_t replays() const { return replays_; }
  uint64_t silences() const { return silences_; }
  uint64_t blocks_mixed() const { return blocks_mixed_; }

  // Per-block end-to-end latency observed at the mixer, per stream
  // (mixing time minus the block's source timestamp); null until the
  // stream's first block is mixed.
  const StatAccumulator* LatencyFor(StreamId stream) const;
  const StatAccumulator& all_latency() const { return all_latency_; }

 private:
  // Everything the mixer keeps per stream it has ever read.
  struct StreamSlot {
    StreamId stream = kInvalidStream;
    bool has_last_block = false;
    AudioBlock last_block;  // for replay recovery
    StatAccumulator latency;
    TraceSiteId trace_hist = 0;  // end-to-end latency histogram
  };

  Process Run();
  // The slot for `stream`, created on first use.  slots_ is sorted by
  // stream, and the mixer visits streams in ascending order, so `hint` (the
  // previous slot's index) makes the search a short forward scan.
  StreamSlot& SlotFor(StreamId stream, size_t* hint);

  Scheduler* sched_;
  AudioMixerOptions options_;
  ClawbackBank* bank_;
  CpuModel* cpu_;
  CodecOutput* out_;
  MutingControl* muting_;

  std::vector<StreamSlot> slots_;
  std::vector<StreamId> active_;  // this tick's streams, capacity reused
  StatAccumulator all_latency_;
  uint64_t ticks_ = 0;
  uint64_t late_ticks_ = 0;
  Duration max_lateness_ = 0;
  uint64_t replays_ = 0;
  uint64_t silences_ = 0;
  uint64_t blocks_mixed_ = 0;
  bool started_ = false;

  // Telemetry: an active-stream counter per tick (the per-stream latency
  // histograms live in the slots).
  TraceSiteId trace_streams_site_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_MIXER_H_
