// Simulated 8kHz u-law codec: capture and playout sides (section 3.5).
//
// Capture: "The 125us samples from the codec are written continuously into
// a byte-wide fifo.  Every 2ms, the Transputer event pin is signalled, and
// the code notes that another 16 bytes (a block) are in the fifo."
// CodecInput reproduces this: every 2ms of local codec time it emits one
// AudioBlock timestamped with the time of its first sample.
//
// Playout: CodecOutput holds a short fifo ahead of the loudspeaker; it
// primes to `prime_blocks` before starting (the paper attributes 4ms of the
// 8ms best-case one-way trip to "the buffering to the codec") and then
// consumes one block every 2ms, playing silence on underrun.
//
// Both sides run on their own quartz clock: `clock_drift` scales the local
// tick (the paper quotes 1-in-1e5 oscillators, the drift the clawback rate
// must dominate).
#ifndef PANDORA_SRC_AUDIO_CODEC_H_
#define PANDORA_SRC_AUDIO_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/audio/signal.h"
#include "src/buffer/ring_queue.h"
#include "src/runtime/channel.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/stats.h"
#include "src/segment/audio_block.h"

namespace pandora {

struct CodecInputConfig {
  std::string name = "codec.in";
  double clock_drift = 0.0;  // fractional: +1e-5 = fast source clock
};

class CodecInput {
 public:
  // Captured blocks are sent (rendezvous) into `out`; back pressure from a
  // wedged downstream stalls capture, exactly as a full hardware fifo would.
  CodecInput(Scheduler* sched, CodecInputConfig config, SampleSource* source,
             Channel<AudioBlock>* out);

  void Start();

  // Fault hook: steps the local quartz (the tick length is recomputed every
  // block, so the new drift takes effect from the next capture).
  void SetClockDrift(double drift) { config_.clock_drift = drift; }
  double clock_drift() const { return config_.clock_drift; }

 private:
  Process Run();

  Scheduler* sched_;
  CodecInputConfig config_;
  SampleSource* source_;
  Channel<AudioBlock>* out_;
  bool started_ = false;
};

struct CodecOutputConfig {
  std::string name = "codec.out";
  double clock_drift = 0.0;
  // Blocks buffered ahead of the loudspeaker before playout starts (4ms).
  int prime_blocks = 2;
  // Fifo bound; overflow drops the oldest block (keeps latency bounded).
  size_t max_fifo_blocks = 64;
  // Record every played sample (memory-heavy; for SNR tests/benches).
  bool record_samples = false;
};

class CodecOutput {
 public:
  CodecOutput(Scheduler* sched, CodecOutputConfig config);

  void Start();

  // Non-blocking submission from the mixer.
  void SubmitBlock(const AudioBlock& block);

  // Fault hook: steps the playout quartz (next tick onward).
  void SetClockDrift(double drift) { config_.clock_drift = drift; }

  uint64_t played_blocks() const { return played_blocks_; }
  uint64_t underruns() const { return underruns_; }
  uint64_t overflow_drops() const { return overflow_drops_; }
  size_t fifo_depth() const { return fifo_.size(); }

  // Per-block playout latency (play time minus source time), microseconds.
  const StatAccumulator& latency() const { return latency_; }

  const std::vector<PlayedSample>& recorded() const { return recorded_; }

 private:
  Process Run();

  Scheduler* sched_;
  CodecOutputConfig config_;
  RingQueue<AudioBlock> fifo_;
  bool primed_ = false;
  bool started_ = false;
  uint64_t played_blocks_ = 0;
  uint64_t underruns_ = 0;
  uint64_t overflow_drops_ = 0;
  StatAccumulator latency_;
  std::vector<PlayedSample> recorded_;
};

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_CODEC_H_
