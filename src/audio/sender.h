// AudioSender: the block-handler / server-writer pair of the audio board's
// outgoing path (section 3.5, fig 3.5).
//
// "When sufficient 2ms blocks have accumulated to justify the overhead of a
// Pandora segment header, the server writer process is ordered by the block
// handler to transmit them to the server board."  The block count per
// segment defaults to 2 (4ms, principle 7) and is dynamically alterable
// from 1 to 12 via command — used when a recipient cannot keep up or when
// particularly low latency is wanted.
//
// Microphone muting (section 4.3) is applied here, "as they are copied from
// the codec fifo to the server link".
#ifndef PANDORA_SRC_AUDIO_SENDER_H_
#define PANDORA_SRC_AUDIO_SENDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/audio/costs.h"
#include "src/audio/muting.h"
#include "src/buffer/pool.h"
#include "src/control/command.h"
#include "src/control/report.h"
#include "src/runtime/alt.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/segment/audio_block.h"

namespace pandora {

struct AudioSenderOptions {
  std::string name = "audio.sender";
  StreamId stream = kInvalidStream;
  int blocks_per_segment = kDefaultBlocksPerSegment;
  bool start_immediately = true;  // else wait for kStartStream
  AudioCpuCosts costs;
};

class AudioSender {
 public:
  AudioSender(Scheduler* sched, AudioSenderOptions options, Channel<AudioBlock>* blocks_in,
              BufferPool* pool, Channel<SegmentRef>* segments_out, CpuModel* cpu = nullptr,
              MutingControl* muting = nullptr, ReportSink* report_sink = nullptr);

  void Start(Priority priority = Priority::kLow);

  CommandChannel& commands() { return command_; }

  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t blocks_consumed() const { return blocks_consumed_; }
  int blocks_per_segment() const { return blocks_per_segment_; }

 private:
  // Gathers codec blocks and emits each full segment inline: a segment
  // costs no coroutine frame.
  Process Run();
  void HandleCommand(const Command& command);

  Scheduler* sched_;
  AudioSenderOptions options_;
  Channel<AudioBlock>* blocks_in_;
  BufferPool* pool_;
  Channel<SegmentRef>* segments_out_;
  CpuModel* cpu_;
  MutingControl* muting_;
  Reporter reporter_;
  CommandChannel command_;

  bool producing_;
  int blocks_per_segment_;
  std::vector<uint8_t> pending_;
  Time pending_start_ = 0;
  uint32_t sequence_ = 0;
  uint64_t segments_sent_ = 0;
  uint64_t blocks_consumed_ = 0;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_SENDER_H_
