// AudioReceiver: the incoming half of the audio board (fig 3.5 bottom).
//
// Receives audio segments from the server link, detects missing segments by
// sequence number (section 3.8), splits them into 2ms blocks and feeds the
// destination-side clawback buffers.  Stream lifecycle is implicit: the
// clawback bank creates buffers for new stream numbers and retires them
// when drained, so the receiver needs no per-stream configuration.
#ifndef PANDORA_SRC_AUDIO_RECEIVER_H_
#define PANDORA_SRC_AUDIO_RECEIVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/audio/costs.h"
#include "src/buffer/clawback.h"
#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/segment/sequence.h"

namespace pandora {

struct AudioReceiverOptions {
  std::string name = "audio.receiver";
  AudioCpuCosts costs;
};

class AudioReceiver {
 public:
  AudioReceiver(Scheduler* sched, AudioReceiverOptions options, Channel<SegmentRef>* segments_in,
                ClawbackBank* bank, CpuModel* cpu = nullptr, ReportSink* report_sink = nullptr);

  void Start(Priority priority = Priority::kHigh);

  uint64_t segments_received() const { return segments_received_; }
  uint64_t blocks_rejected() const { return blocks_rejected_; }

  // Loss visible at this destination, per stream.
  const SequenceTracker* TrackerFor(StreamId stream) const {
    auto it = trackers_.find(stream);
    return it == trackers_.end() ? nullptr : &it->second;
  }
  uint64_t total_missing() const;

 private:
  Process Run();

  Scheduler* sched_;
  AudioReceiverOptions options_;
  Channel<SegmentRef>* segments_in_;
  ClawbackBank* bank_;
  CpuModel* cpu_;
  Reporter reporter_;

  std::map<StreamId, SequenceTracker> trackers_;
  uint64_t segments_received_ = 0;
  uint64_t blocks_rejected_ = 0;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_RECEIVER_H_
