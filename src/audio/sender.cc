#include "src/audio/sender.h"

#include <algorithm>

#include "src/runtime/check.h"

namespace pandora {

AudioSender::AudioSender(Scheduler* sched, AudioSenderOptions options,
                         Channel<AudioBlock>* blocks_in, BufferPool* pool,
                         Channel<SegmentRef>* segments_out, CpuModel* cpu, MutingControl* muting,
                         ReportSink* report_sink)
    : sched_(sched),
      options_(std::move(options)),
      blocks_in_(blocks_in),
      pool_(pool),
      segments_out_(segments_out),
      cpu_(cpu),
      muting_(muting),
      reporter_(sched, report_sink, options_.name),
      command_(sched, options_.name + ".cmd"),
      producing_(options_.start_immediately),
      blocks_per_segment_(options_.blocks_per_segment) {}

void AudioSender::Start(Priority priority) {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), options_.name, priority);
}

void AudioSender::HandleCommand(const Command& command) {
  switch (command.verb) {
    case CommandVerb::kStartStream:
      producing_ = true;
      break;
    case CommandVerb::kStop:
      producing_ = false;
      pending_.clear();
      break;
    case CommandVerb::kSetBlocksPerSegment:
      // "The number of blocks in each outgoing segment can be varied...
      // we can alter this dynamically if the recipient cannot handle the
      // arrival rate (perhaps using 12 blocks = 24ms) or if we want a
      // particularly low latency (1 block = 2ms)."
      blocks_per_segment_ = static_cast<int>(
          std::clamp<int64_t>(command.arg0, kMinBlocksPerSegment, kMaxBlocksPerSegment));
      break;
    case CommandVerb::kReportStatus:
      reporter_.ReportNow("sender.status", ReportSeverity::kInfo,
                          "segments=" + std::to_string(segments_sent_) +
                              " blocks_per_segment=" + std::to_string(blocks_per_segment_),
                          static_cast<int64_t>(segments_sent_));
      break;
    default:
      break;
  }
}

Process AudioSender::Run() {
  for (;;) {
    Alt alt(sched_);
    alt.OnReceive(command_);     // principle 4
    alt.OnReceive(*blocks_in_);  // codec blocks
    int chosen = co_await alt.Select();
    if (chosen == 0) {
      Command command = co_await command_.Receive();
      HandleCommand(command);
      continue;
    }
    AudioBlock block = co_await blocks_in_->Receive();
    if (!producing_) {
      continue;  // stream not started: codec data is discarded at source
    }
    if (muting_ != nullptr) {
      muting_->ApplyToMicBlock(sched_->now(), &block);
    }
    if (pending_.empty()) {
      pending_start_ = block.source_time;
    }
    pending_.insert(pending_.end(), block.samples.begin(), block.samples.end());
    ++blocks_consumed_;
    if (pending_.size() <
        static_cast<size_t>(blocks_per_segment_) * static_cast<size_t>(kAudioBlockBytes)) {
      continue;
    }
    // Enough blocks to justify a segment header: emit one.
    if (cpu_ != nullptr) {
      co_await cpu_->Consume(options_.costs.segment_handling + options_.costs.outgoing_stream);
    }
    // Obtaining the buffer can park us when the pool is starved — the
    // paper's deliberate back-pressure path.
    SegmentRef ref = co_await pool_->Allocate();
    FillAudioSegment(ref.get(), options_.stream, sequence_++, pending_start_, pending_.data(),
                     pending_.size());
    pending_.clear();
    ++segments_sent_;
    co_await segments_out_->Send(std::move(ref));
  }
}

}  // namespace pandora
