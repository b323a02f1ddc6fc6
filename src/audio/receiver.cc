#include "src/audio/receiver.h"

#include "src/runtime/check.h"
#include "src/segment/audio_block.h"

namespace pandora {

AudioReceiver::AudioReceiver(Scheduler* sched, AudioReceiverOptions options,
                             Channel<SegmentRef>* segments_in, ClawbackBank* bank, CpuModel* cpu,
                             ReportSink* report_sink)
    : sched_(sched),
      options_(std::move(options)),
      segments_in_(segments_in),
      bank_(bank),
      cpu_(cpu),
      reporter_(sched, report_sink, options_.name) {}

void AudioReceiver::Start(Priority priority) {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), options_.name, priority);
}

uint64_t AudioReceiver::total_missing() const {
  uint64_t total = 0;
  for (const auto& [stream, tracker] : trackers_) {
    total += tracker.missing_total();
  }
  return total;
}

Process AudioReceiver::Run() {
  for (;;) {
    SegmentRef ref = co_await segments_in_->Receive();
    if (cpu_ != nullptr) {
      co_await cpu_->Consume(options_.costs.segment_handling);
    }
    ++segments_received_;

    const Segment& segment = *ref;
    auto observation = trackers_[segment.stream].Observe(segment.header.sequence);
    if (observation.outcome == SequenceTracker::Outcome::kGap) {
      // "the destination can detect that segments are missing as soon as a
      // later one arrives" — the mixer's recovery (silence or replay) fills
      // the hole; here we just account and report.
      reporter_.Report("receiver.gap", ReportSeverity::kWarning,
                       "missing segments on stream " + std::to_string(segment.stream),
                       static_cast<int64_t>(observation.missing));
    } else if (observation.outcome == SequenceTracker::Outcome::kDuplicate ||
               observation.outcome == SequenceTracker::Outcome::kStale) {
      continue;  // already played or unplayably late: discard
    } else if (observation.outcome == SequenceTracker::Outcome::kSuspect) {
      // Implausible sequence jump — most likely a bit flip in the header
      // (the wire format carries no checksum).  The tracker kept its
      // expectation, so the stream survives; drop the damaged segment.
      reporter_.Report("receiver.suspect", ReportSeverity::kWarning,
                       "implausible sequence jump on stream " + std::to_string(segment.stream),
                       static_cast<int64_t>(segment.header.sequence));
      continue;
    }

    const size_t whole = segment.payload.size() / kAudioBlockBytes;
    for (size_t b = 0; b < whole; ++b) {
      ClawbackPushResult result = bank_->Push(segment.stream, AudioBlockAt(segment, b));
      if (result == ClawbackPushResult::kStored) {
      } else {
        ++blocks_rejected_;
      }
    }
  }
}

}  // namespace pandora
