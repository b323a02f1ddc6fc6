#include "src/audio/codec.h"

#include <cmath>

#include "src/audio/ulaw.h"
#include "src/runtime/check.h"

namespace pandora {
namespace {

Time RoundTime(double t) { return static_cast<Time>(std::llround(t)); }

}  // namespace

CodecInput::CodecInput(Scheduler* sched, CodecInputConfig config, SampleSource* source,
                       Channel<AudioBlock>* out)
    : sched_(sched), config_(std::move(config)), source_(source), out_(out) {}

void CodecInput::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), config_.name, Priority::kHigh);
}

Process CodecInput::Run() {
  // Local codec time advances at (1 + drift) of simulated world time; the
  // double accumulator keeps sub-microsecond drift from rounding away.
  const double tick = ToSeconds(kAudioBlockDuration) * 1e6 / (1.0 + config_.clock_drift);
  double window_start = static_cast<double>(sched_->now());
  for (;;) {
    // The block becomes available when its last sample has been written to
    // the fifo: the end of the 2ms window.
    double window_end = window_start + tick;
    co_await sched_->WaitUntil(RoundTime(window_end));

    AudioBlock block;
    block.source_time = RoundTime(window_start);
    const double sample_tick = tick / kAudioBlockSamples;
    for (int i = 0; i < kAudioBlockSamples; ++i) {
      Time sample_time = RoundTime(window_start + i * sample_tick);
      block.samples[static_cast<size_t>(i)] = ULawEncode(source_->SampleAt(sample_time));
    }
    co_await out_->Send(block);
    window_start = window_end;
  }
}

CodecOutput::CodecOutput(Scheduler* sched, CodecOutputConfig config)
    : sched_(sched), config_(std::move(config)) {}

void CodecOutput::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), config_.name, Priority::kHigh);
}

void CodecOutput::SubmitBlock(const AudioBlock& block) {
  if (fifo_.size() >= config_.max_fifo_blocks) {
    fifo_.pop_front();
    ++overflow_drops_;
  }
  fifo_.push_back(block);
}

Process CodecOutput::Run() {
  const double tick = ToSeconds(kAudioBlockDuration) * 1e6 / (1.0 + config_.clock_drift);
  double next = static_cast<double>(sched_->now()) + tick;
  for (;;) {
    co_await sched_->WaitUntil(RoundTime(next));
    next += tick;

    if (!primed_) {
      if (fifo_.size() < static_cast<size_t>(config_.prime_blocks)) {
        continue;  // still filling the pre-loudspeaker buffer
      }
      primed_ = true;
    }

    Time play_time = sched_->now();
    if (fifo_.empty()) {
      ++underruns_;
      if (config_.record_samples) {
        for (int i = 0; i < kAudioBlockSamples; ++i) {
          recorded_.push_back(
              {play_time + i * kAudioSamplePeriod, kULawSilence});
        }
      }
      continue;
    }
    AudioBlock block = fifo_.front();
    fifo_.pop_front();
    ++played_blocks_;
    latency_.Add(static_cast<double>(play_time - block.source_time));
    if (config_.record_samples) {
      for (int i = 0; i < kAudioBlockSamples; ++i) {
        recorded_.push_back(
            {play_time + i * kAudioSamplePeriod, block.samples[static_cast<size_t>(i)]});
      }
    }
  }
}

}  // namespace pandora
