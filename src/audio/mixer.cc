#include "src/audio/mixer.h"

#include <algorithm>
#include <cmath>

#include "src/audio/mix_kernels.h"
#include "src/runtime/check.h"

namespace pandora {

AudioMixer::AudioMixer(Scheduler* sched, AudioMixerOptions options, ClawbackBank* bank,
                       CpuModel* cpu, CodecOutput* out, MutingControl* muting)
    : sched_(sched),
      options_(std::move(options)),
      bank_(bank),
      cpu_(cpu),
      out_(out),
      muting_(muting) {}

const StatAccumulator* AudioMixer::LatencyFor(StreamId stream) const {
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), stream,
      [](const StreamSlot& slot, StreamId id) { return slot.stream < id; });
  if (it == slots_.end() || it->stream != stream || it->latency.count() == 0) {
    return nullptr;
  }
  return &it->latency;
}

AudioMixer::StreamSlot& AudioMixer::SlotFor(StreamId stream, size_t* hint) {
  size_t i = *hint;
  while (i < slots_.size() && slots_[i].stream < stream) {
    ++i;
  }
  if (i == slots_.size() || slots_[i].stream != stream) {
    StreamSlot slot;
    slot.stream = stream;
    slots_.insert(slots_.begin() + static_cast<ptrdiff_t>(i), slot);
  }
  *hint = i;
  return slots_[i];
}

void AudioMixer::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  // High priority: the output side must win CPU reservations so that back
  // pressure pushes loss toward the sources (section 3.7.1).
  sched_->Spawn(Run(), options_.name, Priority::kHigh);
}

Process AudioMixer::Run() {
  const double tick = ToSeconds(kAudioBlockDuration) * 1e6 / (1.0 + options_.clock_drift);
  double next = static_cast<double>(sched_->now()) + tick;
  for (;;) {
    Time scheduled = static_cast<Time>(std::llround(next));
    next += tick;
    if (sched_->now() < scheduled) {
      co_await sched_->WaitUntil(scheduled);
    }
    ++ticks_;
    // Schedule slip: how far the previous ticks' processing has pushed this
    // tick past its nominal time.  Work *within* the 2ms budget is not slip.
    Duration lateness = sched_->now() - scheduled;
    if (lateness > 0) {
      ++late_ticks_;
      max_lateness_ = std::max(max_lateness_, lateness);
    }

    bank_->ActiveStreamsInto(&active_);
    PANDORA_TRACE_COUNTER(sched_->trace(), trace_streams_site_, options_.name + ".streams",
                          static_cast<int64_t>(active_.size()));

    if (cpu_ != nullptr) {
      Duration cost =
          options_.costs.mixer_base +
          static_cast<Duration>(active_.size()) *
              (options_.costs.mix_per_stream +
               (options_.jitter_correction ? options_.costs.jitter_correction_per_stream : 0)) +
          (muting_ != nullptr ? options_.costs.muting : 0);
      co_await cpu_->Consume(cost);
    }

    // Separable mix passes over contiguous blocks (mix_kernels.h): per
    // stream, table-decode then a vectorized widening add; after the sum, a
    // vectorized clamp-saturate and a table encode.  Bit-identical to the
    // old fused per-sample loop (audio_test.cc proves the tables match the
    // reference codec over the full domain).
    alignas(16) int32_t accumulator[kAudioBlockSamples] = {};
    alignas(16) int16_t linear[kAudioBlockSamples];
    size_t hint = 0;
    for (StreamId stream : active_) {
      StreamSlot& slot = SlotFor(stream, &hint);
      auto block = bank_->Pop(stream);
      if (!block.has_value()) {
        // Buffer found empty: recover per policy.  (The bank has also
        // deactivated the stream; arriving data re-creates it.)
        if (options_.recovery == MixRecovery::kReplayLast && slot.has_last_block) {
          block = slot.last_block;
          ++replays_;
        } else {
          ++silences_;
          continue;
        }
      } else {
        Duration block_latency = sched_->now() - block->source_time;
        slot.latency.Add(static_cast<double>(block_latency));
        all_latency_.Add(static_cast<double>(block_latency));
        // End-to-end latency keyed by (stream, final hop): source timestamp
        // to mix time at this destination.
        PANDORA_TRACE_HISTOGRAM(sched_->trace(), slot.trace_hist,
                                options_.name + ".e2e.s" + std::to_string(stream), "us",
                                block_latency);
      }
      ULawDecodeBlock<kAudioBlockSamples>(block->samples.data(), linear);
      AccumulateBlock<kAudioBlockSamples>(linear, accumulator);
      slot.last_block = *block;
      slot.has_last_block = true;
      ++blocks_mixed_;
    }

    AudioBlock mixed;
    mixed.source_time = scheduled;
    alignas(16) int16_t clamped[kAudioBlockSamples];
    ClampBlock<kAudioBlockSamples>(accumulator, clamped);
    ULawEncodeBlock<kAudioBlockSamples>(clamped, mixed.samples.data());

    if (muting_ != nullptr) {
      // Echo suppression monitors the loudspeaker-bound mix before it
      // reaches the codec input fifo (section 4.3).
      muting_->ObserveSpeakerBlock(sched_->now(), mixed);
    }
    if (out_ != nullptr) {
      out_->SubmitBlock(mixed);
    }
  }
}

}  // namespace pandora
