// Two-stage muting for hands-free echo suppression (section 4.3, fig 4.1).
//
// "The data stream to the loudspeaker is monitored for samples exceeding a
// threshold level.  When the level is exceeded, the data stream from the
// microphone is muted in two stages, and returned to full volume after a
// sufficient time for any room reverberations to die away."
//
// Default profile (fig 4.1): on the first loud speaker block the factor
// steps 100% -> 50% for one 2ms block, then 20%; it stays at 20% until the
// speaker has been quiet for 22ms (sound travels ~22 feet), then 50% for a
// further 22ms of quiet, then back to 100%.  The two-stage steps avoid
// audible clicks.  "The threshold, muting factors and delay times are all
// dynamically alterable."
//
// "The muting is performed by lookup tables that directly scale the 8-bit
// u-law samples" — MutingTable precomputes a 256-byte u-law -> u-law map
// per factor.
#ifndef PANDORA_SRC_AUDIO_MUTING_H_
#define PANDORA_SRC_AUDIO_MUTING_H_

#include <array>
#include <cstdint>

#include "src/runtime/time.h"
#include "src/segment/audio_block.h"

namespace pandora {

// A u-law -> u-law scaling table for one gain factor.
class MutingTable {
 public:
  explicit MutingTable(double factor);

  uint8_t Apply(uint8_t ulaw) const { return table_[ulaw]; }
  void ApplyToBlock(AudioBlock* block) const {
    for (uint8_t& sample : block->samples) {
      sample = table_[sample];
    }
  }
  double factor() const { return factor_; }

 private:
  double factor_;
  std::array<uint8_t, 256> table_{};
};

struct MutingConfig {
  bool enabled = true;
  // Linear magnitude above which a loudspeaker sample counts as loud.
  int16_t threshold = 2000;
  // Duration of the intermediate 50% step on the way down.
  Duration attack_step = Millis(2);
  // Quiet time at 20% before easing to 50% ("about 22 feet").
  Duration deep_hold = Millis(22);
  // Quiet time at 50% before returning to 100% (reverberation decay).
  Duration release_hold = Millis(22);
  double half_factor = 0.5;
  double deep_factor = 0.2;
};

// The muting state machine.  The mixer feeds it every loudspeaker block
// (ObserveSpeakerBlock); the microphone path scales its blocks through
// ApplyToMicBlock.  Detection happens before the speaker samples reach the
// codec input fifo and muting after the mic samples leave the codec output
// fifo, so the paper's >=4ms reaction margin holds by construction.
class MutingControl {
 public:
  explicit MutingControl(const MutingConfig& config = MutingConfig());

  // Examines one block headed for the loudspeaker at local time `now`.
  void ObserveSpeakerBlock(Time now, const AudioBlock& block);

  // Scales one microphone block by the current factor.
  void ApplyToMicBlock(Time now, AudioBlock* block);

  // Current gain factor at `now` (advances the state machine).
  double FactorAt(Time now);

  uint64_t activations() const { return activations_; }
  const MutingConfig& config() const { return config_; }

 private:
  enum class State { kFull, kAttack, kDeep, kRelease };

  void Advance(Time now);
  bool BlockIsLoud(const AudioBlock& block) const;

  MutingConfig config_;
  MutingTable full_table_;
  MutingTable half_table_;
  MutingTable deep_table_;

  State state_ = State::kFull;
  Time state_entered_ = 0;
  Time last_loud_ = -1;
  uint64_t activations_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_MUTING_H_
