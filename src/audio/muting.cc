#include "src/audio/muting.h"

#include <cmath>

#include "src/audio/ulaw.h"

namespace pandora {

MutingTable::MutingTable(double factor) : factor_(factor) {
  for (int u = 0; u < 256; ++u) {
    double scaled = factor * static_cast<double>(ULawDecode(static_cast<uint8_t>(u)));
    if (scaled > 32767.0) {
      scaled = 32767.0;
    }
    if (scaled < -32768.0) {
      scaled = -32768.0;
    }
    table_[static_cast<size_t>(u)] = ULawEncode(static_cast<int16_t>(std::lround(scaled)));
  }
}

MutingControl::MutingControl(const MutingConfig& config)
    : config_(config),
      full_table_(1.0),
      half_table_(config.half_factor),
      deep_table_(config.deep_factor) {}

bool MutingControl::BlockIsLoud(const AudioBlock& block) const {
  for (uint8_t sample : block.samples) {
    int16_t linear = ULawDecode(sample);
    if (linear > config_.threshold || linear < -config_.threshold) {
      return true;
    }
  }
  return false;
}

void MutingControl::Advance(Time now) {
  // Apply every timed transition that has fallen due; a long quiet gap can
  // walk kAttack -> kDeep -> kRelease -> kFull in one call.
  for (;;) {
    switch (state_) {
      case State::kFull:
        return;
      case State::kAttack: {
        Time due = state_entered_ + config_.attack_step;
        if (now < due) {
          return;
        }
        state_ = State::kDeep;
        state_entered_ = due;
        continue;
      }
      case State::kDeep: {
        if (last_loud_ < 0) {
          return;
        }
        Time due = last_loud_ + config_.deep_hold;
        if (now < due) {
          return;
        }
        state_ = State::kRelease;
        state_entered_ = due;
        continue;
      }
      case State::kRelease: {
        Time due = state_entered_ + config_.release_hold;
        if (now < due) {
          return;
        }
        state_ = State::kFull;
        state_entered_ = due;
        continue;
      }
    }
  }
}

void MutingControl::ObserveSpeakerBlock(Time now, const AudioBlock& block) {
  if (!config_.enabled) {
    return;
  }
  Advance(now);
  if (!BlockIsLoud(block)) {
    return;
  }
  last_loud_ = now;
  switch (state_) {
    case State::kFull:
      state_ = State::kAttack;
      state_entered_ = now;
      ++activations_;
      break;
    case State::kAttack:
    case State::kDeep:
      break;  // stay; last_loud_ refreshed above
    case State::kRelease:
      // Reverberation came back: drop to the deep factor again.
      state_ = State::kDeep;
      break;
  }
}

double MutingControl::FactorAt(Time now) {
  if (!config_.enabled) {
    return 1.0;
  }
  Advance(now);
  switch (state_) {
    case State::kFull:
      return 1.0;
    case State::kAttack:
    case State::kRelease:
      return config_.half_factor;
    case State::kDeep:
      return config_.deep_factor;
  }
  return 1.0;
}

void MutingControl::ApplyToMicBlock(Time now, AudioBlock* block) {
  if (!config_.enabled) {
    return;
  }
  Advance(now);
  switch (state_) {
    case State::kFull:
      return;  // identity; skip the table walk
    case State::kAttack:
    case State::kRelease:
      half_table_.ApplyToBlock(block);
      return;
    case State::kDeep:
      deep_table_.ApplyToBlock(block);
      return;
  }
}

}  // namespace pandora
