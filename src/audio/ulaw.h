// G.711 mu-law companding — the "standard 8-bit u-law codec" of section 3.2.
//
// Pandora moves audio as 8-bit u-law bytes end to end; linear conversion
// happens only where arithmetic is needed (mixing, muting tables, quality
// metrics).  Both directions are constexpr: the mixer's companding tables
// (mix_kernels.h) are built from these same functions at compile time, so
// there is one codec.
#ifndef PANDORA_SRC_AUDIO_ULAW_H_
#define PANDORA_SRC_AUDIO_ULAW_H_

#include <bit>
#include <cstdint>

namespace pandora {

namespace ulaw_internal {

inline constexpr int kBias = 0x84;  // 132
inline constexpr int kClip = 32635;

}  // namespace ulaw_internal

// Encodes a 16-bit linear PCM sample to 8-bit mu-law.
constexpr uint8_t ULawEncode(int16_t linear) {
  int sample = linear;
  const int sign = (sample >> 8) & 0x80;
  if (sign != 0) {
    sample = -sample;
  }
  if (sample > ulaw_internal::kClip) {
    sample = ulaw_internal::kClip;
  }
  sample += ulaw_internal::kBias;
  // The biased magnitude lies in [0x84, 0x7FFF], so its highest set bit is
  // bit 7 to bit 14: that position minus 7 is the exponent (segment).
  const int exponent = std::bit_width(static_cast<unsigned>(sample)) - 8;
  const int mantissa = (sample >> (exponent + 3)) & 0x0F;
  return static_cast<uint8_t>(~(sign | (exponent << 4) | mantissa));
}

// Decodes an 8-bit mu-law byte to 16-bit linear PCM.
constexpr int16_t ULawDecode(uint8_t ulaw) {
  const int value = ~ulaw & 0xFF;
  const int sign = value & 0x80;
  const int exponent = (value >> 4) & 0x07;
  const int mantissa = value & 0x0F;
  int sample = ((mantissa << 3) + ulaw_internal::kBias) << exponent;
  sample -= ulaw_internal::kBias;
  return static_cast<int16_t>(sign != 0 ? -sample : sample);
}

// The mu-law byte for digital silence (linear 0).
inline constexpr uint8_t kULawSilence = 0xFF;

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_ULAW_H_
