// Separable audio-mix kernels over contiguous sample blocks (DESIGN.md §15).
//
// The mixer's original inner loop interleaved µ-law decode, widening add,
// clamp and µ-law encode per sample — a branchy scalar chain the compiler
// cannot vectorize.  These kernels split the tick into four passes over
// contiguous arrays:
//
//   1. ULawDecodeBlock   µ-law byte -> linear int16   (table gather, scalar)
//   2. AccumulateBlock   acc[i] += linear[i]          (vectorizes)
//   3. ClampBlock        saturate int32 -> int16      (vectorizes)
//   4. ULawEncodeBlock   linear int16 -> µ-law byte   (table gather, scalar)
//
// Vectorization contract: with GCC 12 at -O2 (which enables the very-cheap
// vectorizer), the compile-time trip count N lets passes 2 and 3 collapse
// to straight-line SLP-vectorized code; the table passes are gathers and
// stay scalar by design (x86-64 baseline has no byte/word gather).  CI
// compiles tests/vectorize_check.cc with -fopt-info-vec-optimized and fails
// if the vector report for the two arithmetic passes disappears.
//
// The companding tables are computed at compile time from the constexpr
// codec in src/audio/ulaw.h, so the mixer and every other µ-law user share
// one codec; audio_test.cc checks both tables against a reference G.711
// loop over the full input domain (256 decode, 65536 encode inputs).
#ifndef PANDORA_SRC_AUDIO_MIX_KERNELS_H_
#define PANDORA_SRC_AUDIO_MIX_KERNELS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/audio/ulaw.h"

namespace pandora {

namespace mix_internal {

constexpr std::array<int16_t, 256> BuildDecodeTable() {
  std::array<int16_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    table[static_cast<size_t>(i)] = ULawDecode(static_cast<uint8_t>(i));
  }
  return table;
}

constexpr std::array<uint8_t, 65536> BuildEncodeTable() {
  std::array<uint8_t, 65536> table{};
  for (int i = 0; i < 65536; ++i) {
    // Index by the sample's uint16 bit pattern so a cast is the only
    // arithmetic on the lookup path.
    table[static_cast<size_t>(i)] = ULawEncode(static_cast<int16_t>(static_cast<uint16_t>(i)));
  }
  return table;
}

}  // namespace mix_internal

// 256-entry µ-law -> linear table (512 bytes, always cache-resident).
inline constexpr std::array<int16_t, 256> kULawDecodeTable = mix_internal::BuildDecodeTable();

// 64 KiB linear -> µ-law table, indexed by the int16 bit pattern.  Replaces
// the per-sample exponent computation of ULawEncode with one load.
inline constexpr std::array<uint8_t, 65536> kULawEncodeTable = mix_internal::BuildEncodeTable();

// Pass 1: µ-law bytes -> linear samples (table gather).
template <int N>
inline void ULawDecodeBlock(const uint8_t* __restrict__ ulaw, int16_t* __restrict__ linear) {
  for (int i = 0; i < N; ++i) {
    linear[i] = kULawDecodeTable[ulaw[i]];
  }
}

// Pass 2: widening sum into the mix accumulator.  Vectorizes (SLP).
template <int N>
inline void AccumulateBlock(const int16_t* __restrict__ linear, int32_t* __restrict__ acc) {
  for (int i = 0; i < N; ++i) {
    acc[i] += linear[i];
  }
}

// Pass 3: clamp-saturate the accumulator back to the int16 range.
// Vectorizes (SLP: packs with saturation).
template <int N>
inline void ClampBlock(const int32_t* __restrict__ acc, int16_t* __restrict__ out) {
  for (int i = 0; i < N; ++i) {
    const int32_t v = acc[i];
    out[i] = static_cast<int16_t>(v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
  }
}

// Pass 4: linear samples -> µ-law bytes (table gather).
template <int N>
inline void ULawEncodeBlock(const int16_t* __restrict__ linear, uint8_t* __restrict__ out) {
  for (int i = 0; i < N; ++i) {
    out[i] = kULawEncodeTable[static_cast<uint16_t>(linear[i])];
  }
}

}  // namespace pandora

#endif  // PANDORA_SRC_AUDIO_MIX_KERNELS_H_
