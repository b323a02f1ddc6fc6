#include "src/video/dpcm.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "src/runtime/check.h"

namespace pandora {

size_t CompressedLineSize(LineCoding coding, int width) {
  switch (coding) {
    case LineCoding::kRawLine:
    case LineCoding::kDpcmLine:
    case LineCoding::kVerticalDelta:
      return 1 + static_cast<size_t>(width);
    case LineCoding::kSubsampledDpcmLine:
      return 1 + static_cast<size_t>((width + 1) / 2);
  }
  return 0;
}

namespace {

// Row kernels work in blocks of 16 pixels: the vectorizer turns a
// fixed-count inner loop over __restrict__ rows into one SIMD operation, and
// a ragged end re-runs the last full block shifted left to end on the row's
// last pixel instead of falling back to a scalar tail.  Only rows shorter
// than a block run the scalar loop.
constexpr int kRowBlock = 16;

// out[i] = op(a[i], b[i]) (mod 256) for i in [0, n).  Pointwise, so the
// overlapping last block rewrites the bytes it shares with its neighbour
// unchanged.
template <typename Op>
void CombineRows(const uint8_t* __restrict__ a, const uint8_t* __restrict__ b, int n,
                 uint8_t* __restrict__ out, Op op) {
  if (n < kRowBlock) {
    for (int i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(op(a[i], b[i]));
    }
    return;
  }
  for (int i = 0;; i += kRowBlock) {
    if (i > n - kRowBlock) {
      i = n - kRowBlock;
    }
    for (int k = 0; k < kRowBlock; ++k) {
      out[i + k] = static_cast<uint8_t>(op(a[i + k], b[i + k]));
    }
    if (i == n - kRowBlock) {
      return;
    }
  }
}

// One block of pixels as a generic vector: GCC and Clang lower its adds and
// lane shuffles to the target's SIMD instructions (or to scalar code where
// there is none), so every target runs the same body.
using ByteLanes = uint8_t __attribute__((vector_size(kRowBlock)));
using LaneIndex = std::make_integer_sequence<int, kRowBlock>;

// Lane i of the result is lane i - Shift of `v` (zero below Shift).
template <int Shift, int... I>
ByteLanes ShiftLanesUp(ByteLanes v, std::integer_sequence<int, I...>) {
  return __builtin_shufflevector(ByteLanes{}, v, (kRowBlock + I - Shift)...);
}

// Every lane of the result is the last lane of `v`.
template <int... I>
ByteLanes BroadcastLastLane(ByteLanes v, std::integer_sequence<int, I...>) {
  return __builtin_shufflevector(v, v, (I * 0 + kRowBlock - 1)...);
}

// out[i] = in[0] + ... + in[i] (mod 256) for i in [0, n): the DPCM
// predictor chain as a blocked prefix sum.  Each block is scanned in four
// shift-and-add steps (lane i gains lane i-1, then i-2, i-4, i-8) and offset
// by the running sum of everything before it; the overlapping last block
// takes that sum from out[i - 1], which is already final.
void PrefixSumRow(const uint8_t* __restrict__ in, int n, uint8_t* __restrict__ out) {
  if (n < kRowBlock) {
    uint8_t value = 0;
    for (int i = 0; i < n; ++i) {
      value = static_cast<uint8_t>(value + in[i]);
      out[i] = value;
    }
    return;
  }
  ByteLanes carry = {};
  for (int i = 0;; i += kRowBlock) {
    if (i > n - kRowBlock) {
      i = n - kRowBlock;
      std::memset(&carry, out[i - 1], sizeof carry);
    }
    ByteLanes v;
    std::memcpy(&v, in + i, sizeof v);
    v += ShiftLanesUp<1>(v, LaneIndex{});
    v += ShiftLanesUp<2>(v, LaneIndex{});
    v += ShiftLanesUp<4>(v, LaneIndex{});
    v += ShiftLanesUp<8>(v, LaneIndex{});
    v += carry;
    std::memcpy(out + i, &v, sizeof v);
    if (i == n - kRowBlock) {
      return;
    }
    carry = BroadcastLastLane(v, LaneIndex{});
  }
}

}  // namespace

size_t CompressLineInto(LineCoding coding, const uint8_t* pixels, int width,
                        const uint8_t* above, uint8_t* out) {
  const size_t size = CompressedLineSize(coding, width);
  PANDORA_CHECK(size > 0, "unknown line coding");
  out[0] = static_cast<uint8_t>(coding);
  uint8_t* residuals = out + 1;
  switch (coding) {
    case LineCoding::kRawLine:
      std::copy(pixels, pixels + std::max(width, 0), residuals);
      break;
    case LineCoding::kDpcmLine:
      // Each residual reads its own predictor pixel: no loop-carried state.
      if (width > 0) {
        residuals[0] = pixels[0];
        CombineRows(pixels + 1, pixels, width - 1, residuals + 1, std::minus<>());
      }
      break;
    case LineCoding::kSubsampledDpcmLine:
      if (width > 0) {
        residuals[0] = pixels[0];
      }
      for (int i = 2, j = 1; i < width; i += 2, ++j) {
        residuals[j] = static_cast<uint8_t>(pixels[i] - pixels[i - 2]);
      }
      break;
    case LineCoding::kVerticalDelta:
      PANDORA_CHECK(above != nullptr);
      CombineRows(pixels, above, width, residuals, std::minus<>());
      break;
  }
  return size;
}

std::vector<uint8_t> CompressLine(LineCoding coding, const uint8_t* pixels, int width,
                                  const uint8_t* above) {
  std::vector<uint8_t> out(CompressedLineSize(coding, width));
  CompressLineInto(coding, pixels, width, above, out.data());
  return out;
}

bool DecompressLineInto(const uint8_t* bytes, size_t size, int width, const uint8_t* above,
                        uint8_t* out) {
  if (size == 0) {
    return false;
  }
  LineCoding coding = static_cast<LineCoding>(bytes[0]);
  if (size != CompressedLineSize(coding, width)) {
    return false;
  }
  const uint8_t* residuals = bytes + 1;
  switch (coding) {
    case LineCoding::kRawLine:
      std::copy(residuals, residuals + std::max(width, 0), out);
      return true;
    case LineCoding::kDpcmLine:
      PrefixSumRow(residuals, width, out);
      return true;
    case LineCoding::kSubsampledDpcmLine: {
      // Recover the even pixels, then interpolate odd ones horizontally.
      uint8_t value = 0;
      for (int i = 0, j = 0; i < width; i += 2, ++j) {
        value = static_cast<uint8_t>(value + residuals[j]);
        out[i] = value;
      }
      for (int i = 1; i < width; i += 2) {
        int left = out[i - 1];
        int right = (i + 1 < width) ? out[i + 1] : left;
        out[i] = static_cast<uint8_t>((left + right) / 2);
      }
      return true;
    }
    case LineCoding::kVerticalDelta:
      if (above == nullptr) {
        return false;  // interpolation state missing: undecodable
      }
      CombineRows(above, residuals, width, out, std::plus<>());
      return true;
  }
  return false;
}

DecompressedLine DecompressLine(const std::vector<uint8_t>& bytes, int width,
                                const uint8_t* above) {
  DecompressedLine result;
  if (width < 0) {
    return result;
  }
  result.pixels.resize(static_cast<size_t>(width));
  result.ok = DecompressLineInto(bytes.data(), bytes.size(), width, above, result.pixels.data());
  if (!result.ok) {
    result.pixels.clear();
  }
  return result;
}

}  // namespace pandora
