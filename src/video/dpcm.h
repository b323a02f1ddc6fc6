// Line-oriented video coding (sections 3.3, 3.6).
//
// "Each line of video data has a one byte compression header added, which
// is used by the compression hardware to determine what sub-sampling and
// DPCM coding should be applied."  The decompression hardware "expands the
// DPCM coded video, and can also interpolate both horizontally and
// vertically".
//
// Codings:
//  * kRawLine — header + the pixels untouched.
//  * kDpcmLine — header + mod-256 prediction residuals against the previous
//    pixel (lossless, no size change; models DPCM fidelity).
//  * kSubsampledDpcmLine — header + residuals of every second pixel (2:1);
//    decompression interpolates the missing pixels horizontally.
//
// Vertical interpolation: a line may also be coded against the line above
// (kVerticalDelta), which is where the paper's interleaving problem bites —
// the first line of a segment needs the LAST LINE OF THE PREVIOUS SEGMENT
// of the same stream.  Pandora keeps "a software cache of the last line
// processed on each stream, and reload[s] the interpolation hardware
// whenever we interleave segments" — LastLineCache below.
#ifndef PANDORA_SRC_VIDEO_DPCM_H_
#define PANDORA_SRC_VIDEO_DPCM_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/segment/constants.h"

namespace pandora {

enum class LineCoding : uint8_t {
  kRawLine = 0,
  kDpcmLine = 1,
  kSubsampledDpcmLine = 2,
  kVerticalDelta = 3,  // residuals against the line above
};

// Encoded size of a line for a given coding (0 for an unknown coding).
size_t CompressedLineSize(LineCoding coding, int width);

// Compresses one line of `width` pixels into `out`, which must have room for
// CompressedLineSize(coding, width) bytes; returns the bytes written.  For
// kVerticalDelta, `above` must point at the previous line (same width).
size_t CompressLineInto(LineCoding coding, const uint8_t* pixels, int width,
                        const uint8_t* above, uint8_t* out);

// Convenience wrapper allocating a fresh vector.
std::vector<uint8_t> CompressLine(LineCoding coding, const uint8_t* pixels, int width,
                                  const uint8_t* above = nullptr);

// Decompresses the `size`-byte coded line at `bytes` into `width` pixels at
// `out`.  False if the line is empty, its size disagrees with its coding
// header, or it is kVerticalDelta and `above` (the interpolation-hardware
// state the cache reloads) is missing; `out` is then unspecified.
bool DecompressLineInto(const uint8_t* bytes, size_t size, int width, const uint8_t* above,
                        uint8_t* out);

struct DecompressedLine {
  bool ok = false;
  std::vector<uint8_t> pixels;  // empty unless ok
};

// Convenience wrapper allocating a fresh vector.
DecompressedLine DecompressLine(const std::vector<uint8_t>& bytes, int width,
                                const uint8_t* above = nullptr);

// "Maintain a software cache of the last line processed on each stream, and
// reload the interpolation hardware whenever we interleave segments."
class LastLineCache {
 public:
  // Called after a segment's last line decompresses.
  void Store(StreamId stream, std::vector<uint8_t> line) { lines_[stream] = std::move(line); }
  // Same, copying `n` pixels into the cached line's existing capacity.
  void Store(StreamId stream, const uint8_t* line, size_t n) {
    lines_[stream].assign(line, line + n);
  }

  // Called before decompressing a segment's first line; counts a hardware
  // reload when the previous segment processed belonged to another stream.
  const std::vector<uint8_t>* Fetch(StreamId stream) {
    if (last_stream_ != stream) {
      ++reloads_;
      last_stream_ = stream;
    }
    auto it = lines_.find(stream);
    return it == lines_.end() ? nullptr : &it->second;
  }

  void Drop(StreamId stream) { lines_.erase(stream); }
  uint64_t reloads() const { return reloads_; }

 private:
  std::map<StreamId, std::vector<uint8_t>> lines_;
  StreamId last_stream_ = kInvalidStream;
  uint64_t reloads_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_VIDEO_DPCM_H_
