// AudioBlock: the 2ms, 16-sample unit of audio handling.
//
// "It is handled in blocks of 16 samples, representing 2ms of audio"
// (section 3.2).  Blocks are the granularity of clawback buffering, mixing,
// loss recovery (drop/replay a block) and muting.
#ifndef PANDORA_SRC_SEGMENT_AUDIO_BLOCK_H_
#define PANDORA_SRC_SEGMENT_AUDIO_BLOCK_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/runtime/time.h"
#include "src/segment/constants.h"
#include "src/segment/segment.h"

namespace pandora {

struct AudioBlock {
  std::array<uint8_t, kAudioBlockBytes> samples{};
  // Source-clock time of the first sample (full resolution, for metrics).
  Time source_time = 0;
};

// Block `b` of an audio segment's payload (b < payload.size() /
// kAudioBlockBytes), with its source time reconstructed from the segment
// timestamp.  Walking b upward visits the blocks without materializing them.
inline AudioBlock AudioBlockAt(const Segment& segment, size_t b) {
  AudioBlock block;
  std::memcpy(block.samples.data(), segment.payload.data() + b * kAudioBlockBytes,
              kAudioBlockBytes);
  block.source_time = segment.source_time() + static_cast<Duration>(b) * kAudioBlockDuration;
  return block;
}

// Splits an audio segment's payload into 2ms blocks.  A trailing partial
// block (possible after single-sample loss recovery) is dropped.
inline std::vector<AudioBlock> SplitIntoBlocks(const Segment& segment) {
  std::vector<AudioBlock> blocks;
  const size_t whole = segment.payload.size() / kAudioBlockBytes;
  blocks.reserve(whole);
  for (size_t b = 0; b < whole; ++b) {
    blocks.push_back(AudioBlockAt(segment, b));
  }
  return blocks;
}

}  // namespace pandora

#endif  // PANDORA_SRC_SEGMENT_AUDIO_BLOCK_H_
