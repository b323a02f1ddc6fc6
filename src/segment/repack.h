// Audio repacking between live and repository formats.
//
// Section 3.2: live audio segments carry 1..12 two-millisecond blocks with a
// full header each, keeping latency low.  Once a stream is stored on a
// repository there is no latency requirement, so "this is done as a separate
// operation after the stream has been recorded, by splitting out the 2ms
// blocks, and merging them to form 40ms long segments containing 320 bytes
// of data plus a new 36 byte header.  These can be played back directly to
// any Pandora box."
#ifndef PANDORA_SRC_SEGMENT_REPACK_H_
#define PANDORA_SRC_SEGMENT_REPACK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/segment/segment.h"

namespace pandora {

// Merges live audio segments into repository 40ms segments.  Input segments
// may carry any mixture of block counts ("Incoming segments of any mixture
// of sizes are accepted"); output segments carry exactly 20 blocks except
// possibly a short final one from Flush().
class AudioRepacker {
 public:
  explicit AudioRepacker(StreamId stream) : stream_(stream) {}

  // Consumes one live segment; returns any repository segments completed.
  std::vector<Segment> Push(const Segment& live);

  // Emits a final short segment for any buffered remainder.
  std::optional<Segment> Flush();

  uint64_t blocks_consumed() const { return blocks_consumed_; }

 private:
  Segment Emit(size_t bytes);

  StreamId stream_;
  std::vector<uint8_t> pending_;
  Time pending_start_time_ = 0;  // source time of pending_[0]
  bool have_pending_time_ = false;
  uint32_t out_sequence_ = 0;
  uint64_t blocks_consumed_ = 0;
};

// Splits repository segments back into live segments of `blocks_per_segment`
// blocks for playback to any Pandora box.
class AudioUnpacker {
 public:
  AudioUnpacker(StreamId stream, int blocks_per_segment)
      : stream_(stream), blocks_per_segment_(blocks_per_segment) {}

  std::vector<Segment> Push(const Segment& stored);
  std::optional<Segment> Flush();

 private:
  Segment Emit(size_t bytes);

  StreamId stream_;
  int blocks_per_segment_;
  std::vector<uint8_t> pending_;
  Time pending_start_time_ = 0;
  bool have_pending_time_ = false;
  uint32_t out_sequence_ = 0;
};

// Header overhead fraction for an audio segment carrying `blocks` blocks —
// the quantity the 40ms repacking optimises (used by bench E13).
double AudioHeaderOverhead(int blocks);

}  // namespace pandora

#endif  // PANDORA_SRC_SEGMENT_REPACK_H_
