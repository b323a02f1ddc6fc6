// The capture-to-server slice transport model (section 3.6).
//
// Video data leaves the capture board in slices of a few lines through a
// fifo and a PIPELINED COMPRESSION ENGINE that "does not drain
// automatically": the engine always retains the most recent slice until
// more data pushes it through.  "In order to flush the last slice of data
// from the pipeline without waiting for the next segment to arrive, we send
// a few dummy lines after each video segment."
//
// Slice DESCRIPTIONS travel separately over the transputer link and "can be
// considered to be a model of the data that is in transit through the
// fifo's and compression hardware".  One link buffer is special: "It is
// designed to always hold back one slice description at all times, with any
// tail or head descriptions that follow, until another slice description is
// read" — so the server never attempts to read data (including dummies)
// that is still inside the compression pipe, while still allowing several
// slices in transit for concurrency.
#ifndef PANDORA_SRC_VIDEO_PIPELINE_H_
#define PANDORA_SRC_VIDEO_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/segment/constants.h"

namespace pandora {

enum class SliceKind : uint8_t {
  kHeaderDesc,  // precedes a segment's first slice: coding, stream, header
  kSliceDesc,   // one slice of compressed lines
  kTailDesc,    // marks a segment's last slice sent
  kDummyDesc,   // flush padding after a segment
};

struct SliceDesc {
  SliceKind kind = SliceKind::kSliceDesc;
  StreamId stream = kInvalidStream;
  uint32_t segment_sequence = 0;
  uint32_t lines = 0;
  uint32_t bytes = 0;
};

// The non-draining compression engine: holds exactly one slice of data.
// Push returns the slice that the new data pushed out (nothing on the very
// first push).
class PipelinedCompressor {
 public:
  std::optional<std::vector<uint8_t>> Push(std::vector<uint8_t> slice) {
    std::optional<std::vector<uint8_t>> emerged = std::move(held_);
    held_ = std::move(slice);
    return emerged;
  }

 private:
  std::optional<std::vector<uint8_t>> held_;
};

// The special link buffer.  Push delivers the descriptions that may now be
// forwarded to the server; slice-like descriptions (real slices and dummy
// flush slices) release the previously held group and become the new held
// item, while header/tail descriptions queue behind the held slice.
class SliceHoldbackBuffer {
 public:
  // The returned group stays valid until the next Push; its storage and the
  // held group's are swapped, not reallocated.
  const std::vector<SliceDesc>& Push(const SliceDesc& desc) {
    released_.clear();
    if (desc.kind == SliceKind::kSliceDesc || desc.kind == SliceKind::kDummyDesc) {
      // New data has entered the pipe: everything previously modelled as
      // in-transit has now been pushed through to the server side.
      released_.swap(held_);
      held_.push_back(desc);
    } else if (held_.empty()) {
      // Nothing in the pipe to wait for: pass straight through.
      released_.push_back(desc);
    } else {
      held_.push_back(desc);
    }
    forwarded_ += released_.size();
    return released_;
  }

  const std::vector<SliceDesc>& held() const { return held_; }
  uint64_t forwarded() const { return forwarded_; }

 private:
  std::vector<SliceDesc> held_;
  std::vector<SliceDesc> released_;
  uint64_t forwarded_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_VIDEO_PIPELINE_H_
