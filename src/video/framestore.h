// FrameStore: the capture board's dual-ported frame memory (section 3.6).
//
// "Rectangular blocks are read from a video framestore at intervals
// determined by the requested frame rates of the streams...  The reading of
// the blocks is carefully timed so that the data from the camera being
// written continuously on a second port does not update any part of a block
// while it is being read."
//
// The camera paints the store top-to-bottom over each 40ms frame period; a
// rectangle read while the camera scan is inside its rows would mix two
// frames (a tear).  A carefully-timed reader waits until ScanClearsAt says
// the scan has left the rows, then calls ReadRectangleNow; ReadRectangleNow
// alone reads immediately and reports whether it tore — used to quantify
// what the careful timing buys (bench E14).
#ifndef PANDORA_SRC_VIDEO_FRAMESTORE_H_
#define PANDORA_SRC_VIDEO_FRAMESTORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/runtime/scheduler.h"
#include "src/runtime/time.h"
#include "src/segment/constants.h"

namespace pandora {

// Deterministic synthetic camera content: pixel value as a pure function of
// (frame, x, y), so any stage of the pipeline can be verified bit-exactly.
class FramePattern {
 public:
  virtual ~FramePattern() = default;
  virtual uint8_t PixelAt(uint32_t frame, int x, int y) const = 0;
  // Writes PixelAt(frame, x + i, y) to out[i] for i in [0, width).
  virtual void FillRow(uint32_t frame, int x, int y, int width, uint8_t* out) const {
    for (int i = 0; i < width; ++i) {
      out[i] = PixelAt(frame, x + i, y);
    }
  }
};

// A bright vertical bar sweeping across a dim gradient: motion parallel to
// segment boundaries, the paper's worst case for visible tears.
class MovingBarPattern : public FramePattern {
 public:
  MovingBarPattern(int width, int bar_width = 8, int step_per_frame = 4)
      : width_(width), bar_width_(bar_width), step_(step_per_frame) {}

  uint8_t PixelAt(uint32_t frame, int x, int y) const override {
    return Shade(BarX(frame), x, y);
  }

  // Row form of PixelAt for x, y >= 0 (framestore coordinates): the
  // gradient, then the bar painted over it.  Shade's wrapped test puts the
  // bar at [bar_x, bar_x + bar_width) and, one pattern width to the left,
  // at [bar_x - width, bar_x - width + bar_width).
  void FillRow(uint32_t frame, int x, int y, int width, uint8_t* out) const override {
    FillGradient((x + y) % 64, width, out);
    const int bar_x = BarX(frame);
    for (int bar_start : {bar_x - width_, bar_x}) {
      const int from = std::max(bar_start, x);
      const int to = std::min(bar_start + bar_width_, x + width);
      if (from < to) {
        std::fill(out + (from - x), out + (to - x), uint8_t{240});
      }
    }
  }

 private:
  static constexpr int kRowBlock = 16;

  // out[i] = 16 + (first + i) % 64 for i in [0, n): a running 6-bit counter,
  // in fixed 16-pixel blocks the vectorizer turns into SIMD stores.  A ragged
  // end re-runs the last full block shifted left (each byte depends only on
  // its index, so the overlap rewrites equal bytes).
  static void FillGradient(int first, int n, uint8_t* out) {
    if (n < kRowBlock) {
      for (int i = 0; i < n; ++i) {
        out[i] = static_cast<uint8_t>(16 + ((first + i) & 63));
      }
      return;
    }
    for (int i = 0;; i += kRowBlock) {
      if (i > n - kRowBlock) {
        i = n - kRowBlock;
      }
      for (int k = 0; k < kRowBlock; ++k) {
        out[i + k] = static_cast<uint8_t>(16 + ((first + i + k) & 63));
      }
      if (i == n - kRowBlock) {
        return;
      }
    }
  }

  int BarX(uint32_t frame) const { return static_cast<int>(frame) * step_ % width_; }
  uint8_t Shade(int bar_x, int x, int y) const {
    int dx = x - bar_x;
    if (dx < 0) {
      dx += width_;
    }
    if (dx < bar_width_) {
      return 240;
    }
    return static_cast<uint8_t>(16 + (x + y) % 64);
  }

  int width_;
  int bar_width_;
  int step_;
};

struct Rect {
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;
};

class FrameStore {
 public:
  FrameStore(Scheduler* sched, const FramePattern* pattern, int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  // Frame number the camera is writing at time `t`.
  uint32_t FrameAt(Time t) const { return static_cast<uint32_t>(t / kFramePeriod); }
  // Line the camera scan is writing at time `t`.
  int ScanLineAt(Time t) const {
    Time in_frame = t % kFramePeriod;
    return static_cast<int>(in_frame * height_ / kFramePeriod);
  }

  // A read's destination, owned by the caller: reading into the same
  // result again reuses the pixel buffer's capacity.
  struct ReadResult {
    std::vector<uint8_t> pixels;  // row-major rect.width x rect.height
    uint32_t frame = 0;           // frame number the top row came from
    bool torn = false;            // rows span two camera frames
  };

  // Immediate read: rows already passed by this frame's scan show the new
  // frame, the rest still hold the previous frame.  Torn iff the scan is
  // inside the rectangle's rows.
  void ReadRectangleNow(const Rect& rect, ReadResult* out) const;

  // The paper's carefully-timed read: nullopt when the camera scan is
  // outside [rect.y, rect.y+height) now, so a read cannot tear; otherwise
  // the instant the scan leaves those rows, and the wait is counted in
  // safe_waits().  The reader waits until that instant and asks again.
  std::optional<Time> ScanClearsAt(const Rect& rect);

  uint64_t safe_waits() const { return safe_waits_; }

 private:
  Scheduler* sched_;
  const FramePattern* pattern_;
  int width_;
  int height_;
  uint64_t safe_waits_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_VIDEO_FRAMESTORE_H_
