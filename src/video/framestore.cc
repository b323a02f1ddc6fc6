#include "src/video/framestore.h"

#include "src/runtime/check.h"

namespace pandora {

FrameStore::FrameStore(Scheduler* sched, const FramePattern* pattern, int width, int height)
    : sched_(sched), pattern_(pattern), width_(width), height_(height) {
  PANDORA_CHECK(width > 0 && height > 0);
}

void FrameStore::ReadRectangleNow(const Rect& rect, ReadResult* out) const {
  PANDORA_CHECK(rect.x >= 0 && rect.y >= 0 && rect.width >= 0 && rect.height >= 0);
  PANDORA_CHECK(rect.x + rect.width <= width_ && rect.y + rect.height <= height_);
  // Rows above the camera scan hold the frame being written; rows at or
  // below it still hold the previous frame.
  const Time now = sched_->now();
  const uint32_t writing = FrameAt(now);
  const uint32_t previous = writing == 0 ? 0 : writing - 1;
  const int scan = ScanLineAt(now);
  out->pixels.resize(static_cast<size_t>(rect.width) * static_cast<size_t>(rect.height));
  for (int row = 0; row < rect.height; ++row) {
    const int y = rect.y + row;
    pattern_->FillRow(y < scan ? writing : previous, rect.x, y, rect.width,
                      out->pixels.data() + static_cast<size_t>(row) * rect.width);
  }
  out->torn = scan > rect.y && scan < rect.y + rect.height;
  out->frame = rect.y < scan ? writing : previous;
}

std::optional<Time> FrameStore::ScanClearsAt(const Rect& rect) {
  const Time now = sched_->now();
  const int scan = ScanLineAt(now);
  if (scan <= rect.y || scan >= rect.y + rect.height) {
    return std::nullopt;
  }
  // The scan exits at the time the camera reaches the row past the bottom
  // edge (ceiling division — flooring could wake the reader a microsecond
  // early and spin).
  ++safe_waits_;
  const Time frame_start = (now / kFramePeriod) * kFramePeriod;
  const Time exit_offset =
      (static_cast<Time>(rect.y + rect.height) * kFramePeriod + height_ - 1) / height_;
  const Time exit_time = frame_start + exit_offset;
  return exit_time <= now ? frame_start + kFramePeriod : exit_time;
}

}  // namespace pandora
