// Fixture: whole-segment assignment into pool slots inside src/ — each one
// moves a freshly allocated payload in and frees the slot's capacity.
#include <optional>
#include <utility>
#include <vector>

#include "src/buffer/pool.h"
#include "src/segment/wire.h"

namespace pandora {

inline Process Emit(BufferPool* pool, std::vector<uint8_t> samples, const VideoHeader& vh) {
  SegmentRef ref = co_await pool->Allocate();
  *ref = MakeAudioSegment(1, 0, 0, std::move(samples));  // EXPECT-LINT: pooled-segment-assign
  std::optional<SegmentRef> maybe = pool->TryAllocate();
  **maybe = MakeVideoSegment(2, 0, 0, vh, {});  // EXPECT-LINT: pooled-segment-assign
}

inline void Deliver(SegmentRef ref, const std::vector<uint8_t>& bytes) {
  DecodeResult decoded = DecodeSegment(bytes);
  *ref = std::move(decoded.segment);  // EXPECT-LINT: pooled-segment-assign
}

}  // namespace pandora
