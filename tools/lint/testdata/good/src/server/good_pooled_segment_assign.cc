// Fixture: the in-place shapes that keep a pool slot's capacity — fill or
// decode into the slot, swap a scratch segment in, or copy-assign.  Moves
// into anything that is not a SegmentRef are outside the rule, and tests/
// and bench/ may build slots with Make*Segment freely.
#include <utility>
#include <vector>

#include "src/buffer/pool.h"
#include "src/segment/wire.h"

namespace pandora {

inline void Fill(SegmentRef ref, Segment* scratch, const std::vector<uint8_t>& bytes) {
  FillAudioSegment(ref.get(), 1, 0, 0, bytes.data(), bytes.size());
  if (DecodeSegmentInto(bytes, StreamField::kOmitted, 3, scratch)) {
    std::swap(*ref, *scratch);
  }
  *ref = *scratch;  // copy-assign reuses the slot's vectors
  Segment local = MakeAudioSegment(1, 0, 0, bytes);
  (void)local;
}

inline void Replace(std::vector<uint8_t>* out, std::vector<uint8_t> parsed) {
  *out = std::move(parsed);  // not a segment slot
}

}  // namespace pandora
