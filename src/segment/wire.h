// Wire encoding of Pandora segments.
//
// Serializes segments exactly as figs 3.1/3.2 lay them out: 32-bit fields,
// common header first, then the type-specific header (with a variable count
// of compression arguments for video), then the data.  Within a box the
// 32-bit stream number travels as an extra field preceding the header
// (section 3.4); over the ATM network the stream number rides in the VCI
// instead, so encoders can omit the prefix.
//
// This codec is the production data plane, not just a test harness: the
// network carries refcounted WireBuffers of encoded bytes (WirePool below),
// encoded exactly once at the source port (src/server/netio.cc) and decoded
// exactly once at the destination.  Intermediate hops that only need
// routing metadata use PeekWireHeader instead of a full decode.
//
// Byte order is little-endian (the transputer is a little-endian machine).
#ifndef PANDORA_SRC_SEGMENT_WIRE_H_
#define PANDORA_SRC_SEGMENT_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/buffer/pool.h"
#include "src/segment/segment.h"

namespace pandora {

enum class StreamField {
  kIncluded,  // intra-box: stream number prefixes the header
  kOmitted,   // network: stream number carried in the VCI
};

// One fixed wire buffer: a segment's encoded bytes, owned by a port-side
// WirePool and passed between network stages by refcounted handle.
struct WireBuffer {
  std::vector<uint8_t> bytes;
};

// Recycle hook (ADL, src/buffer/pool.h): keep capacity, drop contents.
inline void PoolRecycle(WireBuffer& buffer) { buffer.bytes.clear(); }

// The port-side pool of encoded segments crossing the network.
using WirePool = RefPool<WireBuffer>;
using WireRef = PoolRef<WireBuffer>;

// Encodes `segment` into `*out` (cleared first; heap capacity is reused, so
// encoding into a recycled WireBuffer allocates nothing in steady state).
// The result's length equals segment.EncodedSize() (+4 if the stream field
// is included).  DCHECKs that header.length has not drifted from
// EncodedSize() — mutating a payload after Make*Segment desynchronizes them.
void EncodeSegmentInto(const Segment& segment, StreamField stream_field,
                       std::vector<uint8_t>* out);

// Convenience wrapper allocating a fresh vector.
std::vector<uint8_t> EncodeSegment(const Segment& segment,
                                   StreamField stream_field = StreamField::kIncluded);

struct DecodeResult {
  bool ok = false;
  std::string error;
  Segment segment;
};

// Decodes bytes back into `*out`, validating version id, type, length
// consistency and header/data agreement.  When the stream field is omitted,
// pass the stream id recovered from the VCI.  Every field of `*out` is
// rewritten, and its payload and compression-argument vectors keep their
// heap capacity, so decoding into a reused Segment allocates nothing in
// steady state.  On failure returns false, points `*error` (when non-null)
// at a static description, and leaves `*out` unspecified.
bool DecodeSegmentInto(const std::vector<uint8_t>& bytes, StreamField stream_field,
                       StreamId vci_stream, Segment* out, const char** error = nullptr);

// Convenience wrapper decoding into a fresh segment (default-constructed
// on failure).
DecodeResult DecodeSegment(const std::vector<uint8_t>& bytes,
                           StreamField stream_field = StreamField::kIncluded,
                           StreamId vci_stream = kInvalidStream);

// The common header of an encoded segment, read without touching the
// type-specific header or payload.
struct WireHeaderPeek {
  StreamId stream = kInvalidStream;
  uint32_t version_id = 0;
  uint32_t sequence = 0;
  uint32_t timestamp = 0;
  SegmentType type = SegmentType::kTest;
  uint32_t length = 0;  // EncodedSize() of the segment (excludes stream field)
};

// Extracts the common header from encoded bytes without a full decode.
// Validates only what it reads: the buffer is long enough, the version id
// matches, the type is known, and the declared length agrees with the
// buffer size.  A successful full decode implies a successful peek with the
// same field values; the converse does not hold (a peek cannot see
// type-specific damage).
bool PeekWireHeader(const std::vector<uint8_t>& bytes, StreamField stream_field,
                    WireHeaderPeek* out, StreamId vci_stream = kInvalidStream);

}  // namespace pandora

#endif  // PANDORA_SRC_SEGMENT_WIRE_H_
