#include "src/segment/segment.h"

namespace pandora {

size_t Segment::EncodedSize() const {
  size_t size = kCommonHeaderBytes;
  if (std::holds_alternative<AudioHeader>(sub)) {
    size += kAudioHeaderBytes;
  } else if (std::holds_alternative<VideoHeader>(sub)) {
    size += kVideoHeaderFixedBytes + compression_args.size() * 4;
  }
  return size + payload.size();
}

int Segment::AudioBlockCount() const {
  if (!is_audio()) {
    return 0;
  }
  return static_cast<int>(payload.size() / kAudioBlockBytes);
}

namespace {

// Sets every field but the payload as a freshly built segment of `sub`'s
// type carrying the current payload.
template <typename SubHeader>
void StampHeaders(Segment* segment, StreamId stream, uint32_t sequence, Time source_time,
                  SegmentType type, SubHeader sub) {
  segment->stream = stream;
  segment->header = CommonHeader{};
  segment->header.sequence = sequence;
  segment->header.timestamp = ToTimestampTicks(source_time);
  segment->header.type = type;
  sub.data_length = static_cast<uint32_t>(segment->payload.size());
  segment->sub = sub;
  segment->compression_args.clear();
  segment->header.length = static_cast<uint32_t>(segment->EncodedSize());
}

}  // namespace

Segment MakeAudioSegment(StreamId stream, uint32_t sequence, Time source_time,
                         std::vector<uint8_t> samples) {
  Segment segment;
  segment.payload = std::move(samples);
  StampHeaders(&segment, stream, sequence, source_time, SegmentType::kAudio, AudioHeader{});
  return segment;
}

Segment MakeVideoSegment(StreamId stream, uint32_t sequence, Time source_time,
                         const VideoHeader& vh, std::vector<uint8_t> data) {
  Segment segment;
  segment.payload = std::move(data);
  StampHeaders(&segment, stream, sequence, source_time, SegmentType::kVideo, vh);
  return segment;
}

void FillAudioSegment(Segment* segment, StreamId stream, uint32_t sequence, Time source_time,
                      const uint8_t* samples, size_t size) {
  segment->payload.assign(samples, samples + size);
  StampHeaders(segment, stream, sequence, source_time, SegmentType::kAudio, AudioHeader{});
}

void FillVideoSegment(Segment* segment, StreamId stream, uint32_t sequence, Time source_time,
                      const VideoHeader& vh, const uint8_t* data, size_t size) {
  segment->payload.assign(data, data + size);
  StampHeaders(segment, stream, sequence, source_time, SegmentType::kVideo, vh);
}

}  // namespace pandora
