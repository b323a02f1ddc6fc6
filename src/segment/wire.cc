#include "src/segment/wire.h"

#include <cstddef>
#include <cstring>

#include "src/runtime/check.h"

namespace pandora {
namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  out->push_back(static_cast<uint8_t>(value & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 8) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 16) & 0xff));
  out->push_back(static_cast<uint8_t>((value >> 24) & 0xff));
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool GetU32(uint32_t* out) {
    if (pos_ + 4 > bytes_.size()) {
      return false;
    }
    *out = static_cast<uint32_t>(bytes_[pos_]) | (static_cast<uint32_t>(bytes_[pos_ + 1]) << 8) |
           (static_cast<uint32_t>(bytes_[pos_ + 2]) << 16) |
           (static_cast<uint32_t>(bytes_[pos_ + 3]) << 24);
    pos_ += 4;
    return true;
  }

  bool GetBytes(size_t n, std::vector<uint8_t>* out) {
    if (pos_ + n > bytes_.size()) {
      return false;
    }
    out->assign(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                bytes_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

bool Fail(const char* message, const char** error) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

}  // namespace

void EncodeSegmentInto(const Segment& segment, StreamField stream_field,
                       std::vector<uint8_t>* out) {
  // Make*Segment stamp `length` once; mutating the payload (or the video
  // compression args) afterwards silently desynchronizes them, and the
  // receiver would reject the segment as damaged.  Catch it at the source.
  PANDORA_DCHECK(segment.header.length == segment.EncodedSize(),
                 "header.length drifted from EncodedSize(); "
                 "restamp length after mutating payload or compression args");
  out->clear();
  out->reserve(segment.EncodedSize() + 4);
  if (stream_field == StreamField::kIncluded) {
    PutU32(out, segment.stream);
  }
  PutU32(out, segment.header.version_id);
  PutU32(out, segment.header.sequence);
  PutU32(out, segment.header.timestamp);
  PutU32(out, static_cast<uint32_t>(segment.header.type));
  PutU32(out, static_cast<uint32_t>(segment.EncodedSize()));

  if (const auto* audio = std::get_if<AudioHeader>(&segment.sub)) {
    PutU32(out, audio->sampling_rate);
    PutU32(out, static_cast<uint32_t>(audio->format));
    PutU32(out, static_cast<uint32_t>(audio->compression));
    PutU32(out, static_cast<uint32_t>(segment.payload.size()));
  } else if (const auto* video = std::get_if<VideoHeader>(&segment.sub)) {
    PutU32(out, video->frame_number);
    PutU32(out, video->segments_in_frame);
    PutU32(out, video->segment_number);
    PutU32(out, video->x_offset);
    PutU32(out, video->y_offset);
    PutU32(out, static_cast<uint32_t>(video->pixel_format));
    PutU32(out, static_cast<uint32_t>(video->compression_type));
    PutU32(out, static_cast<uint32_t>(segment.compression_args.size()));
    for (uint32_t arg : segment.compression_args) {
      PutU32(out, arg);
    }
    PutU32(out, video->x_width);
    PutU32(out, video->start_line_y);
    PutU32(out, video->line_count);
    PutU32(out, static_cast<uint32_t>(segment.payload.size()));
  }
  out->insert(out->end(), segment.payload.begin(), segment.payload.end());
}

std::vector<uint8_t> EncodeSegment(const Segment& segment, StreamField stream_field) {
  std::vector<uint8_t> out;
  EncodeSegmentInto(segment, stream_field, &out);
  return out;
}

bool DecodeSegmentInto(const std::vector<uint8_t>& bytes, StreamField stream_field,
                       StreamId vci_stream, Segment* out, const char** error) {
  Reader reader(bytes);
  Segment& segment = *out;

  if (stream_field == StreamField::kIncluded) {
    uint32_t stream = 0;
    if (!reader.GetU32(&stream)) {
      return Fail("truncated stream field", error);
    }
    segment.stream = stream;
  } else {
    segment.stream = vci_stream;
  }

  uint32_t type_raw = 0;
  uint32_t length = 0;
  if (!reader.GetU32(&segment.header.version_id) || !reader.GetU32(&segment.header.sequence) ||
      !reader.GetU32(&segment.header.timestamp) || !reader.GetU32(&type_raw) ||
      !reader.GetU32(&length)) {
    return Fail("truncated common header", error);
  }
  if (segment.header.version_id != kSegmentVersionId) {
    return Fail("bad version id", error);
  }
  segment.header.type = static_cast<SegmentType>(type_raw);
  segment.header.length = length;

  switch (segment.header.type) {
    case SegmentType::kAudio: {
      AudioHeader audio;
      uint32_t format = 0;
      uint32_t compression = 0;
      uint32_t data_length = 0;
      if (!reader.GetU32(&audio.sampling_rate) || !reader.GetU32(&format) ||
          !reader.GetU32(&compression) || !reader.GetU32(&data_length)) {
        return Fail("truncated audio header", error);
      }
      audio.format = static_cast<AudioFormat>(format);
      audio.compression = static_cast<AudioCoding>(compression);
      audio.data_length = data_length;
      if (data_length != reader.remaining()) {
        return Fail("audio data length mismatch", error);
      }
      if (!reader.GetBytes(data_length, &segment.payload)) {
        return Fail("truncated audio data", error);
      }
      segment.sub = audio;
      segment.compression_args.clear();
      break;
    }
    case SegmentType::kVideo: {
      VideoHeader video;
      uint32_t pixel_format = 0;
      uint32_t compression = 0;
      uint32_t argument_count = 0;
      if (!reader.GetU32(&video.frame_number) || !reader.GetU32(&video.segments_in_frame) ||
          !reader.GetU32(&video.segment_number) || !reader.GetU32(&video.x_offset) ||
          !reader.GetU32(&video.y_offset) || !reader.GetU32(&pixel_format) ||
          !reader.GetU32(&compression) || !reader.GetU32(&argument_count)) {
        return Fail("truncated video header", error);
      }
      if (argument_count > 64) {
        return Fail("unreasonable compression argument count", error);
      }
      segment.compression_args.resize(argument_count);
      for (uint32_t i = 0; i < argument_count; ++i) {
        if (!reader.GetU32(&segment.compression_args[i])) {
          return Fail("truncated compression arguments", error);
        }
      }
      uint32_t data_length = 0;
      if (!reader.GetU32(&video.x_width) || !reader.GetU32(&video.start_line_y) ||
          !reader.GetU32(&video.line_count) || !reader.GetU32(&data_length)) {
        return Fail("truncated video geometry", error);
      }
      video.pixel_format = static_cast<PixelFormat>(pixel_format);
      video.compression_type = static_cast<VideoCoding>(compression);
      video.data_length = data_length;
      if (video.segments_in_frame == 0 || video.segment_number >= video.segments_in_frame) {
        return Fail("bad segment-in-frame numbering", error);
      }
      if (data_length != reader.remaining()) {
        return Fail("video data length mismatch", error);
      }
      if (!reader.GetBytes(data_length, &segment.payload)) {
        return Fail("truncated video data", error);
      }
      segment.sub = video;
      break;
    }
    case SegmentType::kTest: {
      if (!reader.GetBytes(reader.remaining(), &segment.payload)) {
        return Fail("truncated test data", error);
      }
      segment.sub = std::monostate{};
      segment.compression_args.clear();
      break;
    }
    default:
      return Fail("unknown segment type", error);
  }

  if (segment.EncodedSize() != length) {
    return Fail("common header length disagrees with contents", error);
  }
  return true;
}

DecodeResult DecodeSegment(const std::vector<uint8_t>& bytes, StreamField stream_field,
                           StreamId vci_stream) {
  DecodeResult result;
  const char* error = nullptr;
  result.ok = DecodeSegmentInto(bytes, stream_field, vci_stream, &result.segment, &error);
  if (!result.ok) {
    result.error = error;
    result.segment = Segment();
  }
  return result;
}

bool PeekWireHeader(const std::vector<uint8_t>& bytes, StreamField stream_field,
                    WireHeaderPeek* out, StreamId vci_stream) {
  Reader reader(bytes);
  if (stream_field == StreamField::kIncluded) {
    uint32_t stream = 0;
    if (!reader.GetU32(&stream)) {
      return false;
    }
    out->stream = stream;
  } else {
    out->stream = vci_stream;
  }
  uint32_t type_raw = 0;
  if (!reader.GetU32(&out->version_id) || !reader.GetU32(&out->sequence) ||
      !reader.GetU32(&out->timestamp) || !reader.GetU32(&type_raw) || !reader.GetU32(&out->length)) {
    return false;
  }
  if (out->version_id != kSegmentVersionId) {
    return false;
  }
  switch (static_cast<SegmentType>(type_raw)) {
    case SegmentType::kAudio:
    case SegmentType::kVideo:
    case SegmentType::kTest:
      out->type = static_cast<SegmentType>(type_raw);
      break;
    default:
      return false;
  }
  // The declared length covers everything but the optional stream prefix; a
  // well-formed buffer contains the whole segment and nothing else.
  const size_t prefix = stream_field == StreamField::kIncluded ? 4u : 0u;
  return bytes.size() == static_cast<size_t>(out->length) + prefix;
}

// The explicit instantiation of the wire-buffer pool lives in
// src/buffer/pool.cc: RefPool reports starvation through the control plane,
// and control already depends on this library.

}  // namespace pandora
