#include "src/video/dpcm.h"

#include "src/runtime/check.h"

namespace pandora {

size_t CompressedLineSize(LineCoding coding, int width) {
  switch (coding) {
    case LineCoding::kRawLine:
    case LineCoding::kDpcmLine:
    case LineCoding::kVerticalDelta:
      return 1 + static_cast<size_t>(width);
    case LineCoding::kSubsampledDpcmLine:
      return 1 + static_cast<size_t>((width + 1) / 2);
  }
  return 0;
}

size_t CompressLineInto(LineCoding coding, const uint8_t* pixels, int width,
                        const uint8_t* above, uint8_t* out) {
  const size_t size = CompressedLineSize(coding, width);
  PANDORA_CHECK(size > 0, "unknown line coding");
  out[0] = static_cast<uint8_t>(coding);
  uint8_t* residuals = out + 1;
  switch (coding) {
    case LineCoding::kRawLine:
      for (int i = 0; i < width; ++i) {
        residuals[i] = pixels[i];
      }
      break;
    case LineCoding::kDpcmLine: {
      uint8_t prediction = 0;
      for (int i = 0; i < width; ++i) {
        residuals[i] = static_cast<uint8_t>(pixels[i] - prediction);
        prediction = pixels[i];
      }
      break;
    }
    case LineCoding::kSubsampledDpcmLine: {
      uint8_t prediction = 0;
      for (int i = 0, j = 0; i < width; i += 2, ++j) {
        residuals[j] = static_cast<uint8_t>(pixels[i] - prediction);
        prediction = pixels[i];
      }
      break;
    }
    case LineCoding::kVerticalDelta:
      PANDORA_CHECK(above != nullptr);
      for (int i = 0; i < width; ++i) {
        residuals[i] = static_cast<uint8_t>(pixels[i] - above[i]);
      }
      break;
  }
  return size;
}

std::vector<uint8_t> CompressLine(LineCoding coding, const uint8_t* pixels, int width,
                                  const uint8_t* above) {
  std::vector<uint8_t> out(CompressedLineSize(coding, width));
  CompressLineInto(coding, pixels, width, above, out.data());
  return out;
}

bool DecompressLineInto(const uint8_t* bytes, size_t size, int width, const uint8_t* above,
                        uint8_t* out) {
  if (size == 0) {
    return false;
  }
  LineCoding coding = static_cast<LineCoding>(bytes[0]);
  if (size != CompressedLineSize(coding, width)) {
    return false;
  }
  const uint8_t* residuals = bytes + 1;
  switch (coding) {
    case LineCoding::kRawLine:
      for (int i = 0; i < width; ++i) {
        out[i] = residuals[i];
      }
      return true;
    case LineCoding::kDpcmLine: {
      uint8_t value = 0;
      for (int i = 0; i < width; ++i) {
        value = static_cast<uint8_t>(value + residuals[i]);
        out[i] = value;
      }
      return true;
    }
    case LineCoding::kSubsampledDpcmLine: {
      // Recover the even pixels, then interpolate odd ones horizontally.
      uint8_t value = 0;
      for (int i = 0, j = 0; i < width; i += 2, ++j) {
        value = static_cast<uint8_t>(value + residuals[j]);
        out[i] = value;
      }
      for (int i = 1; i < width; i += 2) {
        int left = out[i - 1];
        int right = (i + 1 < width) ? out[i + 1] : left;
        out[i] = static_cast<uint8_t>((left + right) / 2);
      }
      return true;
    }
    case LineCoding::kVerticalDelta:
      if (above == nullptr) {
        return false;  // interpolation state missing: undecodable
      }
      for (int i = 0; i < width; ++i) {
        out[i] = static_cast<uint8_t>(above[i] + residuals[i]);
      }
      return true;
  }
  return false;
}

DecompressedLine DecompressLine(const std::vector<uint8_t>& bytes, int width,
                                const uint8_t* above) {
  DecompressedLine result;
  if (width < 0) {
    return result;
  }
  result.pixels.resize(static_cast<size_t>(width));
  result.ok = DecompressLineInto(bytes.data(), bytes.size(), width, above, result.pixels.data());
  if (!result.ok) {
    result.pixels.clear();
  }
  return result;
}

}  // namespace pandora
