// Probe TU for the row-kernel vectorization gate (tests/vectorize_check.cmake).
//
// Instantiates the separable mix passes exactly as the mixer's tick does
// (compile-time trip count kAudioBlockSamples), and the synthetic camera's
// row fill as FrameStore reads it.  The gate compiles this TU and
// src/video/dpcm.cc with the production optimization level plus
// -fopt-info-vec-optimized and fails if the vector reports for the
// arithmetic passes (AccumulateBlock, ClampBlock), the gradient fill or the
// DPCM compress loops disappear — e.g. if someone reintroduces a
// loop-carried dependency or an aliasing escape into the kernels.
#include "src/audio/mix_kernels.h"
#include "src/segment/constants.h"
#include "src/video/framestore.h"

namespace pandora {

void VectorizeProbe(const uint8_t* ulaw, int16_t* linear, int32_t* acc, int16_t* clamped,
                    uint8_t* out) {
  ULawDecodeBlock<kAudioBlockSamples>(ulaw, linear);
  AccumulateBlock<kAudioBlockSamples>(linear, acc);
  ClampBlock<kAudioBlockSamples>(acc, clamped);
  ULawEncodeBlock<kAudioBlockSamples>(clamped, out);
}

void FillRowProbe(const MovingBarPattern& pattern, uint32_t frame, int x, int y, int width,
                  uint8_t* out) {
  pattern.MovingBarPattern::FillRow(frame, x, y, width, out);
}

}  // namespace pandora
