#include "decoders/decoder.h"

namespace dlner::decoders {

void TagDecoder::DecodePacked(const batched::PackedBatch& batch,
                              const Float* x, int in_dim,
                              std::vector<std::vector<text::Span>>* out) const {
  for (int b = 0; b < batch.batch(); ++b) {
    (*out)[b] = Predict(Constant(batch.SegmentRows(x, in_dim, b)));
  }
}

}  // namespace dlner::decoders
