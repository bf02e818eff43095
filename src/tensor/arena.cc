#include "tensor/arena.h"

#include <algorithm>

namespace dlner {

Float* Arena::Alloc(std::size_t n) {
  if (n == 0) n = 1;  // keep returned pointers distinct and valid
  while (block_ < blocks_.size() &&
         used_ + n > blocks_[block_].capacity) {
    // The remainder of the current block is abandoned until Reset; blocks
    // double, so the waste is bounded by a constant factor.
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    const std::size_t last =
        blocks_.empty() ? kInitialFloats / 2 : blocks_.back().capacity;
    const std::size_t cap = std::max(n, last * 2);
    blocks_.push_back({std::make_unique<Float[]>(cap), cap});
    reserved_floats_ += cap;
    used_ = 0;
  }
  Float* out = blocks_[block_].data.get() + used_;
  used_ += n;
  in_use_floats_ += n;
  high_water_floats_ = std::max(high_water_floats_, in_use_floats_);
  return out;
}

void Arena::Reset() {
  block_ = 0;
  used_ = 0;
  in_use_floats_ = 0;
}

}  // namespace dlner
