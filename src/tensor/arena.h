// Bump-pointer arena for inference-plan activation buffers.
//
// The planned batch path (src/plan/) sizes every intermediate up front and
// frees only whole steps' scratch (Arena::Scope, LIFO), so allocation
// reduces to pointer arithmetic: Alloc bumps a cursor inside a block,
// Reset or a Scope's end rewinds the cursors while keeping the blocks, and
// after the first batch of a given shape the hot path performs zero heap
// allocation. Each worker thread owns its own arena (thread_local in
// plan.cc), so no synchronization is needed.
#ifndef DLNER_TENSOR_ARENA_H_
#define DLNER_TENSOR_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dlner {

class Arena {
 public:
  /// Capacity (in Floats) of the first block; later blocks double.
  static constexpr std::size_t kInitialFloats = 1u << 13;  // 64 KiB

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` Floats, valid until the next Reset.
  Float* Alloc(std::size_t n);

  /// Rewinds every block cursor; capacity is retained for reuse.
  void Reset();

  /// Scratch for one step: on destruction, frees everything allocated
  /// through the arena since construction (allocations made before stay
  /// valid), so the next step reuses that memory and the high-water mark
  /// counts the step's scratch once instead of stacking it under every
  /// later buffer. Scopes nest LIFO.
  class Scope {
   public:
    explicit Scope(Arena* arena)
        : arena_(arena),
          block_(arena->block_),
          used_(arena->used_),
          in_use_floats_(arena->in_use_floats_) {}
    ~Scope() {
      arena_->block_ = block_;
      arena_->used_ = used_;
      arena_->in_use_floats_ = in_use_floats_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena* arena_;
    std::size_t block_, used_, in_use_floats_;
  };

  /// Total bytes of block capacity ever reserved (monotone).
  std::size_t bytes_reserved() const { return reserved_floats_ * sizeof(Float); }

  /// Peak bytes simultaneously in use across the arena's lifetime.
  std::size_t high_water() const { return high_water_floats_ * sizeof(Float); }

 private:
  struct Block {
    std::unique_ptr<Float[]> data;
    std::size_t capacity = 0;  // in Floats
  };

  std::vector<Block> blocks_;
  std::size_t block_ = 0;           // index of the block being bumped
  std::size_t used_ = 0;            // Floats used within blocks_[block_]
  std::size_t in_use_floats_ = 0;   // Floats live since the last Reset
  std::size_t reserved_floats_ = 0;
  std::size_t high_water_floats_ = 0;
};

}  // namespace dlner

#endif  // DLNER_TENSOR_ARENA_H_
