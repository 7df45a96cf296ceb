#pragma once
// TensorArena — slab recycling for the INT8 inference hot path.
//
// The functional executors (quant::QGraph::forward, dpu::DpuCoreSim::run)
// used to construct a fresh TensorI8 per layer per frame: one malloc plus a
// full zero-fill each, repeated tens of times per inference. An arena keeps
// the freed slabs and hands them back by best fit, so from the second frame
// on the activations cost no allocation, except the output that escapes.
// A frame still allocates outside the arena: each x86 conv/tconv call its
// input plane (28 per 4M or 16M frame), a tconv given no arena
// its accumulator plane, and each executor its per-layer activation and
// fix-pos vectors.
//
// Lifetime rules:
//  - An arena is single-threaded state. Share one per execution thread
//    (VartRunner keeps one per thread it runs frames on), never across
//    concurrent runs.
//  - acquire() returns a tensor with UNSPECIFIED contents; every kernel
//    writes its complete output, so no zero-fill is needed.
//  - release() donates a tensor's storage back to the pool. Tensors that
//    escape to the caller (the returned inference output, captured
//    activation sets) simply never come back — the arena replaces them
//    with one fresh slab on a later acquire.
//  - acc32() is a single reusable int32 scratch plane (transposed-conv
//    accumulators); contents are unspecified, the caller initializes it.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace seneca::tensor {

class TensorArena {
 public:
  /// Pops the best-fitting free slab (smallest capacity that holds `shape`)
  /// and re-dimensions it; allocates a fresh slab when none fits. Contents
  /// are unspecified.
  TensorI8 acquire(const Shape& shape) {
    const auto need = static_cast<std::size_t>(shape.numel());
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].capacity() < need) continue;
      if (best == free_.size() || free_[i].capacity() < free_[best].capacity()) {
        best = i;
      }
    }
    if (best == free_.size()) {
      ++mallocs_;
      return TensorI8(shape);
    }
    TensorI8 slab = std::move(free_[best]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
    slab.resize(shape);  // capacity suffices: no reallocation
    return slab;
  }

  /// Returns a tensor's storage to the pool. Empty tensors are ignored.
  void release(TensorI8&& t) {
    if (t.capacity() == 0) return;
    free_.push_back(std::move(t));
  }

  /// Reusable int32 accumulator scratch of at least `n` elements; contents
  /// unspecified. Invalidated by the next acc32() call.
  std::int32_t* acc32(std::int64_t n) {
    if (acc_.size() < static_cast<std::size_t>(n)) {
      ++mallocs_;
      acc_.resize(static_cast<std::size_t>(n));
    }
    return acc_.data();
  }

  /// Fresh slab allocations (and scratch growths) performed so far. A
  /// steady-state executor stops increasing this after its first frame.
  std::size_t mallocs() const { return mallocs_; }

  /// Slabs currently pooled.
  std::size_t pooled() const { return free_.size(); }

  void clear() {
    free_.clear();
    acc_.clear();
    acc_.shrink_to_fit();
  }

 private:
  std::vector<TensorI8> free_;
  std::vector<std::int32_t> acc_;
  std::size_t mallocs_ = 0;
};

}  // namespace seneca::tensor
