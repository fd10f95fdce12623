#pragma once
// Single-precision constant star stencil in 2D. Exercises CATS's
// "memory size of a data type" parameter: with 4-byte elements the same
// cache holds twice as many wavefront points, so Eq. 1/2 produce TZ/BZ
// roughly twice as deep as the double-precision kernels (element_bytes()).
//
// Since the fp32 precision path became first-class this is just the float
// instantiation of the shared ConstStar2D body (const2d.hpp): it carries the
// full kernel surface — NUMA-aware parallel_init, prefetch_front, the fused
// wave micro-kernel, and the temporally-vectorized chain body — not the
// read-only subset the kernel started with.

#include "kernels/const2d.hpp"

namespace cats {

template <int S>
using FloatStar2D = ConstStar2D<S, float>;

}  // namespace cats
