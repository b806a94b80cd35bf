// lanes.hpp — the SIMD layer's view of the lane packs (util/lanes.hpp) plus
// the lane width the SIMD objects were compiled for.
#pragma once

#include "util/lanes.hpp"

namespace aqua::simd {

using util::Lanes;

/// The lane width (doubles per vector) the SIMD objects were compiled to use:
/// 8 on AVX-512, 4 on AVX2, 2 on SSE2/NEON, 1 otherwise or when the build
/// forced the scalar path (AQUA_SIMD=OFF). Batch results do not depend on it
/// — every lane is a pure function of its own gathered state — so builds of
/// any width reproduce the same committed batch checksum.
[[nodiscard]] int active_lane_width();

}  // namespace aqua::simd
