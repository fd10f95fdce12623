#pragma once
// Tile-size parameters for the PluTo-like baseline (plan/emit.hpp emit_pluto).

namespace cats {

struct PlutoParams {
  // 2D: (time, y, x) tile sizes after skewing.
  int bt2 = 32, by2 = 32, bx2 = 64;
  // 3D: (time, z, y, x) tile sizes after skewing.
  int bt3 = 8, bz3 = 16, by3 = 16, bx3 = 64;
};

/// Defaults mirror PluTo 0.4.x conventions (32-ish tiles in every skewed
/// dimension, a wider unit-stride tile so auto-vectorization is not starved);
/// overridable via the environment variable CATS_PLUTO_TILES="bt,by,bx" /
/// "bt,bz,by,bx" for ablation runs.
PlutoParams pluto_params();

}  // namespace cats
