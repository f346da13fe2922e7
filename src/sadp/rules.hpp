// SADP design rules (paper Section I / II).
//
// Mask geometry is expressed in *mask units*: one routing track pitch equals
// 4 mask units, so the wire width and the spacer width (both half a pitch)
// are 2 units and all synthesized shapes have integer coordinates.
#pragma once

namespace sadp::litho {

inline constexpr int kMaskUnitsPerTrack = 4;

/// Drawn wire width (= spacer width in SIM), in mask units.
inline constexpr int kWireWidth = 2;
/// Minimum width of any core-mask (mandrel) pattern.
inline constexpr int kMinMaskWidth = 2;
/// Minimum spacing between two patterns of the same mask (core-core or
/// cut-cut / trim-trim), in mask units.
inline constexpr int kMinMaskSpacing = 2;

}  // namespace sadp::litho
