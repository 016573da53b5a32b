// Analytic hardware-area model (substitute for ProNoC RTL synthesis, see
// the README's "Substitutions").
//
// Everything is expressed in NAND2 gate equivalents (GE), the standard
// technology-neutral unit. The model has two halves:
//
//  * NoC area — routers (input buffers, crossbar, allocators, route
//    computation), network interfaces and links, scaling with the node
//    count. This matches the paper's synthesis target: "a complete NoC,
//    comprising only routers, network interfaces and links, excluding SoC
//    tiles".
//
//  * DL2Fence accelerator area — the two CNN accelerators built with
//    "three convolutional kernels in a pipeline architecture" (§5.3):
//    MAC arrays, weight SRAM sized from the actual model parameter
//    counts, line buffers and control. This block is FIXED-SIZE: it is
//    instantiated once globally, not per router — which is the entire
//    scalability argument of Fig. 5: overhead(R) ~ A_acc / (R^2 * A_rtr).
//
// GE coefficients are conventional textbook figures (flip-flop ~6 GE,
// SRAM bit ~1.5 GE, 16-bit MAC ~1000 GE, 2:1 mux bit ~2.5 GE); they are
// named constants below so the calibration is inspectable rather than
// hidden. The model lands on the paper's published points (7.4% / 1.9% /
// 0.45% / 0.11% for 4x4 / 8x8 / 16x16 / 32x32).
#pragma once

#include <cstdint>

#include "common/geometry.hpp"

namespace dl2f::hw {

/// Technology coefficients in NAND2 gate equivalents.
inline constexpr double kFfGePerBit = 6.0;    ///< flip-flop storage (router buffers)
inline constexpr double kSramGePerBit = 1.5;  ///< dense SRAM (accelerator weights)
inline constexpr double kMac16Ge = 1000.0;    ///< 16-bit multiply-accumulate unit
inline constexpr double kMuxGePerBit = 2.5;   ///< crossbar 2:1 mux tree per bit per port pair
inline constexpr double kLutLogicGe = 8.0;    ///< misc combinational logic per "LUT-sized" cell

/// One 5-port VC wormhole router, ProNoC-like.
inline constexpr std::int32_t kRouterPorts = 5;
inline constexpr std::int32_t kRouterVcsPerPort = 4;
inline constexpr std::int32_t kRouterVcDepth = 4;
inline constexpr std::int32_t kFlitBits = 128;

[[nodiscard]] double router_area_ge();

/// Network interface (flitization, source queue control) per node.
[[nodiscard]] double network_interface_area_ge();

/// Whole NoC: routers + NIs + link repeaters, for an R x R mesh.
[[nodiscard]] double noc_area_ge(const MeshShape& mesh);

/// The two DL2Fence CNN accelerators (detector + localizer).
inline constexpr std::int32_t kConvKernelUnits = 3;  ///< pipelined 3x3 kernel engines (§5.3)
inline constexpr std::int32_t kKernelSize = 3;
inline constexpr std::int32_t kWeightBits = 16;
/// Input staging for 4 directional frames, and 8-ch x 3-line intermediate staging.
inline constexpr std::int32_t kLineBufferPixels = 16 * 4;
inline constexpr std::int32_t kChannelBufferPixels = 8 * 3 * 16;
inline constexpr std::int32_t kPixelBits = 16;
inline constexpr double kPostUnitGe = 800.0;  ///< ReLU/pool/sigmoid/binarize unit per engine
inline constexpr double kControlOverhead = 0.18;  ///< FSM/addressing, fraction of datapath

/// Scalar parameter count of the paper's 16x16 detector + localizer
/// (conv weights + biases + dense).
[[nodiscard]] std::int32_t default_weight_count();

/// Accelerator area with weight SRAM for `weight_count` scalar weights.
[[nodiscard]] double accelerator_area_ge(std::int32_t weight_count = default_weight_count());

/// Fig. 5: accelerator area as a percentage of the NoC area at mesh size R.
[[nodiscard]] double overhead_percent(const MeshShape& mesh);

/// Table 4 comparison constants: published per-router overheads of the
/// distributed schemes (constant w.r.t. NoC scale).
inline constexpr double kSnifferOverheadPercent = 3.3;  ///< perceptron-based [2]
inline constexpr double kSvmOverheadPercent = 9.0;      ///< SVM/router [13]

}  // namespace dl2f::hw
