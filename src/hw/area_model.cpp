#include "hw/area_model.hpp"

namespace dl2f::hw {

double router_area_ge() {
  // Input buffers dominate a VC router: one flip-flop-based FIFO per VC.
  const double buffer_bits =
      static_cast<double>(kRouterPorts) * kRouterVcsPerPort * kRouterVcDepth * kFlitBits;
  const double buffers = buffer_bits * kFfGePerBit;

  // Crossbar: per output, a ports-wide mux tree across the flit width.
  const double crossbar =
      static_cast<double>(kRouterPorts) * kRouterPorts * kFlitBits * kMuxGePerBit;

  // VC + switch allocators: arbitration cells across (port, vc) pairs.
  const double alloc_cells = static_cast<double>(kRouterPorts) * kRouterVcsPerPort *
                             kRouterPorts * kRouterVcsPerPort /
                             static_cast<double>(kRouterVcsPerPort);
  const double allocators = alloc_cells * kLutLogicGe * 4.0;

  // Route computation: a comparator pair per input VC.
  const double route_comp = static_cast<double>(kRouterPorts) * kRouterVcsPerPort * 50.0;

  return buffers + crossbar + allocators + route_comp;
}

double network_interface_area_ge() {
  // Two staging flit registers plus flitization / reassembly control.
  const double staging = 2.0 * kFlitBits * kFfGePerBit;
  const double control = 400.0 * kLutLogicGe;
  return staging + control;
}

double noc_area_ge(const MeshShape& mesh) {
  const auto nodes = static_cast<double>(mesh.node_count());
  // Mesh links: 2*R*(R-1) bidirectional channels with repeater/pipeline
  // registers on each direction.
  const auto link_count = 2.0 * (static_cast<double>(mesh.rows()) * (mesh.cols() - 1) +
                                 static_cast<double>(mesh.cols()) * (mesh.rows() - 1));
  const double links = link_count * kFlitBits * 1.0;
  return nodes * (router_area_ge() + network_interface_area_ge()) + links;
}

std::int32_t default_weight_count() {
  // Detector (16x16 mesh, frames 16x15):
  //   Conv2D 4->8, 3x3: 4*8*9 + 8        = 296
  //   Dense (8 * 7 * 6) -> 1: 336 + 1    = 337
  // Localizer:
  //   Conv2D 1->8, 3x3 same: 72 + 8      = 80
  //   Conv2D 8->8, 3x3 same: 576 + 8     = 584
  //   Conv2D 8->1, 3x3 same: 72 + 1      = 73
  return 296 + 337 + 80 + 584 + 73;  // = 1370 scalars for both accelerators
}

double accelerator_area_ge(std::int32_t weight_count) {
  const double macs = static_cast<double>(kConvKernelUnits) * kKernelSize * kKernelSize * kMac16Ge;
  const double weight_sram = static_cast<double>(weight_count) * kWeightBits * kSramGePerBit;
  const double line_buffer = static_cast<double>(kLineBufferPixels) * kPixelBits * kFfGePerBit;
  const double channel_buffer =
      static_cast<double>(kChannelBufferPixels) * kPixelBits * kSramGePerBit;
  const double post_units = static_cast<double>(kConvKernelUnits) * kPostUnitGe;

  const double datapath = macs + weight_sram + line_buffer + channel_buffer + post_units;
  return datapath * (1.0 + kControlOverhead);
}

double overhead_percent(const MeshShape& mesh) {
  return accelerator_area_ge() / noc_area_ge(mesh) * 100.0;
}

}  // namespace dl2f::hw
