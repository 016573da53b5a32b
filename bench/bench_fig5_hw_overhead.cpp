// Figure 5: DL2Fence hardware overhead shrinking with NoC size.
//
// The two CNN accelerators are a fixed-size global block while the NoC
// area grows with the node count, so overhead falls ~4x per mesh-dimension
// doubling. Expected points (paper): 7.40% / 1.90% / 0.45% / 0.11% at
// 4x4 / 8x8 / 16x16 / 32x32, a 76.3% drop from 8x8 to 16x16.
#include <iostream>

#include "common/table.hpp"
#include "hw/area_model.hpp"

int main() {
  using namespace dl2f;
  std::cout << "Figure 5: hardware overhead vs NoC size\n\n";
  std::cout << "Area model (NAND2 gate equivalents):\n"
            << "  router          : " << TextTable::cell(hw::router_area_ge(), 0) << " GE\n"
            << "  network iface   : " << TextTable::cell(hw::network_interface_area_ge(), 0)
            << " GE\n"
            << "  CNN accelerators: " << TextTable::cell(hw::accelerator_area_ge(), 0)
            << " GE (" << hw::default_weight_count() << " weights, "
            << hw::kConvKernelUnits << " pipelined 3x3 kernel engines)\n\n";

  TextTable table({"NoC Size", "NoC Area (GE)", "Overhead", "Paper"});
  const double paper[] = {7.40, 1.90, 0.45, 0.11};
  int i = 0;
  double o8 = 0.0, o16 = 0.0;
  for (const std::int32_t r : {4, 8, 16, 32}) {
    const auto mesh = MeshShape::square(r);
    const double overhead = hw::overhead_percent(mesh);
    table.add_row({std::to_string(r) + "x" + std::to_string(r),
                   TextTable::cell(hw::noc_area_ge(mesh), 0),
                   TextTable::cell(overhead, 2) + "%", TextTable::cell(paper[i], 2) + "%"});
    if (r == 8) o8 = overhead;
    if (r == 16) o16 = overhead;
    ++i;
  }
  std::cout << table << "\n";
  std::cout << "Overhead decrease from 8x8 to 16x16: "
            << TextTable::cell((o8 - o16) / o8 * 100.0, 1) << "% (paper: 76.3%)\n";
  std::cout << "vs Sniffer [2] at 8x8 (3.3%): " << TextTable::cell(o8, 2) << "% is "
            << TextTable::cell((hw::kSnifferOverheadPercent - o8) /
                                   hw::kSnifferOverheadPercent * 100.0,
                               1)
            << "% less hardware (paper: 42.4%)\n";
  return 0;
}
