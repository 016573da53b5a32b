// Feature-type selection shared by detector and localizer (§4): VCO is
// float-natured and used raw; BOC is integer-natured and must be
// normalized before model inference.
#pragma once

#include <cstdint>

namespace dl2f::core {

enum class Feature : std::uint8_t { Vco, Boc };

}  // namespace dl2f::core
