// Fixture: planted env-knob violation (an unannotated environment read).
#pragma once

#include <cstdlib>

namespace low {

inline const char* knob() {
    return std::getenv("LOW_KNOB");
}

}  // namespace low
