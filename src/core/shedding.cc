#include "core/shedding.h"

#include <cmath>

#include "common/strings.h"

namespace edgeshed::core {

Status ValidatePreservationRatio(double p) {
  if (std::isnan(p)) {
    return Status::InvalidArgument(
        "edge preservation ratio must be in (0,1), got NaN");
  }
  if (!(p > 0.0) || !(p < 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "edge preservation ratio must be in (0,1), got %g", p));
  }
  return Status::OK();
}

uint64_t TargetEdgeCount(uint64_t num_edges, double p) {
  const auto target =
      static_cast<uint64_t>(std::llround(p * static_cast<double>(num_edges)));
  // A valid p on a non-empty graph always keeps at least one edge; rounding
  // p·|E| < 0.5 down to an empty E' would make every shedder degenerate.
  if (target == 0 && num_edges > 0) return 1;
  return target;
}

}  // namespace edgeshed::core
