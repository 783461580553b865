#ifndef EDGESHED_CORE_SHEDDER_FACTORY_H_
#define EDGESHED_CORE_SHEDDER_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/shedding.h"

namespace edgeshed::core {

/// Constructs the shedder registered under `method` ("crr", "bm2", "random",
/// "local-degree", "spanning-forest") with its default options and the given
/// seed. InvalidArgument for unknown names. Shared by the CLI and the
/// service layer so method dispatch lives in one place.
StatusOr<std::unique_ptr<EdgeShedder>> MakeShedderByName(
    const std::string& method, uint64_t seed);

/// Names accepted by MakeShedderByName, sorted.
std::vector<std::string> KnownShedderNames();

/// Degradation cost ladder, priciest first: crr -> bm2 -> local-degree ->
/// random. Under load the serving layer steps a request down this ladder
/// instead of rejecting it (Slim Graph's "cheaper compression profile"
/// escape hatch). spanning-forest is not on the ladder and never degrades —
/// it is an explicit structure choice.
const std::vector<std::string>& ShedderCostLadder();

/// Position of `method` on the cost ladder (0 = priciest), or -1 when the
/// method is not on the ladder.
int ShedderCostTier(const std::string& method);

/// `method` stepped `steps` tiers down the cost ladder, clamped at the
/// cheapest tier. Returns `method` unchanged when it is not on the ladder
/// or `steps <= 0`.
std::string DegradeShedderMethod(const std::string& method, int steps);

}  // namespace edgeshed::core

#endif  // EDGESHED_CORE_SHEDDER_FACTORY_H_
