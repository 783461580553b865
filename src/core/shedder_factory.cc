#include "core/shedder_factory.h"

#include <algorithm>

#include "common/strings.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "core/extra_baselines.h"
#include "core/random_shedding.h"

namespace edgeshed::core {

StatusOr<std::unique_ptr<EdgeShedder>> MakeShedderByName(
    const std::string& method, uint64_t seed) {
  std::unique_ptr<EdgeShedder> shedder;
  if (method == "crr") {
    CrrOptions options;
    options.seed = seed;
    shedder = std::make_unique<Crr>(options);
  } else if (method == "bm2") {
    Bm2Options options;
    options.seed = seed;
    shedder = std::make_unique<Bm2>(options);
  } else if (method == "random") {
    shedder = std::make_unique<RandomShedding>(seed);
  } else if (method == "local-degree") {
    shedder = std::make_unique<LocalDegreeShedding>();
  } else if (method == "spanning-forest") {
    shedder = std::make_unique<SpanningForestShedding>(seed);
  } else {
    return Status::InvalidArgument(StrFormat(
        "unknown shedding method '%s' (known: %s)", method.c_str(),
        StrJoin(KnownShedderNames(), ", ").c_str()));
  }
  return shedder;
}

std::vector<std::string> KnownShedderNames() {
  return {"bm2", "crr", "local-degree", "random", "spanning-forest"};
}

const std::vector<std::string>& ShedderCostLadder() {
  static const std::vector<std::string> ladder = {"crr", "bm2", "local-degree",
                                                  "random"};
  return ladder;
}

int ShedderCostTier(const std::string& method) {
  const std::vector<std::string>& ladder = ShedderCostLadder();
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] == method) return static_cast<int>(i);
  }
  return -1;
}

std::string DegradeShedderMethod(const std::string& method, int steps) {
  const int tier = ShedderCostTier(method);
  if (tier < 0 || steps <= 0) return method;
  const std::vector<std::string>& ladder = ShedderCostLadder();
  const size_t target = std::min(ladder.size() - 1,
                                 static_cast<size_t>(tier) +
                                     static_cast<size_t>(steps));
  return ladder[target];
}

}  // namespace edgeshed::core
