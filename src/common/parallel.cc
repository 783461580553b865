#include "common/parallel.h"

#include <cstdlib>
#include <thread>

namespace edgeshed {

int DefaultThreadCount() {
  // Re-read the environment on every call (a getenv is cheap next to a
  // parallel region) so tests and long-lived services can change
  // EDGESHED_THREADS at runtime.
  const char* env = std::getenv("EDGESHED_THREADS");
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace edgeshed
