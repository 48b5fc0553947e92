// Small environment-variable helpers.
//
// Test suites use EnvInt to pick up their client-thread counts (the CI
// matrix re-runs ctest with PB_TEST_THREADS=1 and PB_TEST_THREADS=$(nproc),
// so the concurrency suites run at both without rebuilding).

#ifndef PB_COMMON_ENV_H_
#define PB_COMMON_ENV_H_

#include <cstdint>

namespace pb {

/// The value of environment variable `name` parsed as a base-10 integer;
/// `fallback` when the variable is unset, empty, or not a number.
int EnvInt(const char* name, int fallback);

/// Like EnvInt but 64-bit, for byte budgets (PB_BLOCK_CACHE_BYTES).
int64_t EnvInt64(const char* name, int64_t fallback);

}  // namespace pb

#endif  // PB_COMMON_ENV_H_
