// The benchmark's three workloads. Each runs in its own process and prints
// the contract's result line; the return value is the process exit code.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "harness.h"

namespace e2ebench {

int RunSatCount(const Options& options);
int RunInferenceBatch(const Options& options);
int RunServedTriples(const Options& options);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
