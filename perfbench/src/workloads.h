#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Runs the workload `opt.workload` names (paper-mix, lubm-param or
/// snapshot-batch) and prints its report. Returns the process exit code;
/// a wrong answer exits from inside with code 3 and no result line.
int RunWorkload(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
