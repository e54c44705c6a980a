/**
 * @file
 * Entry point of the benchmark workloads (see workloads.cc).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

/** Run @p cfg.workload; unknown names yield an incorrect report. */
Report runWorkload(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
