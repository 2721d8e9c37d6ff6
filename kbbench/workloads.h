// The three workloads of the benchmark. Each runs one seeded workload for
// the requested time, checks every answer, and prints its report; the
// return value is the process exit code.

#ifndef KBBENCH_WORKLOADS_H_
#define KBBENCH_WORKLOADS_H_

#include "common.h"

namespace kbbench {

int RunSerialRw(const Args& args);
int RunSharedRead(const Args& args);
int RunClosure(const Args& args);

}  // namespace kbbench

#endif  // KBBENCH_WORKLOADS_H_
