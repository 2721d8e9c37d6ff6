// kbbench: the knowledge-base engine's benchmark program.
//
//   kbbench --workload serial_rw|shared_read|closure --seed N
//           --seconds S --trace 0|1 [--work DIR]
//
// Prints every metric by name with its unit, then one JSON result line.
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer split and writes a Chrome trace of the
// benchmark's own spans under DIR. Scratch files live under DIR
// (default .bench_work).

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace kbbench {

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: kbbench --workload serial_rw|shared_read|closure "
               "--seed N --seconds S --trace 0|1 [--work DIR]\n");
  std::exit(2);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work") {
      args.work_dir = value;
    } else {
      Usage();
    }
  }
  if (!(args.seconds > 0)) Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Die("cannot create %s", args.work_dir.c_str());
  if (args.workload == "serial_rw") return RunSerialRw(args);
  if (args.workload == "shared_read") return RunSharedRead(args);
  if (args.workload == "closure") return RunClosure(args);
  Usage();
}

}  // namespace
}  // namespace kbbench

int main(int argc, char** argv) { return kbbench::Main(argc, argv); }
