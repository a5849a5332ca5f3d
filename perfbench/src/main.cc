// End-to-end benchmark program; see ../README.md. Usually started through
// ../run.py, which builds this program first.

#include <exception>
#include <iostream>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opt = perfbench::ParseOptions(argc, argv);
  try {
    return perfbench::RunWorkload(opt);
  } catch (const std::exception& e) {
    perfbench::Fail(e.what());
  }
}
