// perfbench: runs one workload of the repository benchmark and prints its
// metrics, then one JSON result line.
//
//   perfbench --workload <fpras|exact_mc|live> --seed <n> --seconds <s>
//             --trace <0|1> --work-dir <dir>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run replays the same requests through the decomposed public calls
// and the result carries the per-layer metrics instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fpras|exact_mc|live> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (opt.work_dir.empty()) return Usage("--work-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return Usage(("cannot create " + opt.work_dir).c_str());

  perfbench::RunResult result;
  try {
    if (opt.workload == "fpras") {
      result = perfbench::RunFpras(opt);
    } else if (opt.workload == "exact_mc") {
      result = perfbench::RunExactMc(opt);
    } else if (opt.workload == "live") {
      result = perfbench::RunLive(opt);
    } else {
      return Usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  result.Print();
  return 0;
}
