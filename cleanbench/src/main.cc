// cleanbench: the clean-answer benchmark.
//
//   cleanbench --workload <fig8_clean|served_mix|dirty_writes|cold_scan>
//              [--seed N] [--data-seed N] [--seconds S] [--trace 0|1]
//              [--data-dir DIR]
//              [--digests FILE] [--record-digests] [--git-sha SHA]
//
// Prints a `# run {...}` header line, `# ...` notes, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer metrics. Normally
// started through run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.h"

#ifndef CLEANBENCH_BUILD_TYPE
#define CLEANBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define CLEANBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLEANBENCH_SANITIZED 1
#endif

/// Timings from an unoptimised or instrumented build mean nothing; the
/// benchmark refuses to run from one.
const char* BuildProblem() {
#if defined(CLEANBENCH_SANITIZED)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimised build (no -O flag)";
#elif !defined(NDEBUG)
  return "debug assertions enabled (NDEBUG unset)";
#else
  return nullptr;
#endif
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "cleanbench: %s\nusage: cleanbench --workload NAME [--seed N] "
               "[--data-seed N] [--seconds S] [--trace 0|1] [--data-dir DIR] "
               "[--digests FILE] [--record-digests] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cleanbench;
  RunOptions o;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--data-seed") {
      o.data_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--data-dir") {
      o.data_dir = value();
    } else if (a == "--digests") {
      o.digests_path = value();
    } else if (a == "--record-digests") {
      o.record_digests = true;
    } else if (a == "--git-sha") {
      git_sha = value();
    } else {
      Usage(("unknown argument " + std::string(a)).c_str());
    }
  }
  bool known = false;
  for (const std::string& n : WorkloadNames()) known = known || n == o.workload;
  if (!known) Usage("unknown or missing --workload");
  if (!(o.seconds > 0 && o.seconds <= 600)) Usage("--seconds out of range");
  if (const char* problem = BuildProblem()) {
    std::fprintf(stderr, "cleanbench: refusing to measure a %s\n", problem);
    return 3;
  }
  if (o.data_dir.empty()) o.data_dir = ".";
  std::error_code ec;
  std::filesystem::create_directories(o.data_dir, ec);

  RunResult r = RunWorkload(o);

  std::string header = "{\"git_sha\": " + JsonString(git_sha) +
                       ", \"compiler\": " + JsonString(__VERSION__) +
                       ", \"build_type\": " + JsonString(CLEANBENCH_BUILD_TYPE) +
                       ", \"hardware_threads\": " +
                       std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, json] : r.header) {
    header += ", " + JsonString(key) + ": " + json;
  }
  header += "}";
  std::printf("# run %s\n", header.c_str());
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "cleanbench: %s\n", p.c_str());
  }
  if (r.metrics.empty()) {
    std::fprintf(stderr, "cleanbench: no result (set-up failed)\n");
    return 1;
  }
  std::printf("%s\n",
              ResultJson(r.correct, r.attempted, r.failed, r.metrics).c_str());
  return 0;
}
