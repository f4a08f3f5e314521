// conquer_fuzz: seeded differential fuzzer for the clean-answer engine.
//
//   conquer_fuzz --iterations=500 --seed=42          # fuzzing campaign
//   conquer_fuzz --replay=tests/fuzz/corpus          # replay the corpus
//   conquer_fuzz --inject_bug=prob_bias ...          # harness self-test
//
// Exit codes: 0 = clean, 1 = oracle violations, 2 = usage/infrastructure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"

namespace {

using conquer::Result;
using conquer::fuzz::FuzzCase;
using conquer::fuzz::FuzzOptions;
using conquer::fuzz::FuzzSummary;
using conquer::fuzz::OracleReport;

constexpr char kUsage[] =
    "usage: conquer_fuzz [options]\n"
    "  --iterations=N     generated cases to run (default 100)\n"
    "  --seed=S           campaign seed; case seeds derive from it "
    "(default 1)\n"
    "  --out=DIR          write shrunk reproducers (.case) into DIR\n"
    "  --replay=PATH      replay a .case file, or every .case in a "
    "directory,\n"
    "                     instead of generating cases\n"
    "  --inject_bug=NAME  none|prob_bias|drop_answer|parallel_skew|\n"
    "                     renorm_skip|match_skip (self-test: the injected\n"
    "                     bug must be caught by an oracle)\n"
    "  --max_candidates=N naive-oracle candidate cap (default 4096)\n"
    "  --dump             print every generated case on stdout\n"
    "  --fail-fast        stop at the first violation\n"
    "  --verbose          per-case progress on stderr\n";

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int ReplayPath(const std::string& path, const FuzzOptions& options) {
  std::vector<std::string> files;
  if (std::filesystem::is_directory(path)) {
    files = conquer::fuzz::ListCaseFiles(path);
    if (files.empty()) {
      std::fprintf(stderr, "conquer_fuzz: no .case files in %s\n",
                   path.c_str());
      return 0;
    }
  } else {
    files.push_back(path);
  }

  int violations = 0;
  for (const std::string& file : files) {
    Result<FuzzCase> loaded = conquer::fuzz::LoadCaseFile(file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "conquer_fuzz: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    Result<OracleReport> report =
        conquer::fuzz::ReplayCase(*loaded, options.oracle);
    if (!report.ok()) {
      std::fprintf(stderr, "conquer_fuzz: %s: %s\n", file.c_str(),
                   report.status().ToString().c_str());
      return 2;
    }
    if (report->ok()) {
      std::fprintf(stderr, "[replay] OK       %s (%zu answers%s)\n",
                   file.c_str(), report->num_answers,
                   report->naive_checked ? ", naive-checked" : "");
    } else {
      ++violations;
      std::fprintf(stderr, "[replay] VIOLATION %s: [%s] %s\n", file.c_str(),
                   conquer::fuzz::ViolationKindToString(report->kind),
                   report->violation.c_str());
      if (options.fail_fast) break;
    }
  }
  std::fprintf(stderr, "[replay] %zu case(s), %d violation(s)\n", files.size(),
               violations);
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  std::string replay_path;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--iterations", &value)) {
      options.iterations = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--out", &value)) {
      options.out_dir = value;
    } else if (ParseFlag(arg, "--replay", &value)) {
      replay_path = value;
    } else if (ParseFlag(arg, "--max_candidates", &value)) {
      options.oracle.max_candidates = std::strtoull(value.c_str(), nullptr,
                                                    10);
    } else if (ParseFlag(arg, "--inject_bug", &value)) {
      auto inject = conquer::fuzz::ParseBugInjection(value);
      if (!inject.ok()) {
        std::fprintf(stderr, "conquer_fuzz: %s\n%s",
                     inject.status().ToString().c_str(), kUsage);
        return 2;
      }
      options.oracle.inject = *inject;
    } else if (std::strcmp(arg, "--dump") == 0) {
      options.dump_cases = true;
    } else if (std::strcmp(arg, "--fail-fast") == 0) {
      options.fail_fast = true;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "conquer_fuzz: unknown argument '%s'\n%s", arg,
                   kUsage);
      return 2;
    }
  }

  if (!replay_path.empty()) return ReplayPath(replay_path, options);

  if (options.iterations == 0) {
    std::fprintf(stderr, "conquer_fuzz: --iterations must be positive\n");
    return 2;
  }
  Result<FuzzSummary> summary = conquer::fuzz::RunFuzz(options);
  if (!summary.ok()) {
    std::fprintf(stderr, "conquer_fuzz: %s\n",
                 summary.status().ToString().c_str());
    return 2;
  }
  std::fprintf(stderr,
               "[fuzz] done: %zu cases, %zu rewritable, %zu mutants, "
               "%zu naive-checked, %zu violations\n",
               summary->cases, summary->rewritable, summary->mutants,
               summary->naive_checked, summary->violations);
  return summary->ok() ? 0 : 1;
}
