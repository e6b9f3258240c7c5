// Helpers shared by the uocqa command-line front ends (uocqa_cli.cc's
// --batch path and uocqa_serve.cc): strict numeric flag parsing and the
// batch response/stats epilogue, kept in one place so the two binaries
// cannot drift.

#ifndef UOCQA_TOOLS_CLI_UTIL_H_
#define UOCQA_TOOLS_CLI_UTIL_H_

#include <cstdio>
#include <vector>

#include "service/request.h"
#include "service/service.h"

namespace uocqa {

/// Strict size-flag parse (shared grammar with the request protocol);
/// prints the error and fails on `-1`, junk, or out-of-range input.
inline bool SizeFlag(const char* flag, const char* text, size_t* out) {
  Status st = ParseSizeField(flag, text, out);
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return st.ok();
}

/// Upper bound on --threads: a pool of n lanes starts n - 1 OS threads.
inline constexpr size_t kMaxThreadsFlag = 256;

/// --threads parse: SizeFlag's grammar, and at most kMaxThreadsFlag, so a
/// bad value is a usage error before any thread starts.
inline bool ThreadsFlag(const char* text, size_t* out) {
  if (!SizeFlag("--threads", text, out)) return false;
  if (*out <= kMaxThreadsFlag) return true;
  std::fprintf(stderr, "--threads must be at most %zu\n", kMaxThreadsFlag);
  return false;
}

/// One result line per response on stdout, in request order, numbering from
/// `first_id`. Split out of PrintBatchResponses so uocqa_serve's chunked
/// --metrics-every path can keep response ids continuous across chunks.
inline void PrintResponseLines(const std::vector<ServiceResponse>& responses,
                               size_t first_id = 1) {
  for (size_t i = 0; i < responses.size(); ++i) {
    std::printf("%s\n", FormatResponseLine(first_id + i, responses[i]).c_str());
  }
}

/// The `served=N <cache stats>` summary on stderr (what the smoke tests
/// grep), emitted once per run after all responses have been printed.
inline void PrintServedSummary(const QueryService& service, size_t served) {
  std::fprintf(stderr, "served=%zu %s\n", served,
               service.stats().ToString().c_str());
}

/// One result line per response on stdout, in request order, then the
/// `served=N <cache stats>` summary on stderr.
inline void PrintBatchResponses(const QueryService& service,
                                const std::vector<ServiceResponse>& responses) {
  PrintResponseLines(responses);
  PrintServedSummary(service, responses.size());
}

}  // namespace uocqa

#endif  // UOCQA_TOOLS_CLI_UTIL_H_
