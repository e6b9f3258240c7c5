// Build identity: version string, runtime-selected SIMD backend, FPRAS
// seed schema. One definition feeds the `version` service verb, the
// `--version` flag on both front ends, and the serve startup banner, so
// they can never disagree about what binary is running.

#ifndef UOCQA_BASE_VERSION_H_
#define UOCQA_BASE_VERSION_H_

#include <string>

namespace uocqa {

/// The FPRAS seed schema: the version of the one RNG-consumption layout
/// (one Rng::Stream per KLM trial, keyed by the global trial index).
/// FprasConfig and the request parser take this as a version tag that must
/// equal it, and the `version` verb reports it.
inline constexpr int kDefaultSeedSchema = 2;

/// The bare semantic version, e.g. "0.1.0" (from the CMake project
/// version; "unknown" if the build did not inject one).
std::string VersionString();

/// Protocol-payload form: `version=<v> simd=<backend> seed_schema=<n>`.
/// The SIMD backend is the one `simd::Active()` selected at startup —
/// reported here because it is otherwise chosen silently.
std::string VersionFields();

/// Human-oriented one-line banner for startup logs, e.g.
/// `uocqa 0.1.0 (simd=avx2, seed_schema=2)`.
std::string VersionBanner();

}  // namespace uocqa

#endif  // UOCQA_BASE_VERSION_H_
