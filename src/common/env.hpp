// Helpers for reading tuning knobs from the environment. Benchmarks use
// these so that `build/bench/figXX` runs at laptop scale by default and at
// paper scale with DF_FULL=1 (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>

namespace dfsim {

/// Env var `name` as a T, or `fallback` when unset or empty. Blanks
/// around the value are ignored. A value that is not a whole T in range
/// ("3x", "-5" for an unsigned T, "1e999") keeps `fallback`, with a
/// warning on stderr, rather than being cut to a numeric prefix or
/// wrapped. Defined for int, std::uint64_t and double.
template <class T>
T env_number(const char* name, T fallback);

/// Boolean flag: set and not "0"/"false"/"" -> true.
bool env_flag(const char* name);

/// String env var, or `fallback` when unset.
std::string env_str(const char* name, const std::string& fallback);

/// Worker-count knob DF_JOBS: a positive integer, or 0 (meaning "auto",
/// i.e. hardware concurrency) when unset, zero, or unparsable. Negative
/// and oversized values fall back to auto WITH a stderr warning instead
/// of being coerced silently.
int env_jobs();

}  // namespace dfsim
