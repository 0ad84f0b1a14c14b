#include "common/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <type_traits>

#include "common/text.hpp"

namespace dfsim {

namespace {

void warn(const char* name, const char* raw, const char* why) {
  std::fprintf(stderr, "dfsim: ignoring %s=\"%s\" (%s)\n", name, raw, why);
}

}  // namespace

template <class T>
T env_number(const char* name, T fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (const std::optional<T> value = parse_number<T>(trim(raw))) return *value;
  warn(name, raw,
       std::is_floating_point_v<T> ? "not a number"
       : std::is_signed_v<T>       ? "not an integer in range"
                                   : "not a non-negative integer in range");
  return fallback;
}
template int env_number(const char*, int);
template std::uint64_t env_number(const char*, std::uint64_t);
template double env_number(const char*, double);

bool env_flag(const char* name) {
  const std::string v = env_str(name, "");
  return !(v.empty() || v == "0" || v == "false" || v == "FALSE");
}

int env_jobs() {
  const int jobs = env_number("DF_JOBS", 0);
  if (jobs >= 0) return jobs;
  warn("DF_JOBS", std::getenv("DF_JOBS"),
       "worker counts must be positive; using auto");
  return 0;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::string(raw);
}

}  // namespace dfsim
