#include "common/text.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dfsim {

std::optional<SignedPrefix> parse_signed_prefix(std::string_view text) {
  if (text.size() < 2 || (text[0] != '+' && text[0] != '-') ||
      !std::isdigit(static_cast<unsigned char>(text[1]))) {
    return std::nullopt;
  }
  // from_chars takes a '-' but not a '+'.
  const char* first = text.data() + (text[0] == '+' ? 1 : 0);
  const char* end = text.data() + text.size();
  SignedPrefix out;
  const auto [ptr, ec] = std::from_chars(first, end, out.value);
  if (ec != std::errc()) return std::nullopt;
  out.rest = text.substr(static_cast<std::size_t>(ptr - text.data()));
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (std::size_t end; (end = s.find(sep)) != std::string_view::npos;) {
    out.emplace_back(s.substr(0, end));
    s.remove_prefix(end + 1);
  }
  out.emplace_back(s);
  return out;
}

std::string trim(std::string_view s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return "";
  return std::string(s.substr(b, s.find_last_not_of(" \t\r") - b + 1));
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string fmt_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void for_each_setting(
    const std::string& text, const char* what,
    const std::function<void(const std::string&, const std::string&)>& set) {
  std::istringstream is(text);
  std::string line;
  for (int line_no = 1; std::getline(is, line); ++line_no) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument(std::string(what) + " line " +
                                  std::to_string(line_no) + ": " + why);
    };
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      fail("expected key = value, got \"" + t + "\"");
    }
    try {
      set(trim(t.substr(0, eq)), trim(t.substr(eq + 1)));
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }
}

std::optional<LineDifference> first_line_difference(const std::string& a,
                                                    const std::string& b) {
  std::istringstream sa(a), sb(b);
  LineDifference d;
  while (true) {
    ++d.line;
    const bool ha = static_cast<bool>(std::getline(sa, d.a));
    const bool hb = static_cast<bool>(std::getline(sb, d.b));
    if (!ha && !hb) return std::nullopt;
    if (ha != hb || d.a != d.b) {
      if (!ha) d.a = "<missing>";
      if (!hb) d.b = "<missing>";
      return d;
    }
  }
}

}  // namespace dfsim
