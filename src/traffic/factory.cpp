#include "traffic/factory.hpp"

#include <cctype>
#include <stdexcept>

#include "common/text.hpp"
#include "traffic/pattern.hpp"

namespace dfsim {

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("traffic spec \"" + spec + "\": " + why);
}

/// Parse "+N" / "-N" offset args (empty = default +1). Anything else —
/// including trailing garbage — is rejected with the key's help string.
int parse_offset(const std::string& args, const std::string& spec,
                 const char* help) {
  if (args.empty()) return 1;
  const std::optional<SignedPrefix> offset = parse_signed_prefix(args);
  if (!offset) bad_spec(spec, std::string("expected ") + help);
  if (!offset->rest.empty()) {
    bad_spec(spec, "trailing characters \"" + std::string(offset->rest) +
                       "\" after the offset");
  }
  return offset->value;
}

double parse_fraction(const std::string& text, const std::string& spec,
                      const char* what) {
  const std::optional<double> value = parse_number<double>(text);
  if (!value) {
    bad_spec(spec, std::string(what) + " \"" + text + "\" is not a number");
  }
  return *value;
}

std::unique_ptr<TrafficPattern> build_single(const DragonflyTopology* topo,
                                             const std::string& single,
                                             const std::string& spec,
                                             bool inside_mix);

// --- registry builders ---------------------------------------------------

std::unique_ptr<TrafficPattern> build_uniform(const DragonflyTopology* topo,
                                              const std::string& args,
                                              const std::string& spec) {
  if (!args.empty()) bad_spec(spec, "\"un\" takes no arguments");
  if (topo == nullptr) return nullptr;
  return std::make_unique<UniformPattern>(*topo);
}

std::unique_ptr<TrafficPattern> build_advg(const DragonflyTopology* topo,
                                           const std::string& args,
                                           const std::string& spec) {
  const int offset = parse_offset(args, spec, "advg+<N> or advg-<N>");
  if (topo == nullptr) return nullptr;
  return std::make_unique<AdversarialGlobalPattern>(*topo, offset);
}

std::unique_ptr<TrafficPattern> build_advl(const DragonflyTopology* topo,
                                           const std::string& args,
                                           const std::string& spec) {
  const int offset = parse_offset(args, spec, "advl+<N> or advl-<N>");
  if (topo == nullptr) return nullptr;
  return std::make_unique<AdversarialLocalPattern>(*topo, offset);
}

std::unique_ptr<TrafficPattern> build_shift(const DragonflyTopology* topo,
                                            const std::string& args,
                                            const std::string& spec) {
  const int offset = parse_offset(args, spec, "shift+<N> or shift-<N>");
  if (topo == nullptr) return nullptr;
  const int g = topo->num_groups();
  const int norm = ((offset % g) + g) % g;
  if (norm == 0) {
    bad_spec(spec, "shift offset " + std::to_string(offset) +
                       " is 0 mod g = " + std::to_string(g) +
                       ", which would make every terminal send to itself");
  }
  return std::make_unique<ShiftPattern>(*topo, norm);
}

std::unique_ptr<TrafficPattern> build_hotspot(const DragonflyTopology* topo,
                                              const std::string& args,
                                              const std::string& spec) {
  if (args.empty() || args[0] != ':') {
    bad_spec(spec,
             "expected hotspot:<fraction>[@<group>], e.g. hotspot:0.2@7");
  }
  const std::string body = args.substr(1);
  const std::size_t at = body.find('@');
  const std::string frac_text = body.substr(0, at);
  if (frac_text.empty()) bad_spec(spec, "hotspot fraction is missing");
  const double fraction = parse_fraction(frac_text, spec, "hotspot fraction");
  if (!(fraction > 0.0) || fraction > 1.0) {
    bad_spec(spec, "hotspot fraction must be in (0, 1], got " + frac_text);
  }
  int group = 0;
  if (at != std::string::npos) {
    const std::string group_text = body.substr(at + 1);
    if (group_text.empty() ||
        group_text.find_first_not_of("0123456789") != std::string::npos) {
      bad_spec(spec, "hotspot group \"" + group_text +
                         "\" is not a non-negative integer");
    }
    const std::optional<int> parsed = parse_number<int>(group_text);
    if (!parsed) {
      bad_spec(spec, "hotspot group \"" + group_text + "\" is out of range");
    }
    group = *parsed;
  }
  if (topo == nullptr) return nullptr;
  try {
    return std::make_unique<HotspotPattern>(*topo, fraction, group);
  } catch (const std::invalid_argument& e) {
    bad_spec(spec, e.what());
  }
}

template <BitPermutationPattern::Kind kKind>
std::unique_ptr<TrafficPattern> build_bitperm(const DragonflyTopology* topo,
                                              const std::string& args,
                                              const std::string& spec) {
  if (!args.empty()) {
    bad_spec(spec, "bit-permutation patterns take no arguments");
  }
  if (topo == nullptr) return nullptr;
  return std::make_unique<BitPermutationPattern>(*topo, kKind);
}

std::unique_ptr<TrafficPattern> build_mixed(const DragonflyTopology* topo,
                                            const std::string& args,
                                            const std::string& spec) {
  double fraction = 0.5;
  if (!args.empty()) {
    if (args[0] != ':') bad_spec(spec, "expected mixed[:<global-fraction>]");
    fraction = parse_fraction(args.substr(1), spec, "mixed global fraction");
    if (fraction < 0.0 || fraction > 1.0) {
      bad_spec(spec, "mixed global fraction must be in [0, 1]");
    }
  }
  if (topo == nullptr) return nullptr;
  return std::make_unique<MixedAdversarialPattern>(*topo, fraction);
}

std::unique_ptr<TrafficPattern> build_mix(const DragonflyTopology* topo,
                                          const std::string& args,
                                          const std::string& spec) {
  if (args.empty() || args[0] != ':' || args.size() < 2) {
    bad_spec(spec,
             "expected mix:<spec>=<weight>[,<spec>=<weight>...], e.g. "
             "mix:un=0.7,advg+1=0.3");
  }
  std::vector<WeightedMixPattern::Component> components;
  for (const std::string& comp : split(args.substr(1), ',')) {
    // Split at the LAST '=' so component specs may themselves contain
    // '='-free arguments of any shape.
    const std::size_t eq = comp.rfind('=');
    if (comp.empty() || eq == std::string::npos || eq == 0 ||
        eq + 1 == comp.size()) {
      bad_spec(spec, "mix component \"" + comp +
                         "\" is not of the form <spec>=<weight>");
    }
    const double weight =
        parse_fraction(comp.substr(eq + 1), spec, "mix weight");
    if (!(weight > 0.0)) {
      bad_spec(spec, "mix weight in \"" + comp + "\" must be positive");
    }
    auto pattern = build_single(topo, comp.substr(0, eq), spec,
                                /*inside_mix=*/true);
    if (topo != nullptr) {
      components.push_back({std::move(pattern), weight});
    }
  }
  if (topo == nullptr) return nullptr;
  return std::make_unique<WeightedMixPattern>(std::move(components));
}

// -------------------------------------------------------------------------

std::unique_ptr<TrafficPattern> build_single(const DragonflyTopology* topo,
                                             const std::string& single,
                                             const std::string& spec,
                                             bool inside_mix) {
  const std::string low = lower(single);
  std::size_t key_len = 0;
  while (key_len < low.size() &&
         std::isalpha(static_cast<unsigned char>(low[key_len]))) {
    ++key_len;
  }
  const std::string key = low.substr(0, key_len);
  const std::string args = low.substr(key_len);
  if (key.empty()) {
    bad_spec(spec, "pattern name missing in \"" + single + "\" (known: " +
                       traffic_pattern_names() + ")");
  }
  for (const TrafficPatternEntry& entry : traffic_pattern_registry()) {
    if (key != entry.key && key != entry.alias) continue;
    if (inside_mix && entry.build == &build_mix) {
      bad_spec(spec, "mix components cannot be mixes themselves");
    }
    return entry.build(topo, args, spec);
  }
  bad_spec(spec, "unknown pattern \"" + key + "\" (known: " +
                     traffic_pattern_names() + ")");
}

}  // namespace

const std::vector<TrafficPatternEntry>& traffic_pattern_registry() {
  static const std::vector<TrafficPatternEntry> kRegistry = {
      {"un", "uniform", "un", &build_uniform},
      {"advg", "", "advg[+N|-N]", &build_advg},
      {"advl", "", "advl[+N|-N]", &build_advl},
      {"shift", "", "shift[+N|-N]", &build_shift},
      {"hotspot", "hot", "hotspot:<frac>[@<group>]", &build_hotspot},
      {"shuffle", "", "shuffle",
       &build_bitperm<BitPermutationPattern::Kind::kShuffle>},
      {"transpose", "", "transpose",
       &build_bitperm<BitPermutationPattern::Kind::kTranspose>},
      {"bitcomp", "", "bitcomp",
       &build_bitperm<BitPermutationPattern::Kind::kComplement>},
      {"bitrev", "", "bitrev",
       &build_bitperm<BitPermutationPattern::Kind::kReverse>},
      {"mixed", "", "mixed[:<global-frac>]", &build_mixed},
      {"mix", "", "mix:<spec>=<w>,...", &build_mix},
  };
  return kRegistry;
}

std::string traffic_pattern_names() {
  std::string names;
  for (const TrafficPatternEntry& entry : traffic_pattern_registry()) {
    if (!names.empty()) names += ", ";
    names += entry.key;
  }
  return names;
}

std::unique_ptr<TrafficPattern> make_pattern_spec(
    const DragonflyTopology& topo, const std::string& spec) {
  if (spec.empty()) {
    bad_spec(spec, "empty (known patterns: " + traffic_pattern_names() + ")");
  }
  return build_single(&topo, spec, spec, /*inside_mix=*/false);
}

void validate_pattern_spec(const std::string& spec) {
  // The historical four-argument names route through make_pattern's
  // legacy branches, whose extra parameters (offset, global fraction)
  // live outside the spec string — accept them as-is.
  static const char* kLegacy[] = {"uniform", "UN",   "shift", "SHIFT",
                                  "hotspot", "HOT",  "advg",  "ADVG",
                                  "advl",    "ADVL", "mixed", "MIX"};
  for (const char* name : kLegacy) {
    if (spec == name) return;
  }
  if (spec.empty()) {
    bad_spec(spec, "empty (known patterns: " + traffic_pattern_names() + ")");
  }
  build_single(nullptr, spec, spec, /*inside_mix=*/false);
}

}  // namespace dfsim
