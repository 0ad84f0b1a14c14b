// Fundamental identifier and time types shared by every module.
#pragma once

#include <cstdint>

namespace dfsim {

/// Simulation time, in router cycles.
using Cycle = std::uint64_t;

/// Identifiers are plain 32-bit ints; -1 (kInvalid) means "none".
using NodeId = std::int32_t;    ///< terminal (computing server)
using RouterId = std::int32_t;  ///< router, global numbering
using GroupId = std::int32_t;   ///< supernode
using PortId = std::int32_t;    ///< router port, per-router numbering
using VcId = std::int32_t;      ///< virtual channel index within a port
using PacketId = std::int32_t;  ///< slot in the packet pool
using LinkId = std::int32_t;    ///< (router, output port) or terminal link

inline constexpr std::int32_t kInvalid = -1;

/// Link-level flow control discipline (paper Section I).
enum class FlowControl : std::uint8_t {
  kVirtualCutThrough,  ///< whole-packet units, credit >= packet size
  kWormhole,           ///< flit units, per-packet output-VC allocation
};

/// Port classes of a dragonfly router (h injection/ejection, 2h-1 local,
/// h global ports; paper Section I).
enum class PortClass : std::uint8_t { kLocal, kGlobal, kTerminal };

}  // namespace dfsim
