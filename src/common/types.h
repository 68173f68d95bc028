// Fundamental identifiers and sizes shared by every subsystem.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fm {

/// Identifies a node (workstation) in the cluster. Nodes are numbered
/// densely from zero; the value doubles as the switch port a node's NIC
/// is cabled to in single-switch topologies.
using NodeId = std::uint32_t;

/// Identifies a registered message handler. Handlers are registered
/// identically on every node (SPMD style, mirroring how FM 1.0 shipped raw
/// function pointers between identical binaries) and referenced by index so
/// that the id is meaningful on the wire.
using HandlerId = std::uint16_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Sentinel for "no handler".
inline constexpr HandlerId kInvalidHandler = 0xffffu;

/// Handler id 0, reserved for internal control frames: a zero-length data
/// frame on it is an FM-R liveness probe (fm::Engine::probe).
inline constexpr HandlerId kProbeHandler = 0;

/// FM 1.0 frame size (bytes of payload per network frame). Section 5 of the
/// paper: "Based on these considerations, we chose a 128-byte frame size for
/// FM 1.0. Larger messages will require segmentation and reassembly into
/// frames of this size."
inline constexpr std::size_t kFmFramePayload = 128;

/// FM_send_4 always carries exactly four 32-bit words.
inline constexpr std::size_t kFmSend4Bytes = 16;

}  // namespace fm
