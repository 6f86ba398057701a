// Packet: the unit that flows through queues and pipes.
//
// Packets are value types moved hop-to-hop (no shared ownership, no pool):
// a hop either forwards the packet or drops it on the floor, so lifetime is
// trivially correct. A packet carries its source route (htsim-style) as a
// cursor into the route's hop array: the slot of the hop that receives it
// next. The layout is one 64-byte cache line: the type and the four flags
// share the first 8 bytes, then seven 8-byte words.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace mpcc {

class PacketHandler;

enum class PacketType : std::uint8_t { kData, kAck };

/// Bytes of L3/L4 header accounted on the wire for every segment.
inline constexpr Bytes kHeaderBytes = 40;
/// Default maximum segment (payload) size.
inline constexpr Bytes kDefaultMss = 1460;

struct Packet {
  PacketType type = PacketType::kData;

  /// ECN: sender marks capability; queues set CE; sinks echo ECE on ACKs.
  bool ecn_capable = false;
  bool ecn_ce = false;
  bool ecn_echo = false;

  /// Payload/header corruption (chaos fault injection). Models a checksum
  /// failure: endpoints discard corrupted segments without acknowledging
  /// them, so recovery rides the normal loss machinery. There is no payload
  /// content to flip — the flag IS the corruption.
  bool corrupted = false;

  /// Identifies the sending TcpSrc/subflow; the sink echoes it on ACKs.
  std::uint64_t flow_id = 0;

  /// Payload bytes (0 for pure ACKs).
  Bytes payload = 0;

  /// DATA: sequence number of the first payload byte.
  /// ACK: cumulative acknowledgement (next expected byte).
  std::int64_t seq = 0;

  /// MPTCP data-level sequence carried by the segment (DSS mapping); -1 for
  /// single-path flows.
  std::int64_t data_seq = -1;

  /// Timestamp option: set by the sender, echoed by the sink, used for RTT.
  SimTime ts = 0;
  SimTime ts_echo = 0;

  /// Source-route cursor: the route slot holding the hop that receives the
  /// packet next. Set by Route::inject, advanced by Route::forward.
  PacketHandler* const* hop = nullptr;

  /// Total bytes this packet occupies on the wire.
  Bytes wire_size() const { return payload + kHeaderBytes; }
};

static_assert(sizeof(Packet) == 64, "Packet must stay one 64-byte cache line");

/// Creates a data segment for `flow`.
Packet make_data_packet(std::uint64_t flow_id, std::int64_t seq, Bytes payload, SimTime now);

/// Creates the ACK acknowledging through `cum_ack`, echoing `ts`.
Packet make_ack_packet(std::uint64_t flow_id, std::int64_t cum_ack, SimTime now,
                       SimTime ts_echo);

}  // namespace mpcc
