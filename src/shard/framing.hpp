// Frame protocol of the cross-shard channel: detection before trust.
//
// The ShardChannel seam is stream-shaped and, until now, assumed perfect
// delivery — one flipped bit in a routed flow would be added straight
// into a next-load slot and silently desynchronize the round. Every message
// the sharded engine posts is therefore wrapped in a fixed 48-byte frame
// header carrying magic, version, tag, sender, round, a (seq, total)
// position within the sender's per-round stream, the payload length, and
// two checksums: the payload's block_checksum (util/serial.hpp, the
// snapshot-v3 checksum, which runs at memory speed) and an FNV-1a over
// the header's first 40 bytes. At drain time the receiver can classify
// every failure a lossy transport produces — corruption, truncation,
// duplication, reordering, staleness (a frame delayed across a round
// boundary), and outright loss (a (seq, total) hole) — *before* any
// payload byte reaches engine state, and the engine's bounded re-post
// retry turns all of them back into the byte-exact fault-free round. The
// header is encoded little-endian (util/serial.hpp's store_le), so frames
// are implementation-independent bytes a process transport can replay.
//
// Decode contract: decode_frame distinguishes "the stream is unframed
// garbage from here on" (kBadHeader / kTruncated — the caller must abort
// the delivery, the rest of the bytes cannot be trusted) from "this frame
// is intact framing around a damaged payload" (kBadPayload — the caller
// skips exactly this frame and keeps parsing, because the validated
// header gives the payload's extent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/serial.hpp"

namespace dlb {

/// The round protocol could not be completed: a frame stream stayed
/// incomplete after the configured re-post budget (a sender is gone and
/// no supervisor recovered it), or a lossless transport delivered damage
/// (an engine bug, not weather). Distinct from serial_error (persistence
/// format) and invariant_error (caller bugs): this one means the
/// *transport* failed the run.
class shard_fault_error : public std::runtime_error {
 public:
  explicit shard_fault_error(const std::string& what)
      : std::runtime_error(what) {}
};

/// "DLBF" little-endian — first four bytes of every frame.
inline constexpr std::uint32_t kFrameMagic = 0x46424C44u;
/// Version 2: the payload checksum is block_checksum (version 1 used a
/// byte-serial FNV-1a). A version-1 frame decodes as kBadHeader.
inline constexpr std::uint8_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 48;

/// One decoded frame: header fields plus a view into the payload bytes
/// (valid while the drained buffer is).
struct FrameView {
  std::uint8_t tag = 0;        ///< ShardTag of the exchange
  std::int32_t from = 0;       ///< sender shard id
  std::int64_t round = 0;      ///< round the frame belongs to (t+1 in step t)
  std::uint32_t seq = 0;       ///< position in the (from, to, tag, round) stream
  std::uint32_t total = 0;     ///< frames in that stream (>= 1, known at post)
  std::span<const std::byte> payload;
};

namespace framing_detail {

/// Appends `v` little-endian.
template <class U>
inline void put_le(std::vector<std::byte>& out, U v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  store_le(reinterpret_cast<std::uint8_t*>(out.data() + at), v);
}

inline std::uint32_t get_u32(const std::byte* p) noexcept {
  return load_le<std::uint32_t>(reinterpret_cast<const std::uint8_t*>(p));
}

inline std::uint64_t get_u64(const std::byte* p) noexcept {
  return load_le<std::uint64_t>(reinterpret_cast<const std::uint8_t*>(p));
}

inline std::span<const std::uint8_t> as_u8(
    std::span<const std::byte> data) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()};
}

/// The header checksum: FNV-1a over the header's first 40 bytes.
inline std::uint64_t fnv1a64_bytes(std::span<const std::byte> data) noexcept {
  return fnv1a64(as_u8(data));
}

}  // namespace framing_detail

/// Appends one complete frame (header + payload) to `out`. The payload
/// may be empty.
inline void append_frame(std::vector<std::byte>& out, std::uint8_t tag,
                         std::int32_t from, std::int64_t round,
                         std::uint32_t seq, std::uint32_t total,
                         std::span<const std::byte> payload) {
  using namespace framing_detail;
  const std::size_t base = out.size();
  put_le<std::uint32_t>(out, kFrameMagic);
  out.push_back(static_cast<std::byte>(kFrameVersion));
  out.push_back(static_cast<std::byte>(tag));
  out.push_back(std::byte{0});  // flags, reserved
  out.push_back(std::byte{0});  // padding, must be zero
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(from));
  put_le<std::uint32_t>(out, seq);
  put_le<std::uint32_t>(out, total);
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  put_le<std::uint64_t>(out, static_cast<std::uint64_t>(round));
  put_le<std::uint64_t>(out, block_checksum(as_u8(payload)));
  // Header checksum covers everything above it; a flip anywhere in the
  // first 40 bytes (including the payload checksum) fails this one.
  put_le<std::uint64_t>(
      out, fnv1a64_bytes(std::span<const std::byte>(out.data() + base, 40)));
  out.insert(out.end(), payload.begin(), payload.end());
}

enum class FrameStatus {
  kOk,          ///< frame intact; `off` advanced past it
  kBadHeader,   ///< magic/version/checksum wrong — abort the delivery
  kTruncated,   ///< buffer ends inside the frame — abort the delivery
  kBadPayload,  ///< header intact, payload checksum wrong; `off` advanced
};

/// Decodes the frame starting at `buf[off]`. Advances `off` past the
/// frame on kOk and kBadPayload; leaves it untouched on kBadHeader and
/// kTruncated (nothing after a damaged header can be located).
inline FrameStatus decode_frame(std::span<const std::byte> buf,
                                std::size_t& off, FrameView& out) {
  using namespace framing_detail;
  if (buf.size() - off < kFrameHeaderBytes) return FrameStatus::kTruncated;
  const std::byte* h = buf.data() + off;
  const std::uint64_t header_sum =
      fnv1a64_bytes(std::span<const std::byte>(h, 40));
  if (header_sum != get_u64(h + 40)) return FrameStatus::kBadHeader;
  if (get_u32(h) != kFrameMagic) return FrameStatus::kBadHeader;
  if (std::to_integer<std::uint8_t>(h[4]) != kFrameVersion ||
      std::to_integer<std::uint8_t>(h[6]) != 0 ||
      std::to_integer<std::uint8_t>(h[7]) != 0) {
    return FrameStatus::kBadHeader;
  }
  out.tag = std::to_integer<std::uint8_t>(h[5]);
  out.from = static_cast<std::int32_t>(get_u32(h + 8));
  out.seq = get_u32(h + 12);
  out.total = get_u32(h + 16);
  const std::uint32_t len = get_u32(h + 20);
  out.round = static_cast<std::int64_t>(get_u64(h + 24));
  const std::uint64_t payload_sum = get_u64(h + 32);
  if (buf.size() - off - kFrameHeaderBytes < len) {
    return FrameStatus::kTruncated;
  }
  out.payload = buf.subspan(off + kFrameHeaderBytes, len);
  off += kFrameHeaderBytes + len;
  if (block_checksum(as_u8(out.payload)) != payload_sum) {
    return FrameStatus::kBadPayload;
  }
  return FrameStatus::kOk;
}

}  // namespace dlb
