// WAL on-disk format: the append-only, CRC-protected record stream.
//
// The log is a byte stream laid over the fixed-size blocks of a
// BlockDevice. Records are appended back to back and may span block
// boundaries; every record carries a magic, a CRC32 over its header tail
// and payload, and its LSN. LSNs are byte offsets: a record's lsn is the
// offset just past its final byte, so "the log is durable through LSN L"
// means every byte below L has been fsynced — one monotone counter
// orders records, commit points, and the buffer pool's page gates alike.
//
// Durability relies on two invariants the writer maintains:
//  - no flushed block is ever rewritten: every flush pads the stream to
//    the next block boundary (a kPad record, or raw zeros when fewer
//    than a header's worth of bytes remain), so a torn rewrite can never
//    damage bytes an earlier fsync already acknowledged;
//  - the scanner treats a zeroed header as the clean end of the log and
//    any magic/CRC violation as a torn tail — everything before the tear
//    is trusted (it was covered by the fsync that acknowledged it),
//    everything after is discarded.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vem {
namespace wal {

/// "VWL1" — identifies the start of a record header.
inline constexpr uint32_t kWalMagic = 0x314C5756u;

enum class RecordType : uint32_t {
  kBlockImage = 1,  ///< after-image of data block `block_id` (payload = B bytes)
  kAlloc = 2,       ///< block `block_id` allocated in txn `txn`
  kFree = 3,        ///< block `block_id` freed in txn `txn`
  kCommit = 4,      ///< txn `txn` committed — the redo gate
  kCheckpoint = 5,  ///< allocation-map snapshot (payload: next_id + free list)
  kPad = 6,         ///< filler to the next block boundary; carries no state
};

/// Fixed 40-byte record header. The CRC covers bytes [8, 40) of the
/// header (everything after the crc field) followed by the payload, so a
/// torn header, a torn payload, or a stale block all fail validation.
struct RecordHeader {
  uint32_t magic;
  uint32_t crc;
  uint32_t payload_size;
  uint32_t type;
  uint64_t lsn;  ///< byte offset just past this record's last byte
  uint64_t txn;
  uint64_t block_id;
};
static_assert(sizeof(RecordHeader) == 40, "WAL header layout is on-disk ABI");

inline constexpr size_t kHeaderSize = sizeof(RecordHeader);

/// CRC32 tables for slicing-by-8 (Kounavis & Berry, ISCC 2005): row 0
/// is the byte-wise table of the reflected IEEE polynomial 0xEDB88320;
/// row k advances a byte's contribution past k further zero bytes.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

/// CRC32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and final
/// XOR ~0), computed slicing-by-8: eight bytes per step through the
/// eight tables above, the tail byte-wise. Chainable: pass the previous
/// return value as `crc` to extend a running checksum; start from 0.
inline uint32_t Crc32(uint32_t crc, const void* data, size_t n) {
  const auto& t = kCrc32Tables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    // The reflected CRC takes byte 0 into the low bits, so the words are
    // little-endian whatever the host; compilers fuse each into one load.
    const uint32_t lo = c ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                             uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    const uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                        uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

/// Checksum of one record: header bytes past the crc field + payload.
inline uint32_t RecordCrc(const RecordHeader& h, const void* payload,
                          size_t n) {
  const char* base = reinterpret_cast<const char*>(&h);
  uint32_t c = Crc32(0, base + 2 * sizeof(uint32_t),
                     kHeaderSize - 2 * sizeof(uint32_t));
  if (n > 0) c = Crc32(c, payload, n);
  return c;
}

}  // namespace wal
}  // namespace vem
