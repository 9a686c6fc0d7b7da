#include "provml/compress/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace provml::compress {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][n] is the CRC state after byte n followed by k zero bytes,
/// so one lookup per table folds eight input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// The four bytes at `p` as a little-endian word: the reflected CRC
/// consumes the lowest-addressed byte first.
std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  return v;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data) {
  std::uint32_t c = state ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) { return crc32_update(0, data); }

}  // namespace provml::compress
