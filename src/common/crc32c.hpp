// CRC32C (Castagnoli) -- the storage layer's record and file checksum.
//
// Every durable artifact this repo writes (WAL records, checkpoint files,
// the v2 serialize format) carries a CRC32C so that recovery can tell a
// torn or bit-flipped tail from valid data.  Castagnoli rather than the
// zlib polynomial because (a) it is what the storage literature and every
// comparable engine (LevelDB, RocksDB, ext4) uses for exactly this job and
// (b) x86-64 has a dedicated instruction for it (SSE4.2 `crc32`), so the
// WAL hot path pays ~0.1 cycles/byte instead of a table walk.
//
// Dispatch: one cached `__builtin_cpu_supports("sse4.2")` probe selects
// the hardware body, with a constexpr-built slice-by-1 table
// as the portable fallback (and the reference the tests check the hardware
// path against).  The value is the standard "reflected" CRC32C: init
// 0xFFFFFFFF, final XOR, e.g. crc32c("123456789") == 0xE3069283.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LFST_CRC32C_HW 1
#else
#define LFST_CRC32C_HW 0
#endif

namespace lfst::crc {

namespace detail {

inline constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

inline constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

inline constexpr std::array<std::uint32_t, 256> kTable = make_table();

/// Portable byte-at-a-time update over raw (pre-inverted) state.
inline std::uint32_t update_sw(std::uint32_t state, const void* data,
                               std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    state = kTable[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

#if LFST_CRC32C_HW
__attribute__((target("sse4.2"))) inline std::uint32_t update_hw(
    std::uint32_t state, const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t s = state;
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    s = __builtin_ia32_crc32di(s, chunk);
    p += 8;
    len -= 8;
  }
  std::uint32_t s32 = static_cast<std::uint32_t>(s);
  while (len > 0) {
    s32 = __builtin_ia32_crc32qi(s32, *p);
    ++p;
    --len;
  }
  return s32;
}

inline bool hw_available() noexcept {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif  // LFST_CRC32C_HW

inline std::uint32_t update(std::uint32_t state, const void* data,
                            std::size_t len) noexcept {
#if LFST_CRC32C_HW
  if (hw_available()) return update_hw(state, data, len);
#endif
  return update_sw(state, data, len);
}

}  // namespace detail

/// Incremental CRC32C: construct, update() over any number of chunks, then
/// value().  A default-constructed accumulator over zero bytes yields 0.
class crc32c {
 public:
  void update(const void* data, std::size_t len) noexcept {
    state_ = detail::update(state_, data, len);
  }

  std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
inline std::uint32_t crc32c_of(const void* data, std::size_t len) noexcept {
  crc32c c;
  c.update(data, len);
  return c.value();
}

namespace detail {

// GF(2) 32x32 matrix ops over the reflected polynomial, used by
// crc32c_combine.  A matrix is 32 column vectors; `times` multiplies a
// matrix by a vector (a CRC state), `square` multiplies a matrix by itself.
inline std::uint32_t gf2_matrix_times(const std::uint32_t* mat,
                                      std::uint32_t vec) noexcept {
  std::uint32_t sum = 0;
  for (int i = 0; vec != 0; vec >>= 1, ++i) {
    if (vec & 1u) sum ^= mat[i];
  }
  return sum;
}

inline void gf2_matrix_square(std::uint32_t* square,
                              const std::uint32_t* mat) noexcept {
  for (int n = 0; n < 32; ++n) square[n] = gf2_matrix_times(mat, mat[n]);
}

}  // namespace detail

/// Combine two finalized CRC32C values: given crc1 = crc32c(A) and
/// crc2 = crc32c(B), returns crc32c(A || B) where len2 = |B| in bytes.
/// This is the zlib crc32_combine construction ported to the Castagnoli
/// polynomial: shift crc1 forward by len2 zero-bytes via repeated matrix
/// squaring (O(log len2)), then XOR with crc2.  It lets a writer checksum
/// independent byte ranges out of order -- the streaming checkpoint saver
/// CRCs the header (whose count field is only known at the end) separately
/// from the key payload it streams.
inline std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                                    std::uint64_t len2) noexcept {
  if (len2 == 0) return crc1;
  std::uint32_t even[32];  // operator for 2^k zero bytes, k even
  std::uint32_t odd[32];   // operator for 2^k zero bytes, k odd

  // odd = operator for one zero BIT: row 0 is the polynomial, the rest
  // shift each bit up one position.
  odd[0] = detail::kPoly;
  std::uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  detail::gf2_matrix_square(even, odd);  // even = two zero bits
  detail::gf2_matrix_square(odd, even);  // odd  = four zero bits
  // The loop below squares again before first use, so the first applied
  // operator is eight zero bits = one zero byte, as required.

  do {
    detail::gf2_matrix_square(even, odd);
    if (len2 & 1u) crc1 = detail::gf2_matrix_times(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    detail::gf2_matrix_square(odd, even);
    if (len2 & 1u) crc1 = detail::gf2_matrix_times(odd, crc1);
    len2 >>= 1;
  } while (len2 != 0);
  return crc1 ^ crc2;
}

}  // namespace lfst::crc
