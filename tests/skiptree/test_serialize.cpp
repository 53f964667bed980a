// Corruption-rejection tests for the v2 serialize format: every truncation
// offset class and every single-bit flip must be rejected with an error,
// never turned into a silently-wrong tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "skiptree/serialize.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

std::string serialized_image(std::size_t n) {
  std::vector<long> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back(static_cast<long>(i * 7));
  std::ostringstream os(std::ios::binary);
  save_keys(std::span<const long>(keys), /*q_log2=*/4, os);
  return os.str();
}

TEST(SerializeV2, RoundTrip) {
  const std::string img = serialized_image(500);
  std::istringstream is(img, std::ios::binary);
  const loaded_keys<long> lk = load_keys<long>(is);
  EXPECT_EQ(lk.q_log2, 4);
  ASSERT_EQ(lk.keys.size(), 500u);
  for (std::size_t i = 0; i < lk.keys.size(); ++i) {
    EXPECT_EQ(lk.keys[i], static_cast<long>(i * 7));
  }
}

TEST(SerializeV2, EmptyRoundTrip) {
  const std::string img = serialized_image(0);
  std::istringstream is(img, std::ios::binary);
  EXPECT_TRUE(load_keys<long>(is).keys.empty());
}

TEST(SerializeV2, CrcKnownAnswer) {
  // CRC32C reference vector (RFC 3720): crc32c("123456789") = 0xE3069283.
  EXPECT_EQ(crc::crc32c_of("123456789", 9), 0xE3069283u);
}

// crc32c_combine(crc(A), crc(B), |B|) must equal crc(A||B) for every split
// point -- the identity that lets the streaming checkpoint writer checksum
// header and key stream separately and still emit the one-shot CRC.
TEST(SerializeV2, CrcCombineMatchesOneShotAtEverySplit) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (int i = 0; i < 64; ++i) data += static_cast<char>(i * 37 + 1);
  const std::uint32_t whole = crc::crc32c_of(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const std::uint32_t a = crc::crc32c_of(data.data(), cut);
    const std::uint32_t b =
        crc::crc32c_of(data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc::crc32c_combine(a, b, data.size() - cut), whole)
        << "split at " << cut;
  }
}

TEST(SerializeV2, CrcCombineEmptySuffixIsIdentity) {
  const std::uint32_t a = crc::crc32c_of("abcdef", 6);
  EXPECT_EQ(crc::crc32c_combine(a, 0u, 0), a);
  EXPECT_EQ(crc::crc32c_combine(a, 0xDEADBEEFu, 0), a);
}

// The streaming writer must produce a byte-identical image to the
// materializing save_keys -- same header, same count patch, same combined
// CRC -- at every size class (empty, sub-buffer, multi-buffer).
TEST(SerializeV2, StreamWriterMatchesSaveKeysByteForByte) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{100}, std::size_t{8191},
                              std::size_t{8192}, std::size_t{30000}}) {
    std::vector<long> keys;
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(static_cast<long>(i * 11));
    }
    std::ostringstream batch(std::ios::binary);
    save_keys(std::span<const long>(keys), /*q_log2=*/5, batch);

    std::ostringstream streamed(std::ios::binary);
    key_stream_writer<long> w(/*q_log2=*/5, streamed);
    for (const long k : keys) w.push(k);
    w.finish();

    EXPECT_EQ(w.count(), n);
    ASSERT_EQ(streamed.str(), batch.str()) << "n=" << n;

    std::istringstream is(streamed.str(), std::ios::binary);
    const loaded_keys<long> lk = load_keys<long>(is);
    EXPECT_EQ(lk.q_log2, 5);
    EXPECT_EQ(lk.keys, keys);
  }
}

// Truncation at EVERY prefix length must throw -- mid-magic, mid-header,
// mid-key-stream, mid-checksum.  (The image is small enough to sweep all
// offsets exhaustively.)
TEST(SerializeV2, RejectsEveryTruncation) {
  const std::string img = serialized_image(40);
  for (std::size_t cut = 0; cut < img.size(); ++cut) {
    std::istringstream is(img.substr(0, cut), std::ios::binary);
    EXPECT_THROW(load_keys<long>(is), std::runtime_error)
        << "truncation to " << cut << " bytes accepted";
  }
}

// Any single bit flip anywhere in the image must throw (bad magic, bad
// version, count mismatch => truncated read or checksum, key corruption =>
// checksum, checksum corruption => mismatch).
TEST(SerializeV2, RejectsEveryBitFlip) {
  const std::string img = serialized_image(24);
  for (std::size_t byte = 0; byte < img.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = img;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      std::istringstream is(bad, std::ios::binary);
      EXPECT_THROW(load_keys<long>(is), std::runtime_error)
          << "bit " << bit << " of byte " << byte << " accepted";
    }
  }
}

// A bit-flipped count must not provoke a giant allocation: the chunked
// reader grows the vector only as bytes actually arrive, so a sky-high
// count fails as a truncated key stream almost immediately.
TEST(SerializeV2, HugeCountFailsWithoutHugeAllocation) {
  std::string img = serialized_image(8);
  const std::uint64_t huge = ~std::uint64_t{0} / sizeof(long);
  std::memcpy(img.data() + 16, &huge, sizeof(huge));
  std::istringstream is(img, std::ios::binary);
  EXPECT_THROW(load_keys<long>(is), std::runtime_error);
}

TEST(SerializeV2, RejectsUnsortedStreamThroughLoad) {
  std::vector<long> keys = {5, 3, 9};  // deliberately unsorted
  std::ostringstream os(std::ios::binary);
  save_keys(std::span<const long>(keys), 4, os);
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(load<long>(is), std::runtime_error);
}

/// Hand-build a v1 image: same header with version 1, no trailing CRC.
std::string legacy_v1_image(std::uint32_t q, const std::vector<long>& keys) {
  std::string img;
  auto put = [&](const void* p, std::size_t n) {
    img.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t magic = kSerializeMagic;
  const std::uint32_t version = kSerializeVersionLegacy;
  const std::uint64_t count = keys.size();
  put(&magic, 8);
  put(&version, 4);
  put(&q, 4);
  put(&count, 8);
  put(keys.data(), keys.size() * sizeof(long));
  return img;
}

TEST(SerializeV2, LegacyV1StillLoads) {
  std::vector<long> keys = {1, 2, 3, 4};
  std::istringstream is(legacy_v1_image(5, keys), std::ios::binary);
  const loaded_keys<long> lk = load_keys<long>(is);
  EXPECT_EQ(lk.q_log2, 5);
  EXPECT_EQ(lk.keys, keys);
}

// q_log2 is untrusted input: a v1 image has no checksum to catch a bad one,
// and load() hands it to the bulk loader, where 1 << q_log2 is undefined
// past 63.  Both ends of the supported range load; anything outside is
// rejected before a tree is built.
TEST(SerializeV2, LegacyV1RejectsOutOfRangeQLog2) {
  const std::vector<long> keys = {1, 2, 3, 4};
  for (const std::uint32_t q : {0u, 64u}) {
    std::istringstream is(legacy_v1_image(q, keys), std::ios::binary);
    EXPECT_THROW(load_keys<long>(is), std::runtime_error) << "q_log2=" << q;
  }
  for (const std::uint32_t q : {1u, 16u}) {
    std::istringstream is(legacy_v1_image(q, keys), std::ios::binary);
    EXPECT_EQ(load_keys<long>(is).q_log2, static_cast<int>(q));
  }
}

// A checksum only proves the writer's bytes arrived intact, not that the
// writer's q_log2 was valid.
TEST(SerializeV2, RejectsOutOfRangeQLog2UnderValidChecksum) {
  const std::vector<long> keys = {1, 2, 3, 4};
  std::ostringstream os(std::ios::binary);
  save_keys(std::span<const long>(keys), /*q_log2=*/40, os);
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(load_keys<long>(is), std::runtime_error);
}

TEST(SerializeV2, TreeRoundTripThroughStreams) {
  skip_tree<long> tree;
  for (long i = 0; i < 2000; ++i) tree.add(i * 3);
  std::ostringstream os(std::ios::binary);
  save(tree, os);
  std::istringstream is(os.str(), std::ios::binary);
  auto loaded = load<long>(is);
  EXPECT_EQ(loaded.size(), tree.size());
  const validation_report rep = skip_tree_inspector<long>(loaded).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  for (long i = 0; i < 2000; ++i) EXPECT_TRUE(loaded.contains(i * 3));
}

}  // namespace
}  // namespace lfst::skiptree
