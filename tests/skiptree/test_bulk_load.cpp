// Tests for bulk loading (from_sorted) and binary serialization.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "skiptree/serialize.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

std::vector<long> iota_keys(long n, long stride = 1) {
  std::vector<long> v;
  v.reserve(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) v.push_back(i * stride);
  return v;
}

TEST(SkipTreeBulkLoad, EmptyInputYieldsEmptyTree) {
  auto t = skip_tree<long>::from_sorted({});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(0));
  EXPECT_TRUE(skip_tree_inspector<long>(t).validate().ok);
}

TEST(SkipTreeBulkLoad, SingleKey) {
  const std::vector<long> keys{42};
  auto t = skip_tree<long>::from_sorted(keys);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.contains(42));
  EXPECT_TRUE(skip_tree_inspector<long>(t).validate().ok);
}

TEST(SkipTreeBulkLoad, ExactMultipleOfWidth) {
  skip_tree_options o;
  o.q_log2 = 3;  // width 8
  const auto keys = iota_keys(64);
  auto t = skip_tree<long>::from_sorted(keys, o);
  skip_tree_inspector<long> insp(t);
  auto rep = insp.validate();
  ASSERT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.nodes_per_level[0], 8u);  // 64 / 8 leaves
  EXPECT_EQ(rep.empty_nodes, 0u);
  EXPECT_EQ(rep.suboptimal_refs, 0u);
  for (long k = 0; k < 64; ++k) ASSERT_TRUE(t.contains(k)) << k;
  EXPECT_FALSE(t.contains(64));
}

TEST(SkipTreeBulkLoad, RaggedLastChunk) {
  skip_tree_options o;
  o.q_log2 = 3;
  const auto keys = iota_keys(61);  // 7 full leaves + one of 5
  auto t = skip_tree<long>::from_sorted(keys, o);
  auto rep = skip_tree_inspector<long>(t).validate();
  ASSERT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.nodes_per_level[0], 8u);
  for (long k = 0; k < 61; ++k) ASSERT_TRUE(t.contains(k)) << k;
}

TEST(SkipTreeBulkLoad, LargeLoadIsOptimalAndComplete) {
  skip_tree_options o;
  o.q_log2 = 5;
  const auto keys = iota_keys(100000, 3);
  auto t = skip_tree<long>::from_sorted(keys, o);
  auto rep = skip_tree_inspector<long>(t).validate();
  ASSERT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.empty_nodes, 0u);
  EXPECT_EQ(rep.suboptimal_refs, 0u);
  EXPECT_EQ(rep.duplicate_ref_pairs, 0u);
  EXPECT_EQ(t.count_keys(), 100000u);
  for (long k = 0; k < 100000; k += 997) {
    EXPECT_TRUE(t.contains(k * 3));
    EXPECT_FALSE(t.contains(k * 3 + 1));
  }
  // Optimal packing: height ~ log_width(n).
  EXPECT_LE(t.height(), 4);
}

// Width boundaries: n = width^k and its neighbors exercise the "exactly
// full last chunk", "one-key overflow chunk" and "level collapses to a
// single node" corners of the bottom-up build.
TEST(SkipTreeBulkLoad, WidthBoundarySizes) {
  skip_tree_options o;
  o.q_log2 = 3;  // width 8
  const long width = 1L << o.q_log2;
  std::vector<long> sizes{width - 1, width,         width + 1,
                          2 * width, width * width, width * width - 1,
                          width * width + 1};
  for (long n : sizes) {
    const auto keys = iota_keys(n);
    auto t = skip_tree<long>::from_sorted(keys, o);
    skip_tree_inspector<long> insp(t);
    const auto rep = insp.validate();
    ASSERT_TRUE(rep.ok) << "n=" << n << ": " << rep.to_string();
    EXPECT_EQ(rep.empty_nodes, 0u) << "n=" << n;
    EXPECT_EQ(rep.suboptimal_refs, 0u) << "n=" << n;
    EXPECT_EQ(rep.nodes_per_level[0],
              static_cast<std::size_t>((n + width - 1) / width))
        << "n=" << n;
    EXPECT_EQ(t.count_keys(), static_cast<std::size_t>(n)) << "n=" << n;
    for (long k = 0; k < n; ++k) ASSERT_TRUE(t.contains(k)) << "n=" << n;
    EXPECT_FALSE(t.contains(n)) << "n=" << n;
    EXPECT_FALSE(t.contains(-1)) << "n=" << n;
  }
}

// Exactly one leaf: the whole tree is the +inf terminator node's chain.
TEST(SkipTreeBulkLoad, SingleChunkStaysHeightZero) {
  skip_tree_options o;
  o.q_log2 = 5;  // width 32
  const auto keys = iota_keys(32);
  auto t = skip_tree<long>::from_sorted(keys, o);
  EXPECT_EQ(t.height(), 0);
  EXPECT_TRUE(skip_tree_inspector<long>(t).validate().ok);
  const auto keys2 = iota_keys(33);
  auto t2 = skip_tree<long>::from_sorted(keys2, o);
  EXPECT_GE(t2.height(), 1);
  EXPECT_TRUE(skip_tree_inspector<long>(t2).validate().ok);
}

TEST(SkipTreeBulkLoad, EmptySpanEqualsDefaultConstruction) {
  auto loaded = skip_tree<long>::from_sorted(std::span<const long>{});
  skip_tree<long> fresh;
  EXPECT_EQ(loaded.size(), fresh.size());
  EXPECT_EQ(loaded.height(), fresh.height());
  long out = 0;
  EXPECT_FALSE(loaded.first(out));
  EXPECT_FALSE(loaded.lower_bound(0, out));
  // And it must be mutable like any fresh tree.
  EXPECT_TRUE(loaded.add(7));
  EXPECT_TRUE(loaded.contains(7));
  EXPECT_TRUE(loaded.remove(7));
}

TEST(SkipTreeBulkLoad, TreeIsFullyMutableAfterLoad) {
  const auto keys = iota_keys(1000, 2);  // evens
  auto t = skip_tree<long>::from_sorted(keys);
  for (long k = 1; k < 2000; k += 200) EXPECT_TRUE(t.add(k));
  for (long k = 0; k < 2000; k += 400) EXPECT_TRUE(t.remove(k));
  auto rep = skip_tree_inspector<long>(t).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

// Out-of-range options are rejected at construction in every build type,
// through the constructor and through from_sorted.
TEST(SkipTreeOptions, RejectsOutOfRangeOptions) {
  const std::vector<long> keys = iota_keys(100);
  const std::span<const long> span(keys);
  for (const int q : {kMinQLog2 - 1, kMaxQLog2 + 1}) {
    skip_tree_options o;
    o.q_log2 = q;
    EXPECT_THROW(skip_tree<long>{o}, std::invalid_argument) << "q_log2 " << q;
    EXPECT_THROW(skip_tree<long>::from_sorted(span, o), std::invalid_argument)
        << "q_log2 " << q;
  }
  for (const int h : {0, kMaxHeightLimit + 1}) {
    skip_tree_options o;
    o.max_height = h;
    EXPECT_THROW(skip_tree<long>{o}, std::invalid_argument)
        << "max_height " << h;
    EXPECT_THROW(skip_tree<long>::from_sorted(span, o), std::invalid_argument)
        << "max_height " << h;
  }
}

TEST(SkipTreeOptions, AcceptsRangeEndpoints) {
  const std::vector<long> keys = iota_keys(100);
  for (const auto& [q, h] : {std::pair{kMinQLog2, 1},
                             std::pair{kMaxQLog2, kMaxHeightLimit}}) {
    skip_tree_options o;
    o.q_log2 = q;
    o.max_height = h;
    auto t = skip_tree<long>::from_sorted(std::span<const long>(keys), o);
    EXPECT_EQ(t.size(), keys.size());
    EXPECT_TRUE(t.add(1000));
    EXPECT_TRUE(skip_tree_inspector<long>(t).validate().ok);
  }
}

TEST(SkipTreeSerialize, RoundTripPreservesKeys) {
  skip_tree<long> t;
  xoshiro256ss rng(55);
  for (int i = 0; i < 20000; ++i) {
    t.add(static_cast<long>(rng.below(1 << 30)));
  }
  std::stringstream buf;
  save(t, buf);
  auto loaded = load<long>(buf);
  EXPECT_EQ(loaded.size(), t.size());
  std::vector<long> a;
  std::vector<long> b;
  t.for_each([&](long k) { a.push_back(k); });
  loaded.for_each([&](long k) { b.push_back(k); });
  EXPECT_EQ(a, b);
  EXPECT_TRUE(skip_tree_inspector<long>(loaded).validate().ok);
}

TEST(SkipTreeSerialize, RoundTripIsOfflineCompaction) {
  // Degrade a tree, then save/load: the copy must be optimal.
  skip_tree_options o;
  o.q_log2 = 3;
  skip_tree<long> t(o);
  for (long k = 0; k < 4096; ++k) t.add_with_height(k, k % 4 == 0 ? 1 : 0);
  for (long k = 0; k < 4096; k += 2) t.remove(k);
  const auto degraded = skip_tree_inspector<long>(t).validate();
  ASSERT_TRUE(degraded.ok);

  std::stringstream buf;
  save(t, buf);
  auto compacted = load<long>(buf);
  const auto clean = skip_tree_inspector<long>(compacted).validate();
  ASSERT_TRUE(clean.ok) << clean.to_string();
  EXPECT_EQ(clean.empty_nodes, 0u);
  EXPECT_EQ(clean.suboptimal_refs, 0u);
  EXPECT_LE(clean.total_nodes, degraded.total_nodes);
  EXPECT_EQ(compacted.count_keys(), t.count_keys());
}

TEST(SkipTreeSerialize, EmptyTreeRoundTrip) {
  skip_tree<long> t;
  std::stringstream buf;
  save(t, buf);
  auto loaded = load<long>(buf);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(SkipTreeSerialize, RejectsCorruptHeader) {
  std::stringstream buf;
  buf << "this is not a skip tree image";
  EXPECT_THROW(load<long>(buf), std::runtime_error);
}

TEST(SkipTreeSerialize, RejectsTruncatedStream) {
  skip_tree<long> t;
  for (long k = 0; k < 100; ++k) t.add(k);
  std::stringstream buf;
  save(t, buf);
  std::string full = buf.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load<long>(truncated), std::runtime_error);
}

TEST(SkipTreeSerialize, OptsOverrideChangesWidth) {
  skip_tree<long> t;
  for (long k = 0; k < 10000; ++k) t.add(k);
  std::stringstream buf;
  save(t, buf);
  skip_tree_options wide;
  wide.q_log2 = 7;  // width 128
  auto loaded = load<long>(buf, &wide);
  EXPECT_EQ(loaded.options().q_log2, 7);
  auto rep = skip_tree_inspector<long>(loaded).validate();
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.nodes_per_level[0], (10000u + 127) / 128);
}

}  // namespace
}  // namespace lfst::skiptree
