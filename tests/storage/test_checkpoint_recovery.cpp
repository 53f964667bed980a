// Checkpoint + recovery unit tests, centered on torn-write tolerance:
// byte-truncate and bit-flip the WAL tail and the checkpoint image at
// every offset class and confirm recovery degrades exactly as specified --
// shorter durable prefix, never an exception, never a wrong key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "scratch_dir.hpp"
#include "storage/checkpoint.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"

namespace lfst::storage {
namespace {

namespace fs = std::filesystem;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::fresh_scratch_dir("recovery_test_scratch");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Append adds for 1..n (value = i) and close cleanly.
  void write_simple_log(std::uint64_t n) {
    wal log(dir_, 1);
    for (std::uint64_t i = 1; i <= n; ++i) {
      log.append(wal_op::add, &i, sizeof(i));
    }
    log.close();
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream f(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  }
  static void spit(const fs::path& p, const std::string& bytes) {
    std::ofstream f(p, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(RecoveryTest, EmptyDirectory) {
  const auto rec = recover<std::uint64_t>(dir_);
  EXPECT_TRUE(rec.empty_dir);
  EXPECT_TRUE(rec.keys.empty());
  EXPECT_EQ(rec.last_lsn, 0u);
}

TEST_F(RecoveryTest, ReplayOnlyNoCheckpoint) {
  write_simple_log(300);
  const auto rec = recover<std::uint64_t>(dir_);
  EXPECT_EQ(rec.cp_lsn, 0u);
  EXPECT_EQ(rec.last_lsn, 300u);
  EXPECT_EQ(rec.replayed, 300u);
  EXPECT_FALSE(rec.torn_tail);
  ASSERT_EQ(rec.keys.size(), 300u);
  EXPECT_EQ(rec.keys.front(), 1u);
  EXPECT_EQ(rec.keys.back(), 300u);
}

TEST_F(RecoveryTest, RemoveAndReaddReplayInOrder) {
  {
    wal log(dir_, 1);
    const std::uint64_t k = 42;
    log.append(wal_op::add, &k, sizeof(k));
    log.append(wal_op::remove, &k, sizeof(k));
    log.append(wal_op::add, &k, sizeof(k));
    const std::uint64_t k2 = 7;
    log.append(wal_op::add, &k2, sizeof(k2));
    log.append(wal_op::remove, &k2, sizeof(k2));
    log.close();
  }
  const auto rec = recover<std::uint64_t>(dir_);
  EXPECT_EQ(rec.keys, (std::vector<std::uint64_t>{42}));
}

// A struct key compared by one field: recovery must resolve equivalence
// through Compare and keep the LAST logged representation (put semantics).
struct kv64 {
  std::uint64_t k;
  std::uint64_t v;
};
struct kv_less {
  bool operator()(const kv64& a, const kv64& b) const { return a.k < b.k; }
};

TEST_F(RecoveryTest, PutUpsertsLastWriteWins) {
  {
    wal log(dir_, 1);
    kv64 a{1, 10};
    log.append(wal_op::put, &a, sizeof(a));
    kv64 b{1, 20};
    log.append(wal_op::put, &b, sizeof(b));
    kv64 c{2, 5};
    log.append(wal_op::put, &c, sizeof(c));
    log.close();
  }
  const auto rec = recover<kv64, kv_less>(dir_);
  ASSERT_EQ(rec.keys.size(), 2u);
  EXPECT_EQ(rec.keys[0].k, 1u);
  EXPECT_EQ(rec.keys[0].v, 20u);  // last put wins
  EXPECT_EQ(rec.keys[1].k, 2u);
  EXPECT_EQ(rec.keys[1].v, 5u);
}

/// Minimal for_each-able container for write_checkpoint.
template <typename T = std::uint64_t>
struct key_list {
  std::vector<T> keys;
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& k : keys) fn(k);
  }
};

TEST_F(RecoveryTest, CheckpointBoundsReplay) {
  wal log(dir_, 1);
  key_list live;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  const checkpoint_result cp = write_checkpoint<std::uint64_t>(live, 4, log);
  EXPECT_EQ(cp.cp_lsn, 200u);
  EXPECT_EQ(cp.keys, 200u);
  for (std::uint64_t i = 201; i <= 250; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  log.close();

  const auto rec = recover<std::uint64_t>(dir_);
  EXPECT_EQ(rec.cp_lsn, 200u);
  EXPECT_EQ(rec.replayed, 50u);  // only the tail past the checkpoint
  EXPECT_EQ(rec.last_lsn, 250u);
  EXPECT_EQ(rec.keys.size(), 250u);
  EXPECT_EQ(rec.q_log2, 4);
}

TEST_F(RecoveryTest, CheckpointDurationIsPopulated) {
  wal log(dir_, 1);
  key_list live;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  const checkpoint_result cp = write_checkpoint<std::uint64_t>(live, 4, log);
  EXPECT_GT(cp.duration_us, 0.0);
  log.close();
}

TEST_F(RecoveryTest, RecoveryPhaseTimingsArePopulated) {
  wal log(dir_, 1);
  key_list live;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  write_checkpoint<std::uint64_t>(live, 4, log);
  for (std::uint64_t i = 501; i <= 800; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  log.close();

  const auto rec = recover<std::uint64_t>(dir_, /*repair=*/true);
  ASSERT_EQ(rec.keys.size(), 800u);
  // A real checkpoint load and a real 300-record replay both take
  // nonzero wall time; repair may legitimately round to ~0.
  EXPECT_GT(rec.us_checkpoint_load, 0.0);
  EXPECT_GT(rec.us_replay, 0.0);
  EXPECT_GE(rec.us_repair, 0.0);
  EXPECT_GE(rec.us_total,
            rec.us_checkpoint_load + rec.us_replay + rec.us_repair - 1.0);
}

/// A for_each source that materializes nothing: keys are generated on the
/// fly, so any memory growth during write_checkpoint is the writer's own.
struct synthetic_keys {
  std::uint64_t n;
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t i = 1; i <= n; ++i) fn(i);
  }
};

/// Peak resident set (VmHWM) in bytes, or 0 if /proc is unreadable.
std::size_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::stoull(line.substr(6))) << 10;  // kB -> bytes
    }
  }
  return 0;
}

TEST_F(RecoveryTest, StreamingCheckpointKeepsPeakMemoryFlat) {
  // 3M uint64 keys = 24 MiB of payload.  The streaming writer never holds
  // more than its 64 KiB buffer, so peak RSS must not move by anything
  // like the key volume; the old materialize-then-save path would grow it
  // by >= 24 MiB.  The 8 MiB allowance absorbs allocator slop and stdio
  // buffers while staying far below the materialization signature.
  const std::size_t before = peak_rss_bytes();
  if (before == 0) GTEST_SKIP() << "/proc/self/status not readable";

  wal log(dir_, 1);
  const synthetic_keys live{3'000'000};
  const checkpoint_result cp =
      write_checkpoint<std::uint64_t>(live, 4, log);
  log.close();
  EXPECT_EQ(cp.keys, live.n);

  const std::size_t after = peak_rss_bytes();
  EXPECT_LT(after - before, std::size_t{8} << 20)
      << "checkpoint write grew peak RSS by " << ((after - before) >> 20)
      << " MiB -- is the writer materializing the key set?";
}

TEST_F(RecoveryTest, PruneKeepsTwoCheckpointsAndLiveSegments) {
  wal log(dir_, 1);
  key_list live;
  lsn_t stamps[3] = {0, 0, 0};
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 1; i <= 50; ++i) {
      const std::uint64_t k = round * 50 + i;
      log.append(wal_op::add, &k, sizeof(k));
      live.keys.push_back(k);
    }
    stamps[round] =
        write_checkpoint<std::uint64_t>(live, 4, log).cp_lsn;
  }
  log.close();

  EXPECT_FALSE(fs::exists(fs::path(dir_) / checkpoint_filename(stamps[0])));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / checkpoint_filename(stamps[1])));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / checkpoint_filename(stamps[2])));
  // Segments covered by the OLDEST RETAINED checkpoint (stamps[1]) are
  // pruned; the tail needed to recover from stamps[1] survives.
  const auto rec = recover<std::uint64_t>(dir_);
  EXPECT_EQ(rec.cp_lsn, stamps[2]);
  EXPECT_EQ(rec.keys.size(), 150u);
}

// --- torn-write sweeps -------------------------------------------------------

// Truncate the single WAL segment to EVERY byte length; recovery must
// always succeed and always recover a clean prefix 1..k of the adds.
TEST_F(RecoveryTest, WalTruncationSweepRecoversPrefix) {
  write_simple_log(60);
  const fs::path seg = fs::path(dir_) / segment_filename(1);
  const std::string img = slurp(seg);
  // Sweep every cut inside the header, plus every cut relative to record
  // boundaries (start / +1 / mid-payload / end-1) -- full byte sweep is
  // quadratic in file size, so sample the interesting offset classes.
  std::vector<std::size_t> cuts;
  for (std::size_t c = 0; c <= kSegmentHeaderBytes && c < img.size(); ++c) {
    cuts.push_back(c);
  }
  const std::size_t rec_bytes = kRecordHeaderBytes + sizeof(std::uint64_t);
  for (std::size_t start = kSegmentHeaderBytes; start < img.size();
       start += rec_bytes) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1},
                            kRecordHeaderBytes / 2, kRecordHeaderBytes,
                            rec_bytes - 1}) {
      if (start + off < img.size()) cuts.push_back(start + off);
    }
  }
  for (const std::size_t cut : cuts) {
    const std::string scratch = dir_ + "/case";
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    spit(fs::path(scratch) / segment_filename(1), img.substr(0, cut));
    const auto rec = recover<std::uint64_t>(scratch, /*repair=*/false);
    const std::size_t full_records =
        cut >= kSegmentHeaderBytes ? (cut - kSegmentHeaderBytes) / rec_bytes
                                   : 0;
    EXPECT_EQ(rec.keys.size(), full_records) << "cut at " << cut;
    EXPECT_EQ(rec.last_lsn, full_records) << "cut at " << cut;
    for (std::size_t i = 0; i < rec.keys.size(); ++i) {
      EXPECT_EQ(rec.keys[i], i + 1);
    }
    if (cut > kSegmentHeaderBytes &&
        (cut - kSegmentHeaderBytes) % rec_bytes != 0) {
      EXPECT_TRUE(rec.torn_tail) << "cut at " << cut;
    }
  }
}

// Flip every bit of a record in the middle of the log: replay must stop AT
// that record (prefix before it intact) and never throw.
TEST_F(RecoveryTest, WalBitFlipSweepStopsAtCorruptRecord) {
  write_simple_log(20);
  const fs::path seg = fs::path(dir_) / segment_filename(1);
  const std::string img = slurp(seg);
  const std::size_t rec_bytes = kRecordHeaderBytes + sizeof(std::uint64_t);
  const std::size_t target_rec = 9;  // corrupt record with LSN 10
  const std::size_t base = kSegmentHeaderBytes + target_rec * rec_bytes;
  for (std::size_t byte = base; byte < base + rec_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = img;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      const std::string scratch = dir_ + "/case";
      fs::remove_all(scratch);
      fs::create_directories(scratch);
      spit(fs::path(scratch) / segment_filename(1), bad);
      const auto rec = recover<std::uint64_t>(scratch, /*repair=*/false);
      EXPECT_EQ(rec.keys.size(), target_rec)
          << "bit " << bit << " of byte " << byte;
      EXPECT_TRUE(rec.torn_tail);
      for (std::size_t i = 0; i < rec.keys.size(); ++i) {
        EXPECT_EQ(rec.keys[i], i + 1);
      }
    }
  }
}

// Flip every bit of the segment HEADER: the whole segment becomes
// unreadable (treated as a tear at offset zero), not garbage replay.
TEST_F(RecoveryTest, SegmentHeaderBitFlipRejectsSegment) {
  write_simple_log(5);
  const fs::path seg = fs::path(dir_) / segment_filename(1);
  const std::string img = slurp(seg);
  for (std::size_t byte = 0; byte < kSegmentHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = img;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      const std::string scratch = dir_ + "/case";
      fs::remove_all(scratch);
      fs::create_directories(scratch);
      spit(fs::path(scratch) / segment_filename(1), bad);
      const auto rec = recover<std::uint64_t>(scratch, /*repair=*/false);
      EXPECT_TRUE(rec.keys.empty()) << "bit " << bit << " of byte " << byte;
      EXPECT_TRUE(rec.torn_tail);
    }
  }
}

// Corrupt the NEWEST checkpoint (every offset class: truncations across
// the image plus scattered bit flips); recovery must fall back to the
// previous checkpoint + longer replay and still produce the full state.
TEST_F(RecoveryTest, CorruptNewestCheckpointFallsBack) {
  wal log(dir_, 1);
  key_list live;
  for (std::uint64_t i = 1; i <= 80; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  const lsn_t cp1 = write_checkpoint<std::uint64_t>(live, 4, log).cp_lsn;
  for (std::uint64_t i = 81; i <= 160; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  const lsn_t cp2 = write_checkpoint<std::uint64_t>(live, 4, log).cp_lsn;
  for (std::uint64_t i = 161; i <= 200; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  log.close();
  ASSERT_LT(cp1, cp2);

  const fs::path cp2_path = fs::path(dir_) / checkpoint_filename(cp2);
  const std::string good = slurp(cp2_path);
  std::vector<std::string> corruptions;
  for (std::size_t cut = 0; cut < good.size();
       cut += std::max<std::size_t>(1, good.size() / 23)) {
    corruptions.push_back(good.substr(0, cut));  // truncations
  }
  for (std::size_t byte = 0; byte < good.size();
       byte += std::max<std::size_t>(1, good.size() / 17)) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x40);  // bit flips
    corruptions.push_back(bad);
  }
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    spit(cp2_path, corruptions[i]);
    const auto rec = recover<std::uint64_t>(dir_, /*repair=*/false);
    EXPECT_EQ(rec.cp_lsn, cp1) << "corruption case " << i;
    EXPECT_EQ(rec.checkpoints_skipped, 1u);
    EXPECT_EQ(rec.last_lsn, 200u);
    ASSERT_EQ(rec.keys.size(), 200u) << "corruption case " << i;
    for (std::size_t k = 0; k < rec.keys.size(); ++k) {
      EXPECT_EQ(rec.keys[k], k + 1);
    }
  }
}

// A CRC-valid checkpoint whose q_log2 is out of range is as unusable as a
// corrupt one: recovery must skip it and fall back, never hand the value
// on to the tree it builds.
TEST_F(RecoveryTest, OutOfRangeQLog2CheckpointFallsBack) {
  wal log(dir_, 1);
  key_list live;
  for (std::uint64_t i = 1; i <= 80; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  const lsn_t cp1 = write_checkpoint<std::uint64_t>(live, 4, log).cp_lsn;
  for (std::uint64_t i = 81; i <= 160; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    live.keys.push_back(i);
  }
  const lsn_t cp2 = write_checkpoint<std::uint64_t>(live, 40, log).cp_lsn;
  log.close();
  ASSERT_LT(cp1, cp2);

  const auto rec = recover<std::uint64_t>(dir_, /*repair=*/false);
  EXPECT_EQ(rec.cp_lsn, cp1);
  EXPECT_EQ(rec.checkpoints_skipped, 1u);
  EXPECT_EQ(rec.q_log2, 4);
  EXPECT_EQ(rec.last_lsn, 160u);
  ASSERT_EQ(rec.keys.size(), 160u);
  for (std::size_t k = 0; k < rec.keys.size(); ++k) {
    EXPECT_EQ(rec.keys[k], k + 1);
  }
}

TEST_F(RecoveryTest, RepairTruncatesTornTailAndReopens) {
  write_simple_log(50);
  const fs::path seg = fs::path(dir_) / segment_filename(1);
  const std::string img = slurp(seg);
  spit(seg, img.substr(0, img.size() - 11));  // tear mid-record 50

  const auto rec1 = recover<std::uint64_t>(dir_, /*repair=*/true);
  EXPECT_EQ(rec1.keys.size(), 49u);
  EXPECT_TRUE(rec1.torn_tail);
  // Repair trimmed the tail: the file now ends on a record boundary.
  const std::size_t rec_bytes = kRecordHeaderBytes + sizeof(std::uint64_t);
  EXPECT_EQ(fs::file_size(seg), kSegmentHeaderBytes + 49 * rec_bytes);

  // Appending after repair and recovering again yields old prefix + new.
  {
    wal log(dir_, rec1.last_lsn + 1);
    const std::uint64_t k = 999;
    log.append(wal_op::add, &k, sizeof(k));
    log.close();
  }
  const auto rec2 = recover<std::uint64_t>(dir_);
  EXPECT_EQ(rec2.keys.size(), 50u);
  EXPECT_EQ(rec2.keys.back(), 999u);
  EXPECT_FALSE(rec2.torn_tail);
}

TEST_F(RecoveryTest, RepairDeletesOrphanTmpAndBadCheckpoints) {
  write_simple_log(10);
  spit(fs::path(dir_) / (checkpoint_filename(5) + ".tmp"), "partial");
  spit(fs::path(dir_) / checkpoint_filename(7), "garbage checkpoint");
  const auto rec = recover<std::uint64_t>(dir_, /*repair=*/true);
  EXPECT_EQ(rec.checkpoints_skipped, 1u);
  EXPECT_EQ(rec.keys.size(), 10u);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / (checkpoint_filename(5) + ".tmp")));
  EXPECT_FALSE(fs::exists(fs::path(dir_) / checkpoint_filename(7)));
}

TEST_F(RecoveryTest, MidChainTearDropsLaterSegments) {
  wal log(dir_, 1);
  for (std::uint64_t i = 1; i <= 30; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  log.rotate();  // seals wal-1 at 30, opens wal-31
  for (std::uint64_t i = 31; i <= 60; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  log.close();

  // Tear the FIRST segment mid-record: records 31..60 become unreachable
  // (their LSNs are beyond the gap) and must not be replayed.
  const fs::path seg1 = fs::path(dir_) / segment_filename(1);
  const std::string img = slurp(seg1);
  spit(seg1, img.substr(0, img.size() - 5));

  const auto rec = recover<std::uint64_t>(dir_, /*repair=*/true);
  EXPECT_EQ(rec.keys.size(), 29u);
  EXPECT_EQ(rec.last_lsn, 29u);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / segment_filename(31)));
}

// --- differential replay ----------------------------------------------------

// Reference replay, the oracle: fold the tail into a std::map under Compare
// (erase-then-emplace, so the last logged representation wins), then patch
// the sorted image key by key.  O(C·R), but each step is plainly right.
template <typename T, typename Compare>
std::vector<T> reference_replay(std::vector<T> keys,
                                const std::vector<std::pair<wal_op, T>>& tail) {
  std::map<T, bool, Compare> state;  // true = present
  for (const auto& [op, key] : tail) {
    state.erase(key);
    state.emplace(key, op != wal_op::remove);
  }
  for (const auto& [key, present] : state) {
    auto it = std::lower_bound(keys.begin(), keys.end(), key, Compare{});
    const bool found = it != keys.end() && !Compare{}(key, *it);
    if (present && found) {
      *it = key;
    } else if (present) {
      keys.insert(it, key);
    } else if (found) {
      keys.erase(it);
    }
  }
  return keys;
}

struct u64_keys {
  using key = std::uint64_t;
  using less = std::less<key>;
  static key make(std::uint64_t k, std::uint64_t) { return k; }
  static std::pair<std::uint64_t, std::uint64_t> view(key x) { return {x, 0}; }
};
struct kv64_keys {
  using key = kv64;
  using less = kv_less;
  static key make(std::uint64_t k, std::uint64_t v) { return {k, v}; }
  static std::pair<std::uint64_t, std::uint64_t> view(key x) {
    return {x.k, x.v};
  }
};

/// One random case: a checkpoint image over [4, U), records the image
/// covers, then a tail of add/remove/put over [0, U + 8) -- keys inside and
/// outside the image, below its first and above its last key, each visited
/// many times with a fresh payload -- optionally ending in a torn record.
/// recover() must agree with reference_replay on the intact tail.
template <typename K>
void check_replay_against_reference(const std::string& dir,
                                    std::uint64_t seed) {
  using T = typename K::key;
  using L = typename K::less;
  SCOPED_TRACE("seed " + std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  xoshiro256ss rng(seed);
  const std::uint64_t universe = std::uint64_t{4} << rng.below(7);
  const std::uint64_t fill = rng.below(101);  // image density, percent

  key_list<T> image;
  for (std::uint64_t k = 4; k < universe; ++k) {
    if (rng.below(100) < fill) image.keys.push_back(K::make(k, rng.below(1000)));
  }
  const wal_op ops[] = {wal_op::add, wal_op::remove, wal_op::put};
  const auto draw = [&] {
    return std::pair<wal_op, T>{
        ops[rng.below(3)], K::make(rng.below(universe + 8), rng.below(1000))};
  };
  wal_options opts;
  opts.sync = fsync_policy::none;
  wal log(dir, 1, opts);
  const std::uint64_t covered = 1 + rng.below(20);
  for (std::uint64_t i = 0; i < covered; ++i) {
    const auto [op, key] = draw();
    log.append(op, &key, sizeof(key));
  }
  const lsn_t cp_lsn = write_checkpoint<T>(image, 4, log).cp_lsn;
  ASSERT_EQ(cp_lsn, covered);
  std::vector<std::pair<wal_op, T>> tail(rng.below(300));
  for (auto& rec : tail) {
    rec = draw();
    log.append(rec.first, &rec.second, sizeof(rec.second));
  }
  log.close();
  if (!tail.empty() && rng.below(3) == 0) {
    const fs::path seg = fs::path(dir) / segment_filename(cp_lsn + 1);
    const std::size_t rec_bytes = kRecordHeaderBytes + sizeof(T);
    fs::resize_file(seg, fs::file_size(seg) - 1 - rng.below(rec_bytes - 1));
    tail.pop_back();
  }

  const auto rec = recover<T, L>(dir);
  const std::vector<T> expected = reference_replay<T, L>(image.keys, tail);
  EXPECT_EQ(rec.cp_lsn, cp_lsn);
  EXPECT_EQ(rec.replayed, tail.size());
  EXPECT_EQ(rec.last_lsn, cp_lsn + tail.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want;
  for (const T& k : rec.keys) got.push_back(K::view(k));
  for (const T& k : expected) want.push_back(K::view(k));
  EXPECT_EQ(got, want);
}

TEST_F(RecoveryTest, SortMergeReplayMatchesReferenceU64Keys) {
  for (std::uint64_t seed = 1; seed <= 150 && !HasFailure(); ++seed) {
    check_replay_against_reference<u64_keys>(dir_ + "/case", seed);
  }
}

TEST_F(RecoveryTest, SortMergeReplayMatchesReferenceStructKeys) {
  for (std::uint64_t seed = 1; seed <= 150 && !HasFailure(); ++seed) {
    check_replay_against_reference<kv64_keys>(dir_ + "/case", seed);
  }
}

}  // namespace
}  // namespace lfst::storage
