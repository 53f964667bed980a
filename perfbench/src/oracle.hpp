// The correctness oracle behind `error_rate`.
//
// Client t of c mutates only keys k with k % c == t, so each client can
// predict every result on its own keys from a private mirror, with no
// synchronisation, while keys of all clients stay interleaved inside the
// tree's nodes (node-level contention is that of an unpartitioned run).
// A result that contradicts the mirror is one failed operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class mirror {
 public:
  mirror(std::uint64_t key_range, unsigned clients, unsigned self)
      : clients_(clients),
        self_(self),
        present_((key_range - self + clients - 1) / clients, 0) {}

  /// Number of keys this client owns; key_of(i) for i < slots() is one.
  std::uint64_t slots() const noexcept { return present_.size(); }
  std::uint64_t key_of(std::uint64_t slot) const noexcept {
    return slot * clients_ + self_;
  }
  bool owns(std::uint64_t key) const noexcept {
    return key % clients_ == self_ && key / clients_ < slots();
  }
  bool has(std::uint64_t key) const noexcept {
    return present_[key / clients_] != 0;
  }
  std::uint64_t population() const noexcept { return population_; }
  std::uint64_t failures() const noexcept { return failures_; }
  const std::string& first_error() const noexcept { return first_error_; }

  /// Forget every key (a fresh structure); failures seen so far remain.
  void clear() {
    std::fill(present_.begin(), present_.end(), 0);
    population_ = 0;
  }

  void set(std::uint64_t key, bool present) {
    std::uint8_t& cell = present_[key / clients_];
    population_ += present ? (cell == 0) : 0;
    population_ -= present ? 0 : (cell != 0);
    cell = present ? 1 : 0;
  }

  void on_add(std::uint64_t key, bool got) {
    expect(got, !has(key), "add", key);
    set(key, true);
  }
  void on_remove(std::uint64_t key, bool got) {
    expect(got, has(key), "remove", key);
    set(key, false);
  }
  void on_contains(std::uint64_t key, bool got) {
    expect(got, has(key), "contains", key);
  }

  /// A for_range(lo, hi) result must be strictly ascending, inside
  /// [lo, hi), and report exactly this client's mirrored keys in range:
  /// only this client mutates them, so the check is exact.
  bool scan_ok(std::uint64_t lo, std::uint64_t hi,
               const std::vector<std::uint64_t>& got) const {
    bool ok = true;
    std::uint64_t own_seen = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::uint64_t k = got[i];
      if (k < lo || k >= hi || (i > 0 && got[i - 1] >= k)) ok = false;
      if (owns(k)) {
        if (!has(k)) ok = false;
        ++own_seen;
      }
    }
    std::uint64_t own_expected = 0;
    for (std::uint64_t k = lo + (self_ + clients_ - lo % clients_) % clients_;
         k < hi && owns(k); k += clients_) {
      if (has(k)) ++own_expected;
    }
    return ok && own_seen == own_expected;
  }
  void on_scan(std::uint64_t lo, std::uint64_t hi,
               const std::vector<std::uint64_t>& got) {
    expect(scan_ok(lo, hi, got), true, "for_range", lo);
  }

  /// Record a failure detected outside the per-operation checks.
  void fail(const std::string& what) {
    ++failures_;
    if (first_error_.empty()) first_error_ = what;
  }

 private:
  void expect(bool got, bool want, const char* op, std::uint64_t key) {
    if (got == want) return;
    fail(std::string(op) + "(" + std::to_string(key) + ") returned " +
         (got ? "true" : "false") + ", oracle expected " +
         (want ? "true" : "false"));
  }

  unsigned clients_;
  unsigned self_;
  std::vector<std::uint8_t> present_;
  std::uint64_t population_ = 0;
  std::uint64_t failures_ = 0;
  std::string first_error_;
};

/// Whether a for_range(lo, hi) result taken while no client runs is exactly
/// the union of the mirrors in [lo, hi): every mirror's own keys match, and
/// every reported key is owned by some mirror.
inline bool quiescent_scan_ok(const std::vector<mirror>& mirrors, std::uint64_t lo,
                              std::uint64_t hi, const std::vector<std::uint64_t>& got) {
  for (const mirror& m : mirrors) {
    if (!m.scan_ok(lo, hi, got)) return false;
  }
  return std::all_of(got.begin(), got.end(), [&](std::uint64_t k) {
    return mirrors[k % mirrors.size()].owns(k);
  });
}

/// Compare a quiescent key set, streamed in ascending order, with the union
/// of the mirrors.  Returns the number of keys whose presence disagrees.
class set_comparator {
 public:
  explicit set_comparator(const std::vector<mirror>& mirrors)
      : mirrors_(mirrors) {
    for (const mirror& m : mirrors_) expected_ += m.population();
  }

  void visit(std::uint64_t key) {
    const mirror& m = mirrors_[key % mirrors_.size()];
    if (m.owns(key) && m.has(key)) {
      ++matched_;
    } else {
      ++extra_;
    }
  }

  std::uint64_t mismatches() const noexcept {
    return extra_ + (expected_ - matched_);
  }

 private:
  const std::vector<mirror>& mirrors_;
  std::uint64_t expected_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t extra_ = 0;
};

}  // namespace perfbench
