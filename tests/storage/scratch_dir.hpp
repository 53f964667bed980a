// Per-test scratch directories for the storage suites.
//
// ctest runs every TEST as its own process, many at once under `ctest -j`,
// all from one working directory.  A test's directory is therefore named
// after the test AND the process, and a test removes only its own
// directory, never a parent shared with its siblings.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace lfst::storage::test {

/// "<prefix>-<Suite>.<Test>-<pid>", with any stale copy removed.
inline std::string fresh_scratch_dir(const std::string& prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = prefix + "-" + info->test_suite_name() + "." +
                    info->name() + "-" + std::to_string(::getpid());
  std::replace(dir.begin(), dir.end(), '/', '_');  // parameterized names
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace lfst::storage::test
