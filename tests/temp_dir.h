// A scratch directory unique to one process and one test, removed with its
// contents on destruction.
//
// gtest_discover_tests registers every test case as its own ctest entry,
// so `ctest -j` runs sibling cases of one binary as concurrent processes.
// Fixed names under ::testing::TempDir() then collide: one process's
// cleanup deletes files another is still reading. The directory name here
// carries the pid and the running test's full name, so no two live
// processes (or two tests of one process) share a path. Two live in one
// test would share it, so a test holds at most one.
#pragma once

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace pipemap::testing {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string name = "pipemap_" + std::to_string(::getpid());
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    for (char& c : name) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
    }
    path_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(path_);  // a stale dir from a reused pid
    std::filesystem::create_directories(path_);
  }

  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `file` inside the directory (not created).
  std::string File(const std::string& file) const {
    return (path_ / file).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace pipemap::testing
