// A scratch directory owned by the running test case.
//
// ctest runs every discovered case in its own process, possibly many at
// once, so a fixed file name under testing::TempDir() is shared between
// concurrent cases: one case truncates a file another has mmap'd. Naming
// the directory after the test (suite, name, parameter) and the process
// id gives every case a path no other case uses.
#ifndef IREDUCT_TESTS_TEST_DIR_H_
#define IREDUCT_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace ireduct {

class CaseTempDir {
 public:
  /// Creates <TempDir>/ireduct_<suite>.<test>_<pid>. Must be constructed
  /// while a test is running (a fixture member or a test-body local).
  CaseTempDir() {
    const testing::TestInfo* info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name() + "_" + std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized names contain slashes
    }
    path_ = testing::TempDir() + "/ireduct_" + name;
    std::filesystem::create_directories(path_);
  }
  ~CaseTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  CaseTempDir(const CaseTempDir&) = delete;
  CaseTempDir& operator=(const CaseTempDir&) = delete;

  const std::string& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string File(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace ireduct

#endif  // IREDUCT_TESTS_TEST_DIR_H_
