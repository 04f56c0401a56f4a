// Smoke tests for the skyloader_tool CLI: generate -> lint -> verify ->
// load round trip against real files on disk, plus usage errors.
// The binary path is injected by CMake (SKYLOADER_TOOL_PATH).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "htm/htm.h"

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class ToolTest : public ::testing::Test {
 protected:
  ToolTest() : tool_(SKYLOADER_TOOL_PATH) {
    dir_ = std::filesystem::temp_directory_path() /
           ("skyloader_tool_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~ToolTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string tool_;
  std::filesystem::path dir_;
};

TEST_F(ToolTest, UsageOnNoCommand) {
  const auto result = run_command(tool_);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(ToolTest, GenerateLintVerifyLoadRoundTrip) {
  // generate: reference + 28 nightly files.
  const auto generate = run_command(
      tool_ + " generate --night 9 --megabytes 1 --seed 7 --out " +
      dir_.string());
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  EXPECT_NE(generate.output.find("reference.cat"), std::string::npos);
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".cat") ++files;
  }
  EXPECT_EQ(files, 29);  // reference + 28

  // lint: clean files pass.
  const auto lint = run_command(
      tool_ + " lint " + (dir_ / "night9_file00.cat").string());
  EXPECT_EQ(lint.exit_code, 0) << lint.output;
  EXPECT_NE(lint.output.find("0 parse errors"), std::string::npos);

  // verify: loads everything into a throwaway repository, audits it.
  const auto verify = run_command(
      tool_ + " verify " + (dir_ / "*.cat").string());
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("integrity audit: OK"), std::string::npos);

  // load with a Markdown report.
  const auto report_path = dir_ / "report.md";
  const auto load = run_command(
      tool_ + " load --parallel 2 --report " + report_path.string() + " " +
      (dir_ / "*.cat").string());
  EXPECT_EQ(load.exit_code, 0) << load.output;
  std::ifstream report(report_path);
  ASSERT_TRUE(report.good());
  std::string contents((std::istreambuf_iterator<char>(report)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("# Load report"), std::string::npos);
  EXPECT_NE(contents.find("| objects |"), std::string::npos);
}

TEST_F(ToolTest, ConeMatchesBruteForce) {
  const auto generate = run_command(
      tool_ + " generate --night 5 --megabytes 1 --seed 3 --out " +
      dir_.string());
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  // Every object row of a clean night loads, so the oracle is a scan of
  // the files' OBJ lines (object_id|frame_id|ra|dec|...).
  std::vector<std::pair<double, double>> objects;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("OBJ|", 0) != 0) continue;
      std::vector<std::string> fields;
      std::stringstream split(line);
      for (std::string field; std::getline(split, field, '|');) {
        fields.push_back(field);
      }
      ASSERT_GE(fields.size(), 5u) << line;
      objects.emplace_back(std::stod(fields[3]), std::stod(fields[4]));
    }
  }
  ASSERT_FALSE(objects.empty());
  const auto [ra, dec] = objects.front();
  for (const double radius : {0.1, 2.0}) {
    const sky::htm::Vec3 center = sky::htm::radec_to_vector(ra, dec);
    long long expected = 0;
    for (const auto& [obj_ra, obj_dec] : objects) {
      if (sky::htm::angular_distance_deg(
              center, sky::htm::radec_to_vector(obj_ra, obj_dec)) <= radius) {
        ++expected;
      }
    }
    char args[128];
    std::snprintf(args, sizeof(args),
                  " cone --ra %.17g --dec %.17g --radius %g ", ra, dec, radius);
    const auto cone = run_command(tool_ + args + (dir_ / "*.cat").string());
    ASSERT_EQ(cone.exit_code, 0) << cone.output;
    const size_t total = cone.output.find("total matches within");
    ASSERT_NE(total, std::string::npos) << cone.output;
    const size_t colon = cone.output.find(": ", total);
    ASSERT_NE(colon, std::string::npos) << cone.output;
    EXPECT_EQ(std::stoll(cone.output.substr(colon + 2)), expected)
        << "radius=" << radius;
    EXPECT_GT(expected, 0);
  }
}

TEST_F(ToolTest, LintFlagsDirtyFile) {
  const auto path = dir_ / "dirty.cat";
  {
    std::ofstream out(path);
    out << "OBS|1|1|1|1|1|1000|1.2|0.5\n";
    out << "XXX|not|a|real|tag\n";
    out << "OBS|malformed\n";
  }
  const auto lint = run_command(tool_ + " lint " + path.string());
  EXPECT_NE(lint.exit_code, 0);
  EXPECT_NE(lint.output.find("2 parse errors"), std::string::npos);
}

TEST_F(ToolTest, VerifyFailsOnMissingFile) {
  const auto result = run_command(tool_ + " verify /no/such/file.cat");
  EXPECT_NE(result.exit_code, 0);
}

}  // namespace
