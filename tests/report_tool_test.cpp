// The report pipeline end to end: `nustencil --report` writes a run
// report and `nustencil_report` renders it into the single-run HTML
// dashboard.  The build passes both tools' paths in (NUSTENCIL_CLI,
// NUSTENCIL_REPORT_TOOL).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs `command` through the shell and returns its exit status.
int run(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string quoted(const fs::path& path) { return "'" + path.string() + "'"; }

class ReportTool : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("report_tool_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ReportTool, RendersSingleRunDashboard) {
  const fs::path json = dir_ / "run.json";
  ASSERT_EQ(run(std::string(NUSTENCIL_CLI) +
                " --scheme nuCORALS --shape 16x16x16 --steps 2 --threads 2"
                " --machine xeon --report=" + quoted(json) + " > " +
                quoted(dir_ / "cli.log") + " 2>&1"),
            0)
      << slurp(dir_ / "cli.log");

  // Without an output path the dashboard lands next to the report.
  ASSERT_EQ(run(std::string(NUSTENCIL_REPORT_TOOL) + " " + quoted(json) + " > " +
                quoted(dir_ / "tool.log") + " 2>&1"),
            0)
      << slurp(dir_ / "tool.log");
  const std::string html = slurp(dir_ / "run.html");
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  // Both panels render a chart, not the "no section" note.
  EXPECT_NE(html.find("<h2>Phases</h2>\n<svg"), std::string::npos);
  EXPECT_NE(html.find("<h2>Roofline</h2>\n<svg"), std::string::npos);
  EXPECT_NE(html.find("</html>\n"), std::string::npos);
}

TEST_F(ReportTool, CliRunsCatsUnderItsBoundaryWhateverTheSpelling) {
  // make_scheme folds case, so the boundary must come from the scheme it
  // returns, not from the --scheme string: lower-case names get the
  // Dirichlet z of the CATS family too.
  for (const std::string name : {"nucats", "cats"}) {
    const fs::path log = dir_ / (name + ".log");
    EXPECT_EQ(run(std::string(NUSTENCIL_CLI) + " --scheme=" + name +
                  " --shape=32x32x32 --steps=4 --threads=2 --check --verify > " +
                  quoted(log) + " 2>&1"),
              0)
        << slurp(log);
  }
}

TEST_F(ReportTool, CliRejectsTheRemovedFmaKernelPolicy) {
  // Every kernel is bit-exact; --kernel=fma is an unknown policy.
  const fs::path err = dir_ / "err.txt";
  EXPECT_EQ(run(std::string(NUSTENCIL_CLI) +
                " --scheme NaiveSSE --shape 16x16x16 --steps 1 --kernel=fma"
                " > /dev/null 2> " + quoted(err)),
            2);
  EXPECT_EQ(slurp(err),
            "error: unknown kernel policy 'fma' (expected auto, scalar, sse2 "
            "or avx2)\n");
}

TEST_F(ReportTool, CliRejectsMalformedShapes) {
  // Each extent and each thread count must be a whole decimal integer:
  // "16,16,16" is not a 1-D shape of 16, "2;4" is not 2 threads, and no
  // failed-check text or source location leaks into the message.
  const struct {
    const char* args;
    const char* prefix;
  } cases[] = {
      {"--shape 16,16,16", "error: --shape "},
      {"--sweep-threads '2;4'", "error: --sweep-threads "},
      {"--shape 1e2x16x16", "error: --shape "},
      {"--shape 16x16x16x16", "error: --shape "},
  };
  const fs::path err = dir_ / "err.txt";
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    EXPECT_EQ(run(std::string(NUSTENCIL_CLI) + " --scheme NaiveSSE --steps 1 " +
                  c.args + " > /dev/null 2> " + quoted(err)),
              2);
    const std::string text = slurp(err);
    EXPECT_EQ(text.rfind(c.prefix, 0), 0u) << text;
    EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
    EXPECT_EQ(text.find("(failed:"), std::string::npos) << text;
  }
}

TEST_F(ReportTool, DiffOptionFailsWithOneLineError) {
  // Comparing runs belongs to bench/regress and bench/perf_ledger.
  const fs::path err = dir_ / "err.txt";
  EXPECT_NE(run(std::string(NUSTENCIL_REPORT_TOOL) + " --diff a.json b.json > /dev/null 2> " +
                quoted(err)),
            0);
  const std::string text = slurp(err);
  EXPECT_EQ(text.rfind("error: unknown option --diff", 0), 0u) << text;
  EXPECT_EQ(text.find('\n'), text.size() - 1) << text;
}

}  // namespace
