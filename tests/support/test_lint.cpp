// The gridcast_lint contract, pinned: each rule fires on its seeded
// fixture tree with a one-line diagnostic of the exact documented shape,
// the allow() annotation suppresses it, and clean trees (including ones
// that merely *mention* forbidden tokens in comments or strings) exit 0.
//
// GRIDCAST_LINT_BIN / GRIDCAST_LINT_FIXTURES come from the build: the
// suite drives the real binary, not a reimplementation of its rules.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

LintRun run_lint(const std::string& fixture) {
  const std::string cmd = std::string(GRIDCAST_LINT_BIN) + " --root=" +
                          std::string(GRIDCAST_LINT_FIXTURES) + "/" +
                          fixture + " src 2>&1";
  LintRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// The documented diagnostic grammar: `<path>:<line>: error: [<rule>] ...`.
std::string prefix(const std::string& file, int line, const std::string& rule) {
  return file + ":" + std::to_string(line) + ": error: [" + rule + "] ";
}

TEST(GridcastLint, CleanTreePasses) {
  const LintRun r = run_lint("clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "");
}

TEST(GridcastLint, CommentsAndStringsNeverTrip) {
  const LintRun r = run_lint("pass_comment_immunity");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "");
}

TEST(GridcastLint, AllowAnnotationSuppressesSameLineAndLineAbove) {
  const LintRun r = run_lint("pass_suppressed");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "");
}

struct FailCase {
  const char* fixture;
  const char* file;
  int line;
  const char* rule;
};

// One seeded violation per rule; the diagnostic must name the exact
// file, line and rule, one line per finding.
constexpr FailCase kFailCases[] = {
    {"fail_rng_device", "src/sched/seeded.cpp", 4, "rng-source"},
    {"fail_rng_unseeded", "src/exp/sampler.cpp", 4, "rng-source"},
    {"fail_wall_clock", "src/sim/timing.cpp", 4, "wall-clock"},
    {"fail_sim_callback", "src/sim/dispatch.hpp", 5, "sim-callback"},
    {"fail_sim_alloc", "src/sim/events.cpp", 4, "sim-alloc"},
    {"fail_iostream", "src/io/report.cpp", 1, "iostream-library"},
    {"fail_registry_case", "src/collective/reg.cpp", 4, "registry-lowercase"},
    {"fail_layering_support", "src/support/helper.hpp", 2, "layering"},
    {"fail_layering_sim", "src/sim/leak.cpp", 1, "layering"},
    {"fail_layering_serve", "src/serve/daemon.cpp", 1, "layering"},
    {"fail_layering_sim_serve", "src/sim/feedback.cpp", 1, "layering"},
    {"fail_bad_allow", "src/sched/typo.cpp", 2, "bad-annotation"},
    {"fail_number_parse", "src/io/latency.cpp", 4, "number-parse"},
};

class GridcastLintFail : public ::testing::TestWithParam<FailCase> {};

TEST_P(GridcastLintFail, FailsWithPinnedDiagnostic) {
  const FailCase& c = GetParam();
  const LintRun r = run_lint(c.fixture);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string want = prefix(c.file, c.line, c.rule);
  EXPECT_NE(r.output.find(want), std::string::npos)
      << "expected a diagnostic starting `" << want << "` in:\n" << r.output;
  // The diagnostic is one line: the finding's prefix appears exactly once
  // and the line it starts never wraps (no embedded newline before the
  // message ends — i.e. the next newline terminates the finding).
  EXPECT_EQ(r.output.find(want), r.output.rfind(want)) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Rules, GridcastLintFail,
                         ::testing::ValuesIn(kFailCases));

TEST(GridcastLint, UnorderedIterationFlagsEveryUse) {
  const LintRun r = run_lint("fail_unordered");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Declaration and range-for both hit: the rule is per-occurrence, so
  // moving the loop away from the declaration cannot dodge it.
  EXPECT_NE(r.output.find(prefix("src/exp/merge.cpp", 2,
                                 "unordered-iteration")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(prefix("src/exp/merge.cpp", 4,
                                 "unordered-iteration")),
            std::string::npos)
      << r.output;
}

}  // namespace
