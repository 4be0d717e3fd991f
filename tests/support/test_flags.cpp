#include "support/flags.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace gridcast {
namespace {

struct Toy {
  std::string name;
  bool loud = false;
};

enum ToyMode : unsigned { kCopy, kList, kRun };

constexpr flags::Mode kModes[] = {
    {"copy", "--copy", "FROM TO"}, {"list", "--list"}, {"run", ""}};

constexpr flags::Flag<Toy> kFlags[] = {
    {"--name", "NAME", 0b111, "a name every mode reads",
     [](Toy& t, const std::string& v) { t.name = v; }},
    {"--loud", "", 0b100, "run loudly",
     [](Toy& t, const std::string&) { t.loud = true; }},
    {"--copy", "", 0b001, "picks copy mode", [](Toy&, const std::string&) {}},
    {"--list", "", 0b010, "picks list mode", [](Toy&, const std::string&) {}},
};

constexpr flags::Tool<Toy> kTool = {"toy", kModes, kFlags};

/// The one line `args` are refused with, or "accepted".
std::string refusal(const std::vector<std::string>& args) {
  Toy t;
  try {
    (void)flags::parse(kTool, args, t);
  } catch (const InvalidInput& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Flags, RowsApplyInTheDefaultMode) {
  Toy t;
  const flags::Parsed p = flags::parse(kTool, {"--name=x", "--loud"}, t);
  EXPECT_EQ(p.mode, kRun);
  EXPECT_EQ(t.name, "x");
  EXPECT_TRUE(t.loud);
  EXPECT_TRUE(p.has("--loud"));
  EXPECT_FALSE(p.has("--copy"));
  EXPECT_TRUE(p.positionals.empty());
}

TEST(Flags, EachMisuseIsOneRefusal) {
  EXPECT_EQ(refusal({"--nope=1"}), "unknown option '--nope=1' (see --help)");
  EXPECT_EQ(refusal({"--name=a", "--name=b"}),
            "option '--name' is given more than once");
  EXPECT_EQ(refusal({"--loud", "--loud"}),
            "option '--loud' is given more than once");
  EXPECT_EQ(refusal({"--loud=yes"}), "option '--loud' takes no value");
  for (const std::string bare : {"--name", "--name="})
    EXPECT_EQ(refusal({bare}), "option '--name' needs a value: --name=...");
  EXPECT_EQ(refusal({"--list", "--loud"}),
            "option '--loud' does not apply to list mode");
  EXPECT_EQ(refusal({"stray"}), "unexpected argument 'stray' (see --help)");
}

TEST(Flags, TheFirstSelectorInTableOrderPicksTheMode) {
  // --copy precedes --list in the table, wherever each stands in argv, so
  // the other selector gets the mode refusal.
  EXPECT_EQ(refusal({"--list", "--copy", "a", "b"}),
            "option '--list' does not apply to copy mode");
  Toy t;
  EXPECT_EQ(flags::parse(kTool, {"--list", "--name=n"}, t).mode, kList);
  EXPECT_EQ(t.name, "n");
}

TEST(Flags, OnlyAModeWithPositionalsTakesThem) {
  Toy t;
  const flags::Parsed p = flags::parse(kTool, {"a", "--copy", "b"}, t);
  EXPECT_EQ(p.mode, kCopy);
  EXPECT_EQ(p.positionals, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(refusal({"--list", "a"}), "unexpected argument 'a' (see --help)");
}

TEST(Flags, HelpListsEveryRowOnceWithItsModes) {
  const std::string text = flags::help(kTool);
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
      ++n;
    return n;
  };
  for (const flags::Flag<Toy>& f : kFlags)
    EXPECT_EQ(count(std::string(f.help)), 1u) << f.name;
  // One usage line per mode that takes positionals, naming them.
  EXPECT_EQ(text.rfind("usage: toy [--FLAG[=VALUE]]...\n"
                       "       toy --copy [--FLAG[=VALUE]]... FROM TO\n",
                       0),
            0u)
      << text;
  EXPECT_EQ(count("else run.\n"), 1u);
  EXPECT_EQ(count("  --name=NAME  a name every mode reads [copy,list,run]\n"),
            1u);
  EXPECT_EQ(count("  --loud       run loudly [run]\n"), 1u);
}

/// flags::run over `args` (argv[0] included) and `body`: the exit status,
/// and what it wrote to each stream.
template <typename Body>
int run(std::vector<std::string> args, Body body, std::string& out,
        std::string& err) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  std::ostringstream o, e;
  const int rc = flags::run(kTool, static_cast<int>(argv.size()), argv.data(),
                            o, e, body);
  out = o.str();
  err = e.str();
  return rc;
}

TEST(Flags, RunIsATwoOrThreeOnARefusalOrAFault) {
  const auto parse_then = [](int rc) {
    return [rc](const std::vector<std::string>& args) {
      Toy t;
      (void)flags::parse(kTool, args, t);
      return rc;
    };
  };
  std::string out, err;
  EXPECT_EQ(run({"toy", "--loud", "--help"}, parse_then(1), out, err), 0);
  EXPECT_EQ(out, flags::help(kTool));
  EXPECT_EQ(err, "");
  EXPECT_EQ(run({"toy", "--loud"}, parse_then(5), out, err), 5);
  EXPECT_EQ(err, "");
  EXPECT_EQ(run({"toy", "--nope"}, parse_then(0), out, err), 2);
  EXPECT_EQ(err, "toy: unknown option '--nope' (see --help)\n");
  EXPECT_EQ(run(
                {"toy"},
                [](const std::vector<std::string>&) -> int {
                  throw std::runtime_error("boom");
                },
                out, err),
            3);
  EXPECT_EQ(err, "toy: internal error: boom\n");
}

}  // namespace
}  // namespace gridcast
