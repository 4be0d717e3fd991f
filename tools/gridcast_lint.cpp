// gridcast_lint — the repo's determinism wall, as a single binary.
//
// The headline claim of this codebase is byte-identical reports across
// shard counts, thread counts and backends.  The runtime suites verify
// that claim; this tool *statically* blocks the ways contributors have
// historically broken it: an unseeded RNG, a wall-clock read in a hot
// path, a type-erased callback allocating per event, a report built by
// iterating an unordered container, or a number read by rules of its
// own.  No libclang — the rules are token/regex checks over a comment-stripped view of each file plus a
// few include-graph constraints, which is exactly enough for the
// invariants below and keeps the tool dependency-free and fast.
//
// Usage (`gridcast_lint --help` prints the flag table):
//   gridcast_lint [--root=DIR] [relative paths...]
//   gridcast_lint --list-rules
//
// Paths default to `src tools`.  Rules are scoped by path *relative to
// the root*, so fixture trees exercise path-scoped rules by mirroring
// the layout (tests/support/lint_fixtures/<case>/src/...).
//
// Every rule is individually suppressible at the offending line with a
// trailing or preceding annotation comment naming the rule, e.g.
//   gridcast-lint: allow(iostream-library)
// on the same line or the line directly above.  Diagnostics are
// one-line, grep- and editor-friendly:
//   <path>:<line>: error: [<rule>] <message>
// Exit status: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
// gridcast-lint: allow(iostream-library) -- the lint CLI prints diagnostics
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

// Header-only: the tool links nothing from the library it judges.
#include "support/error.hpp"
#include "support/flags.hpp"

namespace fs = std::filesystem;

namespace {

namespace flags = gridcast::flags;
using gridcast::InvalidInput;

struct Finding {
  std::string path;  // relative to root, '/' separators
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view scope;  // human-readable path scope
  std::string_view what;
};

constexpr RuleInfo kRules[] = {
    {"rng-source", "everywhere except src/support/rng.*",
     "std::random_device / std::rand / srand / unseeded mt19937 — all "
     "randomness flows through support/rng so streams are seeded and "
     "replayable"},
    {"wall-clock", "src/sim, src/exp",
     "system_clock / high_resolution_clock in simulation or experiment "
     "code — simulated time and report content must not depend on the "
     "host clock (steady_clock wall-timing of *reported wall costs* is "
     "fine)"},
    {"sim-callback", "src/sim",
     "std::function in the simulator — event callbacks must use "
     "InlineCallback (fixed capacity, no type-erased heap allocation)"},
    {"sim-alloc", "src/sim",
     "naked new / make_unique / make_shared / malloc in the simulator — "
     "the event loop is allocation-free; arena growth sites carry an "
     "explicit allow"},
    {"iostream-library", "src (library code)",
     "#include <iostream> in library code — the library reports through "
     "return values and exceptions; only tools/bench/examples own a "
     "terminal"},
    {"unordered-iteration", "src/io, src/exp",
     "unordered_map / unordered_set in report or merge paths — iteration "
     "order feeds report output, which must be deterministic; use "
     "std::map / std::set or sort first"},
    {"registry-lowercase", "src/collective",
     "backend registry names must be lowercase (lookups fold case; the "
     "scheduler registry intentionally differs)"},
    {"layering", "src/support, src/sim, src/serve",
     "include-graph: support/ is the base layer and includes nothing "
     "above it; sim/ must not reach into exp/, io/ or serve/; serve/ sits "
     "on top of sched/exp/io and must not reach into sim/ internals"},
    {"number-parse", "everywhere except src/support/parse.*",
     "std::sto*, strto*, ato* or <charconv> reads — every number in "
     "untrusted text goes through support/parse, so one rule set decides "
     "what is a number and one wording refuses the rest"},
};

bool rule_exists(std::string_view name) {
  for (const auto& r : kRules)
    if (r.name == name) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Source model: the raw line, a "code view" with comments and string/char
// literals blanked (token rules match here, so a rule named in a comment
// or a log string never trips), and a "nostring view" that keeps string
// literals (for rules about the literals themselves, e.g. registry names).

struct SourceFile {
  std::string rel;  // relative path, '/' separators
  std::vector<std::string> raw;
  std::vector<std::string> code;      // comments + strings blanked
  std::vector<std::string> nostring;  // comments blanked, strings kept
  std::vector<std::string> comments;  // comment text only
  std::vector<std::set<std::string>> allows;  // per line, rules allowed
};

enum class View { kCode, kCodeWithStrings, kComments };

/// Project one aspect of the source (code, code+strings, or comments)
/// onto space-padded lines, preserving structure so diagnostics keep
/// their line numbers.  Annotations are parsed from the comments view, so
/// a string literal *describing* an annotation never acts as one.
std::vector<std::string> strip_view(const std::vector<std::string>& lines,
                                    View view) {
  const bool blank_strings = view != View::kCodeWithStrings;
  const bool comments_only = view == View::kComments;
  std::vector<std::string> out;
  out.reserve(lines.size());
  enum class St { kCode, kBlock, kString, kChar };
  St st = St::kCode;
  for (const auto& line : lines) {
    std::string o(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (st) {
        case St::kCode:
          if (c == '/' && next == '/') {
            if (comments_only)
              for (std::size_t k = i; k < line.size(); ++k) o[k] = line[k];
            i = line.size();  // rest of line is a comment
          } else if (c == '/' && next == '*') {
            st = St::kBlock;
            ++i;
          } else if (c == '"') {
            st = St::kString;
            if (!blank_strings) o[i] = c;
          } else if (c == '\'') {
            st = St::kChar;
            if (!blank_strings) o[i] = c;
          } else if (!comments_only) {
            o[i] = c;
          }
          break;
        case St::kBlock:
          if (comments_only) o[i] = c;
          if (c == '*' && next == '/') {
            st = St::kCode;
            ++i;
          }
          break;
        case St::kString:
          if (!blank_strings) o[i] = c;
          if (c == '\\') {
            ++i;
            if (!blank_strings && i < line.size()) o[i] = line[i];
          } else if (c == '"') {
            st = St::kCode;
          }
          break;
        case St::kChar:
          if (!blank_strings) o[i] = c;
          if (c == '\\') {
            ++i;
            if (!blank_strings && i < line.size()) o[i] = line[i];
          } else if (c == '\'') {
            st = St::kCode;
          }
          break;
      }
    }
    // Strings and chars do not span lines in this codebase (no raw string
    // literals in linted trees); a dangling state would smear the rest of
    // the file, so close it at EOL.
    if (st == St::kString || st == St::kChar) st = St::kCode;
    out.push_back(std::move(o));
  }
  return out;
}

/// Parse annotation comments — allow() with a comma-separated rule list,
/// as in the file header — from the comments-only view.  An
/// annotation suppresses findings on its own line and the line below it.
std::vector<std::set<std::string>> parse_allows(
    const std::vector<std::string>& lines, const std::string& rel,
    std::vector<Finding>& findings) {
  static const std::regex re(
      R"(gridcast-lint:\s*allow\(([A-Za-z0-9_,\- ]*)\))");
  std::vector<std::set<std::string>> allows(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, re)) {
      // A malformed annotation would otherwise silently suppress nothing.
      if (lines[i].find("gridcast-lint") != std::string::npos)
        findings.push_back({rel, i + 1, "bad-annotation",
                            "unparseable gridcast-lint annotation (expected "
                            "`gridcast-lint: allow(<rule>)`)"});
      continue;
    }
    std::stringstream ss(m[1].str());
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const auto b = rule.find_first_not_of(' ');
      const auto e = rule.find_last_not_of(' ');
      if (b == std::string::npos) continue;
      rule = rule.substr(b, e - b + 1);
      if (!rule_exists(rule)) {
        findings.push_back({rel, i + 1, "bad-annotation",
                            "allow() names unknown rule '" + rule + "'"});
        continue;
      }
      allows[i].insert(rule);
      if (i + 1 < lines.size()) allows[i + 1].insert(rule);
    }
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Path scoping helpers.  All paths are relative to the lint root.

bool under(const std::string& rel, std::string_view prefix) {
  return rel.rfind(prefix, 0) == 0;
}

bool is_rng_home(const std::string& rel) {
  return under(rel, "src/support/rng.");
}

// ---------------------------------------------------------------------------
// Rules.  Each takes the file and appends findings; suppression is
// handled centrally by the caller.

using Matches = std::vector<std::pair<std::size_t, std::string>>;

void match_token(const SourceFile& f, const std::regex& re,
                 const std::string& msg, Matches& out) {
  for (std::size_t i = 0; i < f.code.size(); ++i)
    if (std::regex_search(f.code[i], re)) out.emplace_back(i, msg);
}

Matches rule_rng_source(const SourceFile& f) {
  Matches out;
  if (is_rng_home(f.rel)) return out;
  static const std::regex device(R"(\brandom_device\b)");
  static const std::regex crand(R"((\bstd\s*::\s*rand\b|\bsrand\s*\())");
  static const std::regex shuffle(R"(\brandom_shuffle\b)");
  // An mt19937 constructed with no seed expression: `mt19937 gen;` or
  // `mt19937 gen{};`.  Seeded constructions have an argument and do not
  // match.  support/rng wraps the engine so call sites never spell it.
  static const std::regex unseeded(
      R"(\bmt19937(_64)?\s+[A-Za-z_]\w*\s*(;|\{\s*\}))");
  match_token(f, device,
              "std::random_device is non-deterministic; seed via "
              "support/rng streams",
              out);
  match_token(f, crand,
              "C rand()/srand() is unseeded global state; use support/rng",
              out);
  match_token(f, shuffle,
              "random_shuffle draws from an unspecified source; use a "
              "seeded shuffle over support/rng",
              out);
  match_token(f, unseeded,
              "unseeded mt19937 engine; construct through support/rng so "
              "the stream is replayable",
              out);
  return out;
}

Matches rule_wall_clock(const SourceFile& f) {
  Matches out;
  if (!under(f.rel, "src/sim/") && !under(f.rel, "src/exp/")) return out;
  static const std::regex re(R"(\b(system_clock|high_resolution_clock)\b)");
  match_token(f, re,
              "host wall clock in a sim/exp path; simulated time is "
              "engine time and wall costs use steady_clock",
              out);
  return out;
}

Matches rule_sim_callback(const SourceFile& f) {
  Matches out;
  if (!under(f.rel, "src/sim/")) return out;
  static const std::regex re(R"(\bstd\s*::\s*function\b)");
  match_token(f, re,
              "std::function in the simulator; use sim::InlineCallback "
              "(no per-event type-erasure allocation)",
              out);
  return out;
}

Matches rule_sim_alloc(const SourceFile& f) {
  Matches out;
  if (!under(f.rel, "src/sim/")) return out;
  // Naked `new T` allocates; placement `new (addr) T` constructs into the
  // arena and is the simulator's bread and butter — skip `new (`.
  static const std::regex naked(R"((^|[^:\w])new\s+[A-Za-z_:])");
  static const std::regex maker(R"(\bmake_(unique|shared)\w*\s*<)");
  static const std::regex cmalloc(R"(\b(malloc|calloc|realloc)\s*\()");
  match_token(f, naked,
              "heap allocation in the simulator; events live in the "
              "engine arena (placement new) — annotate growth sites",
              out);
  match_token(f, maker,
              "make_unique/make_shared in the simulator hot path; the "
              "event loop must be allocation-free — annotate growth sites",
              out);
  match_token(f, cmalloc, "C allocation in the simulator", out);
  return out;
}

Matches rule_iostream_library(const SourceFile& f) {
  Matches out;
  if (!under(f.rel, "src/")) return out;
  static const std::regex re(R"(#\s*include\s*<iostream>)");
  match_token(f, re,
              "<iostream> in library code; return values/exceptions "
              "report errors, ostream& parameters print — terminals "
              "belong to tools and benches",
              out);
  return out;
}

Matches rule_unordered_iteration(const SourceFile& f) {
  Matches out;
  if (!under(f.rel, "src/io/") && !under(f.rel, "src/exp/")) return out;
  static const std::regex re(R"(\bunordered_(map|set|multimap|multiset)\b)");
  match_token(f, re,
              "unordered container in a report/merge path; iteration "
              "order would leak into report bytes — use std::map/std::set "
              "or sort before emitting",
              out);
  return out;
}

Matches rule_registry_lowercase(const SourceFile& f) {
  Matches out;
  if (!under(f.rel, "src/collective/")) return out;
  // Registration calls: `.add("name", ...)` / `->add("name", ...)`.  The
  // first string literal is the canonical name; scan the nostring view so
  // the literal is visible but commented-out code is not.
  for (std::size_t i = 0; i < f.nostring.size(); ++i) {
    const std::string& line = f.nostring[i];
    for (std::size_t pos = line.find("add("); pos != std::string::npos;
         pos = line.find("add(", pos + 1)) {
      if (pos < 1) continue;
      const char prev = line[pos - 1];
      const bool member_call =
          prev == '.' || (pos >= 2 && prev == '>' && line[pos - 2] == '-');
      if (!member_call) continue;
      // The name literal may sit on this line or the next (clang-format
      // wraps long registrations).
      for (std::size_t j = i; j < std::min(i + 2, f.nostring.size()); ++j) {
        const std::string& cand = f.nostring[j];
        const std::size_t q0 = cand.find('"', j == i ? pos : 0);
        if (q0 == std::string::npos) continue;
        const std::size_t q1 = cand.find('"', q0 + 1);
        if (q1 == std::string::npos) break;
        const std::string name = cand.substr(q0 + 1, q1 - q0 - 1);
        const bool lower =
            std::all_of(name.begin(), name.end(), [](unsigned char c) {
              return !std::isupper(c);
            });
        if (!lower)
          out.emplace_back(j, "registry name '" + name +
                                  "' must be lowercase (backend lookups "
                                  "fold case)");
        break;
      }
      break;  // one registration per line is the repo idiom
    }
  }
  return out;
}

Matches rule_layering(const SourceFile& f) {
  Matches out;
  static const std::regex inc(R"(#\s*include\s*\"([^\"]+)\")");
  const bool in_support = under(f.rel, "src/support/");
  const bool in_sim = under(f.rel, "src/sim/");
  const bool in_serve = under(f.rel, "src/serve/");
  if (!in_support && !in_sim && !in_serve) return out;
  // Include operands are string literals — scan the view that keeps them.
  for (std::size_t i = 0; i < f.nostring.size(); ++i) {
    std::smatch m;
    std::string line = f.nostring[i];
    if (!std::regex_search(line, m, inc)) continue;
    const std::string inc_path = m[1].str();
    if (in_support && !under(inc_path, "support/"))
      out.emplace_back(i, "support/ is the base layer; it must not "
                          "include '" +
                              inc_path + "'");
    if (in_sim && (under(inc_path, "exp/") || under(inc_path, "io/") ||
                   under(inc_path, "serve/")))
      out.emplace_back(i, "sim/ must not depend on '" + inc_path +
                              "' (exp/io/serve sit above the simulator)");
    if (in_serve && under(inc_path, "sim/"))
      out.emplace_back(i, "serve/ must not depend on '" + inc_path +
                              "' (the serving layer consumes the simulator "
                              "through collective backends, never directly)");
  }
  return out;
}

Matches rule_number_parse(const SourceFile& f) {
  Matches out;
  if (under(f.rel, "src/support/parse.")) return out;
  // Spelt with groups, so a text search for these calls finds only calls.
  static const std::regex re(
      R"(\b(sto(i|l|ul|ll|ull|f|d|ld)|strto(l|ul|ll|ull|f|d|ld|imax|umax))"
      R"(|ato(i|l|ll|f)|from_(chars))\s*\()");
  match_token(f, re,
              "number read outside support/parse; use parse_count or "
              "parse_decimal",
              out);
  return out;
}

// ---------------------------------------------------------------------------

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx";
}

SourceFile load(const fs::path& root, const fs::path& abs,
               std::vector<Finding>& findings) {
  SourceFile f;
  f.rel = fs::relative(abs, root).generic_string();
  std::ifstream in(abs);
  if (!in) throw InvalidInput("cannot read " + abs.string());
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    f.raw.push_back(std::move(line));
  }
  f.code = strip_view(f.raw, View::kCode);
  f.nostring = strip_view(f.raw, View::kCodeWithStrings);
  f.comments = strip_view(f.raw, View::kComments);
  f.allows = parse_allows(f.comments, f.rel, findings);
  return f;
}

void lint_file(const SourceFile& f, std::vector<Finding>& findings) {
  struct Bound {
    std::string_view rule;
    Matches (*fn)(const SourceFile&);
  };
  static constexpr Bound kBound[] = {
      {"rng-source", rule_rng_source},
      {"wall-clock", rule_wall_clock},
      {"sim-callback", rule_sim_callback},
      {"sim-alloc", rule_sim_alloc},
      {"iostream-library", rule_iostream_library},
      {"unordered-iteration", rule_unordered_iteration},
      {"registry-lowercase", rule_registry_lowercase},
      {"layering", rule_layering},
      {"number-parse", rule_number_parse},
  };
  for (const auto& b : kBound) {
    for (auto& [line, msg] : b.fn(f)) {
      if (f.allows[line].contains(std::string(b.rule))) continue;
      findings.push_back({f.rel, line + 1, std::string(b.rule), msg});
    }
  }
}

struct LintCli {
  std::string root = ".";
};

enum Mode : unsigned { kList, kLint };

constexpr flags::Mode kModes[] = {{"list", "--list-rules"},
                                  {"lint", "", "[PATH...]"}};

constexpr flags::Flag<LintCli> kFlags[] = {
    {"--root", "DIR", 1U << kLint,
     "lint each PATH (default: src tools) under DIR (default: .)",
     [](auto& c, auto& v) { c.root = v; }},
    {"--list-rules", "", 1U << kList, "print each rule, its scope and why",
     [](auto&, auto&) {}},
};

constexpr flags::Tool<LintCli> kTool = {"gridcast_lint", kModes, kFlags};

int lint_main(const std::vector<std::string>& args) {
  LintCli cli;
  const flags::Parsed parsed = flags::parse(kTool, args, cli);
  if (parsed.mode == kList) {
    for (const auto& r : kRules)
      std::cout << r.name << "  [" << r.scope << "]\n    " << r.what << '\n';
    return 0;
  }
  std::vector<std::string> paths = parsed.positionals;
  if (paths.empty()) paths = {"src", "tools"};

  std::error_code ec;
  const fs::path root = fs::canonical(cli.root, ec);
  if (ec) throw InvalidInput("bad --root: " + ec.message());

  std::vector<fs::path> files;
  for (const auto& p : paths) {
    const fs::path abs = root / p;
    if (fs::is_regular_file(abs)) {
      files.push_back(abs);
    } else if (fs::is_directory(abs)) {
      for (const auto& e : fs::recursive_directory_iterator(abs))
        if (e.is_regular_file() && lintable(e.path()))
          files.push_back(e.path());
    } else {
      throw InvalidInput("no such path under root: " + p);
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const auto& file : files)
    lint_file(load(root, file, findings), findings);

  for (const auto& fnd : findings)
    std::cout << fnd.path << ':' << fnd.line << ": error: [" << fnd.rule
              << "] " << fnd.message << '\n';
  if (!findings.empty()) {
    std::cerr << "gridcast_lint: " << findings.size() << " finding(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flags::run(kTool, argc, argv, std::cout, std::cerr, lint_main);
}
