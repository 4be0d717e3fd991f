#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

/// One flag table per command-line tool: its modes and its flags, declared
/// once.  The mode is the first, in table order, whose selector flag is
/// given, else the last.  `parse` refuses in one InvalidInput line an
/// unknown flag, a repeated one, a switch given a value, a value flag given
/// none, a flag the mode does not read and a positional argument the mode
/// does not take.  `help` prints the table; `run` is a tool's whole `main`.
namespace gridcast::flags {

/// A set of modes: bit m stands for the tool's m-th mode.
using Modes = std::uint32_t;

struct Mode {
  std::string_view name;
  std::string_view selector;  ///< the flag that picks it; empty = default
  /// What its positional arguments are, e.g. "OUT SHARD..."; empty = it
  /// takes none.
  std::string_view positionals = {};
};

template <typename Cli>
struct Flag {
  std::string_view name;   ///< e.g. "--clusters"
  std::string_view value;  ///< placeholder, e.g. "LIST"; empty = a switch
  Modes modes;             ///< the modes that read it
  std::string_view help;
  void (*apply)(Cli& cli, const std::string& value);  ///< "" for a switch
};

template <typename Cli>
struct Tool {
  std::string_view name;
  std::span<const Mode> modes;
  std::span<const Flag<Cli>> flags;
};

/// What `parse` found besides what the rows applied.
struct Parsed {
  std::size_t mode = 0;                  ///< index into the tool's modes
  std::vector<std::string> positionals;  ///< in order
  std::set<std::string_view> given;      ///< the flags given

  [[nodiscard]] bool has(std::string_view f) const { return given.contains(f); }
};

/// Apply `args` (without the program name) to `cli` through `tool`'s
/// rows, in order.  Throws InvalidInput, ready for stderr.
template <typename Cli>
Parsed parse(const Tool<Cli>& tool, const std::vector<std::string>& args,
             Cli& cli) {
  const auto name_of = [](std::string_view arg) {
    return arg.substr(0, arg.find('='));
  };
  Parsed p;
  for (; p.mode + 1 < tool.modes.size(); ++p.mode)
    if (std::any_of(args.begin(), args.end(), [&](const std::string& a) {
          return name_of(a) == tool.modes[p.mode].selector;
        }))
      break;
  const Mode& mode = tool.modes[p.mode];
  for (const std::string& arg : args) {
    if (!arg.starts_with("--")) {
      if (mode.positionals.empty())
        throw InvalidInput("unexpected argument '" + arg + "' (see --help)");
      p.positionals.push_back(arg);
      continue;
    }
    const auto row = std::find_if(
        tool.flags.begin(), tool.flags.end(),
        [&](const Flag<Cli>& f) { return f.name == name_of(arg); });
    if (row == tool.flags.end())
      throw InvalidInput("unknown option '" + arg + "' (see --help)");
    const std::string flag = std::string("option '").append(row->name) + "'";
    const std::size_t eq = arg.find('=');
    if (p.has(row->name))
      throw InvalidInput(flag + " is given more than once");
    if (row->value.empty() && eq != std::string::npos)
      throw InvalidInput(flag + " takes no value");
    if (!row->value.empty() &&
        (eq == std::string::npos || eq + 1 == arg.size()))
      throw InvalidInput((flag + " needs a value: ").append(row->name) +
                         "=...");
    if ((row->modes >> p.mode & 1U) == 0)
      throw InvalidInput((flag + " does not apply to ").append(mode.name) +
                         " mode");
    p.given.insert(row->name);
    row->apply(cli, eq == std::string::npos ? "" : arg.substr(eq + 1));
  }
  return p;
}

/// The `--help` text: a usage line per mode that takes positional
/// arguments, then every row once, with the modes that read it.
template <typename Cli>
std::string help(const Tool<Cli>& tool) {
  std::vector<std::string> spelled;
  std::size_t width = 0;
  for (const Flag<Cli>& f : tool.flags) {
    spelled.push_back(std::string(f.name).append(f.value.empty() ? "" : "=")
                                          .append(f.value));
    width = std::max(width, spelled.back().size());
  }
  const auto usage = [&](std::string_view selector,
                         std::string_view positionals) {
    std::string line(tool.name);
    if (!selector.empty()) line.append(" ").append(selector);
    line.append(" [--FLAG[=VALUE]]...");
    if (!positionals.empty()) line.append(" ").append(positionals);
    return line + "\n";
  };
  std::string out = "usage: " + usage("", tool.modes.back().positionals);
  for (const Mode& m : tool.modes)
    if (!m.selector.empty() && !m.positionals.empty())
      out += "       " + usage(m.selector, m.positionals);
  out.append("The mode is the first whose flag is given, else ");
  out.append(tool.modes.back().name).append(".\n\n");
  for (std::size_t i = 0; i < spelled.size(); ++i) {
    const Flag<Cli>& f = tool.flags[i];
    std::string in;
    for (std::size_t m = 0; m < tool.modes.size(); ++m)
      if ((f.modes >> m & 1U) != 0)
        in.append(in.empty() ? "" : ",").append(tool.modes[m].name);
    out.append("  " + spelled[i]).append(width + 2 - spelled[i].size(), ' ');
    out.append(f.help).append(" [" + in + "]\n");
  }
  return out;
}

/// A tool's whole `main`: `--help` or `-h` prints `help(tool)` to `out`
/// (exit 0); else `body(args)` gives the exit status, and what it throws
/// is one `<tool>: ...` line on `err`, exit 2 for an InvalidInput and 3
/// otherwise.  Library code owns no terminal: the caller passes streams.
template <typename Cli, typename Body>
int run(const Tool<Cli>& tool, int argc, char** argv, std::ostream& out,
        std::ostream& err, Body body) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a != "--help" && a != "-h") continue;
    out << help(tool);
    return 0;
  }
  try {
    return body(args);
  } catch (const InvalidInput& e) {
    err << tool.name << ": " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << tool.name << ": internal error: " << e.what() << '\n';
    return 3;
  }
}

}  // namespace gridcast::flags
