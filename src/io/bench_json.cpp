#include "io/bench_json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <type_traits>
#include <variant>

#include "collective/verb.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace gridcast::io {

namespace {

// ------------------------------------------------------------------ values
//
// One overload set per direction serves every header key and channel:
// strings, unsigned integers, doubles and arrays of them.

/// Print a double exactly as the writer always has: 17 significant digits
/// via ostream.  Parsing then re-printing the same value reproduces the
/// bytes, which is what makes shard merging byte-identical.  The caller's
/// precision is restored — reports also go to long-lived streams (stdout).
void put_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "null";
    return;
  }
  const auto saved = os.precision(17);
  os << v;
  os.precision(saved);
}

void put_value(std::ostream& os, const std::string& s) {
  os << '"' << json_escape(s) << '"';
}

template <std::unsigned_integral T>
void put_value(std::ostream& os, T v) {
  os << v;
}

template <typename T>
void put_value(std::ostream& os, const std::vector<T>& xs) {
  os << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i ? ", " : "");
    put_value(os, xs[i]);
  }
  os << "]";
}

/// A value as a diagnostic quotes it.
std::string value_text(const std::string& s) { return "'" + s + "'"; }

template <typename Number>
std::string value_text(Number v) {
  std::ostringstream os;
  put_value(os, v);
  return os.str();
}

/// The row of `table` whose `column` is `key`, or null.
template <typename Row, std::size_t N>
const Row* find_row(const Row (&table)[N], std::string_view Row::*column,
                    std::string_view key) {
  for (const Row& row : table)
    if (row.*column == key) return &row;
  return nullptr;
}

/// Calls `f` with the member of `x` that `field`, a variant of member
/// pointers, names.
template <typename Object, typename Field, typename F>
decltype(auto) with_field(Object& x, const Field& field, F f) {
  return std::visit([&](auto m) -> decltype(auto) { return f(x.*m); }, field);
}

// ----------------------------------------------------------------- reading

/// A minimal recursive-descent reader covering the JSON write_bench_json
/// emits (objects, arrays, strings, numbers, null), which reads each value
/// straight into its field.  Strict: trailing garbage, unknown or repeated
/// keys and type mismatches all throw InvalidInput with position context.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidInput("bench JSON: " + what + " at offset " +
                       std::to_string(pos_));
  }

  /// Reads an object, calling `member(key)` to read each member's value,
  /// and returns its keys.
  template <typename Member>
  std::vector<std::string> object(const char* what, Member member) {
    std::vector<std::string> keys;
    sequence(what, '{', '}', [&] {
      keys.push_back(string());
      if (std::count(keys.begin(), keys.end(), keys.back()) > 1)
        fail("repeated key '" + keys.back() + "'");
      skip_ws();
      expect(':');
      member(keys.back());
    });
    return keys;
  }

  void read(const char* what, std::string& out) {
    skip_ws();
    if (peek() != '"') wrong_type(what);
    out = string();
  }

  /// A number, or null for NaN.
  void read(const char* what, double& out) {
    skip_ws();
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      out = std::numeric_limits<double>::quiet_NaN();
      return;
    }
    out = number(what, parse_decimal);
  }

  /// A count, exact to 2^64 - 1 (full-width RNG seeds) and refused, not
  /// truncated, above a narrower field's range (a cluster id).
  template <std::unsigned_integral T>
  void read(const char* what, T& out) {
    skip_ws();
    out = number(what, parse_count<T>);
  }

  /// A series: its name and channels (read with the grammar below).
  void read(const char* what, BenchSeries& s);

  template <typename T>
  void read(const char* what, std::vector<T>& out) {
    out.clear();
    sequence(what, '[', ']', [&] { read(what, out.emplace_back()); });
  }

  /// Only whitespace may follow the report.
  void end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
  }

 private:
  [[noreturn]] void wrong_type(const char* what) const {
    fail(std::string("'") + what + "' has the wrong type");
  }

  void skip_ws() {
    pos_ = std::min(text_.find_first_not_of(" \t\n\v\f\r", pos_),
                    text_.size());
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  /// `open item (, item)* close` or `open close`.
  template <typename Item>
  void sequence(const char* what, char open, char close, Item item) {
    skip_ws();
    if (peek() != open) wrong_type(what);
    ++pos_;
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      item();
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(close);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The writer only \u-escapes control characters (< 0x20) and
          // passes UTF-8 through, so an escape beyond ASCII is refused.
          unsigned code = 0;
          const char* digits = text_.data() + pos_;
          const char* end =
              digits + std::min<std::size_t>(4, text_.size() - pos_);
          // gridcast-lint: allow(number-parse) -- hex digits, not a number
          if (std::from_chars(digits, end, code, 16).ptr != digits + 4 ||
              code >= 0x80)
            fail("bad \\u escape");
          pos_ += 4;
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// A number's token (signs, digits, '.' and exponents) read by
  /// `parse`, with any refusal placed at its offset.
  template <typename T>
  T number(const char* what, T (*parse)(std::string_view, std::string_view)) {
    const std::size_t start = pos_;
    pos_ = std::min(text_.find_first_not_of("+-.0123456789Ee", pos_),
                    text_.size());
    if (pos_ == start) wrong_type(what);
    try {
      return parse(text_.substr(start, pos_ - start), what);
    } catch (const InvalidInput& e) {
      fail(e.what());
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool contains(const std::vector<std::string>& keys, std::string_view key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

}  // namespace

const BenchSeries* BenchReport::find_series(std::string_view name) const {
  for (const auto& s : series)
    if (s.name == name) return &s;
  return nullptr;
}

bool BenchReport::shard_form() const noexcept {
  for (const auto& s : series)
    if (!s.block_sum_s.empty()) return true;
  return false;
}

std::size_t BenchReport::block_count() const {
  GRIDCAST_ASSERT(block_iters > 0, "block_count needs block_iters > 0");
  return static_cast<std::size_t>((iterations + block_iters - 1) /
                                  block_iters);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

// ----------------------------------------------------------------- grammar
//
// The report grammar is stated once, in the tables below: the channel
// table (what a series may carry and how the gate compares it), the kind
// table (what each report kind's header and series carry) and the header
// list (when the writer emits each header key).  The writer, the reader,
// their shared validator and compare_bench all read them.

/// How compare_bench gates a channel's cells.
enum class Gate : std::uint8_t {
  kRtol,     ///< |current - baseline| <= makespan_rtol * |baseline|
  kExact,    ///< any difference: deterministic integer counts
  kFloor,    ///< current >= baseline / throughput_factor (higher is better)
  kCeiling,  ///< current <= baseline * wall_factor (host-dependent costs)
  kNone,     ///< shard partials: merged, never compared
};

// A channel's shape: one value per series (NaN = absent), a cell per axis
// point, or per axis point a row of iteration-block partials.
using Scalar = double BenchSeries::*;
using Points = std::vector<double> BenchSeries::*;
using Blocks = std::vector<std::vector<double>> BenchSeries::*;

struct Channel {
  std::string_view key;  ///< the JSON key, spelled like the BenchSeries field
  std::variant<Scalar, Points, Blocks> field;
  Gate gate;
  /// A series carries exactly one value channel.  The kind table and the
  /// shard form then decide which: hits ride on makespans, block hits on
  /// block sums, selection costs on a sweep's makespans.
  bool value;
  std::string_view label;  ///< names the channel in a gate problem
  std::string_view unit;   ///< follows each number in a gate problem
};

/// In the order the writer emits them.
constexpr Channel kChannels[] = {
    // Host-dependent: scheduling cost (sweeps) or a latency (serve).
    {"wall_time_s", &BenchSeries::wall_time_s, Gate::kCeiling, false,
     "wall_time_s", "s"},
    // Monte-Carlo shard partials: per (point, iteration block), the sum of
    // completion times and the hit count.
    {"block_sum_s", &BenchSeries::block_sum_s, Gate::kNone, true, "", ""},
    {"block_hits", &BenchSeries::block_hits, Gate::kNone, false, "", ""},
    // Events, sends or messages per second (micro), requests per second
    // (serve): machine-dependent where makespans are exact, so a floor.
    {"throughput", &BenchSeries::throughput, Gate::kFloor, true, "throughput",
     " items/s"},
    // Completion times (sweeps), mean completions (Monte-Carlo), exact
    // counters (serve).  The model is deterministic; the tolerance only
    // absorbs cross-platform float noise.
    {"makespan_s", &BenchSeries::makespan_s, Gate::kRtol, true, "makespan",
     ""},
    // Hit counts are deterministic integers under a fixed seed.
    {"hits", &BenchSeries::hits, Gate::kExact, false, "hit-count", ""},
    // Seconds to select one schedule per ladder point, host-dependent like
    // wall_time_s.
    {"micro_scheduling_cost_s", &BenchSeries::micro_scheduling_cost_s,
     Gate::kCeiling, false, "micro_scheduling_cost_s", "s"},
};

/// The bit set of the named channels; a misspelt key fails to compile.
constexpr unsigned channel_bits(std::initializer_list<std::string_view> keys) {
  unsigned bits = 0;
  for (const std::string_view key : keys) {
    const unsigned before = bits;
    for (std::size_t c = 0; c < std::size(kChannels); ++c)
      if (kChannels[c].key == key) bits |= 1u << c;
    if (bits == before) throw LogicError("unknown channel key");
  }
  return bits;
}

struct Kind {
  std::string_view bench;
  std::string_view label;  ///< names the kind in "<label>-only key"
  std::string_view axis;   ///< the axis' JSON key
  std::string_view point;  ///< names an axis point in a diagnostic
  bool verb;               ///< carries "verb" (when it is not bcast)
  /// Carries "shards"/"shard" when sharded.  A shard owns (point x
  /// series) cells, foreign cells null, or, where the kind's series may
  /// carry block partials, (point x iteration-block) partials.
  bool shards;
  /// Monte-Carlo draws: carries "seed" and "iterations", and
  /// "block_iters" in shard form.
  bool draws;
  unsigned channels;  ///< the channels its series may carry
};

constexpr Kind kKinds[] = {
    // Message-size sweeps (Figs. 5/6): a completion time per size.
    {"race", "sweep", "sizes", "size", true, true, false,
     channel_bits({"wall_time_s", "makespan_s", "micro_scheduling_cost_s"})},
    // Monte-Carlo races (Figs. 1-4), broadcast by definition: a mean
    // completion and a hit count per cluster count; a shard carries block
    // partials instead.
    {"montecarlo", "montecarlo", "clusters", "cluster-count", false, true,
     true, channel_bits({"block_sum_s", "block_hits", "makespan_s", "hits"})},
    // The simulator throughput lane measures the simulator, not a
    // collective: each series is one whole-machine measurement per
    // workload scale.
    {"micro", "micro", "sizes", "size", false, false, false,
     channel_bits({"throughput"})},
    // Request-log replays over a one-point request-count axis: exact
    // counters in makespan_s, requests/s in throughput, latencies in
    // wall_time_s beside a null value cell.  A log mixes verbs and roots,
    // and one replay is one whole-service measurement.
    {"serve", "serve", "requests", "request-count", false, false, false,
     channel_bits({"wall_time_s", "throughput", "makespan_s"})},
};

const Kind& kind_of(const BenchReport& r) {
  const Kind* kind = find_row(kKinds, &Kind::bench, r.bench);
  GRIDCAST_ASSERT(kind != nullptr, "unknown bench kind '" + r.bench + "'");
  return *kind;
}

/// "'<key>' is a <labels>-only key", naming every kind `has` selects.
template <typename Has>
std::string only_in(std::string_view key, Has has) {
  std::string labels;
  for (const Kind& k : kKinds)
    if (has(k)) labels += (labels.empty() ? "" : "/") + std::string(k.label);
  return "'" + std::string(key) + "' is a " + labels + "-only key";
}

// The header's unsigned fields are all read as 64-bit integers.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

struct HeaderKey {
  std::string_view key;
  /// Names a mismatch between two reports; empty for the shard
  /// coordinates, which the shards of one run do not share.
  std::string_view label;
  std::variant<std::string BenchReport::*, ClusterId BenchReport::*,
               std::uint64_t BenchReport::*, double BenchReport::*>
      field;
  /// The writer's rule for an optional key (null: every report carries
  /// it).  The reader accepts the key exactly when the parsed report
  /// carries it.
  bool (*carried)(const BenchReport&);
};

bool measured(const BenchReport& r) { return r.mode == "measured"; }
bool sharded(const BenchReport& r) { return r.shards > 1; }

/// In the order the writer emits them.
constexpr HeaderKey kHeader[] = {
    {"bench", "bench kind", &BenchReport::bench, nullptr},
    {"grid", "grid", &BenchReport::grid, nullptr},
    {"mode", "mode", &BenchReport::mode, nullptr},
    // The default verb is omitted so broadcast reports keep the exact
    // bytes they had before the verb axis existed.
    {"verb", "verb", &BenchReport::verb,
     [](const BenchReport& r) { return r.verb != "bcast"; }},
    {"root", "root", &BenchReport::root, nullptr},
    // Measured numbers are only comparable under one (seed, jitter).
    // Monte-Carlo races record the seed whatever the mode: the instance
    // draws depend on it even when the backend is deterministic.
    {"seed", "seed/jitter", &BenchReport::seed,
     [](const BenchReport& r) { return measured(r) || kind_of(r).draws; }},
    {"jitter", "seed/jitter", &BenchReport::jitter, measured},
    {"iterations", "iteration-count", &BenchReport::iterations,
     [](const BenchReport& r) { return kind_of(r).draws; }},
    // The block partition is an artefact of sharding; merged (final)
    // reports drop it so they are byte-identical to an unsharded run.
    {"block_iters", "block-size", &BenchReport::block_iters,
     [](const BenchReport& r) { return r.shard_form(); }},
    {"shards", "", &BenchReport::shards, sharded},
    {"shard", "", &BenchReport::shard, sharded},
};

bool carries(const HeaderKey& h, const BenchReport& r) {
  return h.carried == nullptr || h.carried(r);
}

bool absent(double v) { return std::isnan(v); }

template <typename T>
bool absent(const std::vector<T>& xs) {
  return xs.empty();
}

bool present(const BenchSeries& s, const Channel& ch) {
  return !with_field(s, ch.field, [](const auto& v) { return absent(v); });
}

/// Whether a channel's value covers the axis (partials: and the blocks).
bool covers(double, const BenchReport&) { return true; }

bool covers(const std::vector<double>& cells, const BenchReport& r) {
  return cells.size() == r.sizes.size();
}

bool covers(const std::vector<std::vector<double>>& rows,
            const BenchReport& r) {
  return rows.size() == r.sizes.size() &&
         std::all_of(rows.begin(), rows.end(), [&](const auto& row) {
           return row.size() == r.block_count();
         });
}

/// The cells compare_bench gates: a present wall time or a row of cells.
std::span<const double> gated(const double& v) {
  return {&v, std::isnan(v) ? 0u : 1u};
}

std::span<const double> gated(const std::vector<double>& cells) {
  return cells;
}

std::span<const double> gated(const std::vector<std::vector<double>>&) {
  return {};  // block partials are merged, never compared
}

}  // namespace

std::string bench_violation(const BenchReport& r) {
  const Kind* kind = find_row(kKinds, &Kind::bench, r.bench);
  if (kind == nullptr) return "unknown bench kind '" + r.bench + "'";
  if (r.sizes.empty())
    return "the '" + std::string(kind->axis) + "' axis is missing or empty";
  if (r.shards == 0 || r.shard >= r.shards) return "shard index out of range";
  // Header fields a kind does not carry keep their defaults.
  if (!kind->verb && r.verb != "bcast")
    return only_in("verb", [](const Kind& k) { return k.verb; });
  if (!kind->shards && r.shards != 1)
    return only_in("shards", [](const Kind& k) { return k.shards; });
  if (!kind->draws && r.iterations != 0)
    return only_in("iterations", [](const Kind& k) { return k.draws; });
  if (kind->draws && r.iterations == 0)
    return std::string(kind->bench) + " report needs iterations >= 1";
  for (const auto& s : r.series)
    for (std::size_t c = 0; c < std::size(kChannels); ++c)
      if (present(s, kChannels[c]) && (kind->channels >> c & 1u) == 0)
        return only_in(kChannels[c].key, [c](const Kind& k) {
          return (k.channels >> c & 1u) != 0;
        });
  // A sharded report of a kind whose series may carry block partials
  // carries them (shard form); every other report carries final values.
  const bool blocks = r.shard_form();
  constexpr unsigned partials = channel_bits({"block_sum_s"});
  if (blocks != ((kind->channels & partials) != 0 && r.shards > 1))
    return blocks ? "shard-form report without a shard partition"
                  : "sharded " + std::string(kind->bench) +
                        " report without block partials";
  if (blocks != (r.block_iters != 0))
    return blocks ? "shard-form report needs 'block_iters' >= 1"
                  : "'block_iters' without shard-form series data";
  for (const auto& s : r.series) {
    const std::string series = "series '" + s.name + "' ";
    int values = 0;
    for (const Channel& ch : kChannels) {
      if (!present(s, ch)) continue;
      const std::string key(ch.key);
      if (std::holds_alternative<Blocks>(ch.field) != blocks)
        return series + "mixes shard-form and final-form data";
      if (ch.value) ++values;
      if (!with_field(s, ch.field,
                      [&](const auto& v) { return covers(v, r); }))
        return series + key + " does not cover the " +
               std::to_string(r.sizes.size()) + "-point axis" +
               (blocks ? " in " + std::to_string(r.block_count()) + " blocks"
                       : "");
    }
    if (values != 1)
      return series + "needs exactly one value channel, has " +
             std::to_string(values);
  }
  return {};
}

void write_bench_json(std::ostream& os, const BenchReport& r) {
  GRIDCAST_DCHECK(bench_violation(r).empty(),
                  "write_bench_json: malformed report: " + bench_violation(r));
  os << "{\n";
  for (const HeaderKey& h : kHeader) {
    if (!carries(h, r)) continue;
    os << "  \"" << h.key << "\": ";
    with_field(r, h.field, [&](const auto& v) { put_value(os, v); });
    os << ",\n";
  }
  os << "  \"" << kind_of(r).axis << "\": ";
  put_value(os, r.sizes);
  os << ",\n  \"series\": [\n";
  for (std::size_t s = 0; s < r.series.size(); ++s) {
    os << "    {\"name\": ";
    put_value(os, r.series[s].name);
    for (const Channel& ch : kChannels) {
      if (!present(r.series[s], ch)) continue;
      os << ", \"" << ch.key << "\": ";
      with_field(r.series[s], ch.field,
                 [&](const auto& v) { put_value(os, v); });
    }
    os << "}" << (s + 1 < r.series.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

std::string bench_to_json(const BenchReport& r) {
  std::ostringstream os;
  write_bench_json(os, r);
  return os.str();
}

namespace {

void JsonReader::read(const char* what, BenchSeries& s) {
  const std::vector<std::string> keys =
      object(what, [&](const std::string& key) {
        if (key == "name") return read("series name", s.name);
        // Only the channel table's keys: a misspelt key would otherwise
        // drop its gate without a word.
        const Channel* ch = find_row(kChannels, &Channel::key, key);
        if (ch == nullptr)
          fail("series '" + s.name + "' has unknown key '" + key + "'");
        with_field(s, ch->field, [&](auto& f) { read(key.c_str(), f); });
        // The writer omits an absent channel instead of writing it empty.
        if (!present(s, *ch))
          fail("series '" + s.name + "' has an empty '" + key + "'");
      });
  if (!contains(keys, "name"))
    throw InvalidInput("bench JSON: missing key 'name'");
}

}  // namespace

BenchReport bench_from_json(const std::string& text) {
  JsonReader in(text);
  BenchReport r;
  const std::vector<std::string> keys =
      in.object("report", [&](const std::string& key) {
        if (key == "series") {
          in.read("series", r.series);
        } else if (const HeaderKey* h =
                       find_row(kHeader, &HeaderKey::key, key)) {
          with_field(r, h->field, [&](auto& f) { in.read(key.c_str(), f); });
        } else if (find_row(kKinds, &Kind::axis, key) != nullptr) {
          in.read(key.c_str(), r.sizes);
        } else {
          in.fail("unknown key '" + key + "'");
        }
      });
  in.end();
  // Canonicalised through the shared verb vocabulary: an unknown verb is
  // the same one-line diagnostic the CLI emits.
  r.verb = std::string(collective::verb_name(collective::to_verb(r.verb)));
  if (const std::string v = bench_violation(r); !v.empty())
    throw InvalidInput("bench JSON: " + v);
  // The keys present must be exactly the keys the writer emits.
  for (const std::string& key : keys)
    if (key != kind_of(r).axis &&
        find_row(kKinds, &Kind::axis, key) != nullptr)
      throw InvalidInput("bench JSON: axis key '" + key +
                         "' does not match bench kind '" + r.bench + "'");
  if (!contains(keys, "series"))
    throw InvalidInput("bench JSON: missing key 'series'");
  for (const HeaderKey& h : kHeader) {
    const std::string key(h.key);
    if (contains(keys, key) && !carries(h, r))
      throw InvalidInput("bench JSON: '" + key +
                         "' does not belong in this report");
    if (!contains(keys, key) && carries(h, r))
      throw InvalidInput("bench JSON: missing key '" + key + "'");
  }
  return r;
}

BenchReport read_bench_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return bench_from_json(buf.str());
}

bool shardable(const BenchReport& r) { return kind_of(r).shards; }

std::string axis_point(const BenchReport& r, std::size_t i) {
  return std::string(kind_of(r).point) + " " + std::to_string(r.sizes[i]);
}

std::string run_mismatch(const BenchReport& baseline,
                         const BenchReport& current) {
  for (const HeaderKey& h : kHeader) {
    if (h.label.empty() || !(carries(h, baseline) || carries(h, current)))
      continue;
    const auto text = [&](const BenchReport& r) {
      return with_field(r, h.field,
                        [](const auto& v) { return value_text(v); });
    };
    if (text(baseline) != text(current))
      return std::string(h.label) + " mismatch: baseline " + text(baseline) +
             " vs current " + text(current);
  }
  // For serve reports the ladder is the replayed request count: a
  // mismatch means another log, which no tolerance can absorb.
  if (baseline.sizes != current.sizes)
    return std::string(kind_of(baseline).point) + " ladder mismatch (" +
           std::to_string(baseline.sizes.size()) + " baseline vs " +
           std::to_string(current.sizes.size()) + " current points)";
  return {};
}

namespace {

/// The problem with current cell `c` of `ch` against baseline cell `b`,
/// or empty when it passes its gate.  A NaN current cell fails: every
/// comparison with NaN is false.
std::string gate_problem(const BenchReport& r, const std::string& series,
                         const Channel& ch, std::size_t i, double b, double c,
                         const BenchCompareOptions& opts) {
  double bound = 0.0;
  bool ok = true;
  switch (ch.gate) {
    case Gate::kRtol:
      ok = std::abs(c - b) <=
           opts.makespan_rtol * std::max(std::abs(b), 1e-300);
      break;
    case Gate::kExact:
      ok = c == b;
      break;
    case Gate::kFloor:
      bound = b / opts.throughput_factor;
      ok = c >= bound;
      break;
    case Gate::kCeiling:
      bound = b * opts.wall_factor;
      ok = c <= bound;
      break;
    case Gate::kNone:
      break;
  }
  if (ok) return {};
  const bool bounded = ch.gate == Gate::kFloor || ch.gate == Gate::kCeiling;
  const std::string unit(ch.unit);
  std::string p = "series '" + series + "' " + std::string(ch.label) +
                  (bounded ? " regression" : " drift");
  if (std::holds_alternative<Points>(ch.field)) p += " at " + axis_point(r, i);
  p += ": baseline " + value_text(b) + unit +
       (bounded ? ", current " : " vs current ") + value_text(c) + unit;
  if (bounded)
    p += (ch.gate == Gate::kFloor ? " (floor " : " (limit ") +
         value_text(bound) + unit + ")";
  return p;
}

}  // namespace

std::vector<std::string> compare_bench(const BenchReport& baseline,
                                       const BenchReport& current,
                                       const BenchCompareOptions& opts) {
  if (baseline.shard_form() || current.shard_form())
    return {"shard-form report: merge the shards before comparing"};
  // Another kind, verb, seed or ladder is one problem: per-cell drift
  // messages would only obscure it.
  if (std::string m = run_mismatch(baseline, current); !m.empty()) return {m};

  std::vector<std::string> problems;
  for (const auto& cur : current.series)
    if (baseline.find_series(cur.name) == nullptr)
      problems.push_back("extra series '" + cur.name +
                         "' not in baseline (new heuristic? regenerate the "
                         "baseline)");
  for (const auto& base : baseline.series) {
    const BenchSeries* cur = current.find_series(base.name);
    if (cur == nullptr) {
      problems.push_back("missing series '" + base.name + "'");
      continue;
    }
    for (const Channel& ch : kChannels) {
      const auto cells = [&](const BenchSeries& s) {
        return with_field(s, ch.field, [](const auto& v) { return gated(v); });
      };
      const std::span<const double> b = cells(base);
      const std::span<const double> c = cells(*cur);
      if (b.empty()) continue;
      if (c.size() != b.size()) {
        problems.push_back("series '" + base.name + "' is missing " +
                           std::string(ch.key));
        continue;
      }
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (std::isnan(b[i])) continue;  // the baseline never measured it
        if (std::string p = gate_problem(baseline, base.name, ch, i, b[i],
                                         c[i], opts);
            !p.empty())
          problems.push_back(std::move(p));
      }
    }
  }
  return problems;
}

}  // namespace gridcast::io
