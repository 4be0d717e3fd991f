#include "io/bench_json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>
#include <variant>

#include "collective/verb.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"

namespace gridcast::io {

namespace {

// ---------------------------------------------------------------- writing

/// Print a double exactly as the writer always has: 17 significant digits
/// via ostream.  Parsing then re-printing the same value reproduces the
/// bytes, which is what makes shard merging byte-identical.  The caller's
/// precision is restored — reports also go to long-lived streams (stdout).
void put_double(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "null";
    return;
  }
  const auto saved = os.precision(17);
  os << v;
  os.precision(saved);
}

// ---------------------------------------------------------------- parsing
//
// A minimal recursive-descent JSON reader covering the grammar
// write_bench_json emits (objects, arrays, strings, numbers, null,
// booleans).  Strict: trailing garbage, unknown report keys and type
// mismatches all throw InvalidInput with position context.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// A parsed number keeps its source token so 64-bit integers (seeds) can
/// be re-parsed losslessly — a double only holds 53 mantissa bits.  JSON
/// null is a number with NaN value and an empty token.
struct JsonNumber {
  double value = 0.0;
  std::string raw;
};

struct JsonValue {
  std::variant<JsonNumber, bool, std::string, JsonArray, JsonObject> v;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidInput("bench JSON: " + what + " at offset " +
                       std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return JsonValue{object()};
      case '[':
        return JsonValue{array()};
      case '"':
        return JsonValue{string()};
      case 't':
        if (consume_literal("true")) return JsonValue{true};
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue{false};
        fail("bad literal");
      case 'n':
        if (consume_literal("null"))
          return JsonValue{
              JsonNumber{std::numeric_limits<double>::quiet_NaN(), ""}};
        fail("bad literal");
      default:
        return JsonValue{number()};
    }
  }

  JsonObject object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  JsonArray array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The writer only \u-escapes control characters (< 0x20); accept
          // any BMP code point and re-encode as UTF-8 for completeness.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonNumber number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a number");
    std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("malformed number '" + tok + "'");
    return JsonNumber{v, std::move(tok)};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Typed accessors over the parsed tree.

const JsonValue* find(const JsonObject& o, std::string_view key) {
  for (const auto& [k, v] : o)
    if (k == key) return &v;
  return nullptr;
}

template <typename T>
const T& as(const JsonValue& v, const char* what) {
  const T* p = std::get_if<T>(&v.v);
  if (!p) throw InvalidInput(std::string("bench JSON: '") + what +
                             "' has the wrong type");
  return *p;
}

double as_number(const JsonValue& v, const char* what) {
  return as<JsonNumber>(v, what).value;
}

std::uint64_t as_u64(const JsonValue& v, const char* what) {
  // Re-parse the source token: going through the double would silently
  // round integers above 2^53 (e.g. full-width RNG seeds).
  const std::string& raw = as<JsonNumber>(v, what).raw;
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), out);
  if (ec != std::errc{} || ptr != raw.data() + raw.size())
    throw InvalidInput(std::string("bench JSON: '") + what +
                       "' is not a non-negative 64-bit integer");
  return out;
}

const JsonValue& require(const JsonObject& o, std::string_view key) {
  if (const JsonValue* v = find(o, key)) return *v;
  throw InvalidInput("bench JSON: missing key '" + std::string(key) + "'");
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

void put_double_array(std::ostream& os, const std::vector<double>& xs) {
  os << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i ? ", " : "");
    put_double(os, xs[i]);
  }
  os << "]";
}

void put_nested_array(std::ostream& os,
                      const std::vector<std::vector<double>>& xs) {
  os << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i ? ", " : "");
    put_double_array(os, xs[i]);
  }
  os << "]";
}

/// Writer-side mirror of the parser's grammar wall.  Parsed reports are
/// validated on the way in; this guards the *producers* — a new bench or
/// sweep assembling a BenchReport by hand — so a malformed report fails
/// at the write site on the Debug/sanitizer lanes instead of surfacing as
/// a confusing parse error (or a silently wrong baseline) downstream.
/// Returns an empty string when the report is well-formed.
std::string report_grammar_violation(const BenchReport& r) {
  if (r.bench != "race" && r.bench != "montecarlo" && r.bench != "micro" &&
      r.bench != "serve")
    return "unknown bench kind '" + r.bench + "'";
  if (r.sizes.empty()) return "empty axis";
  if (r.shards == 0 || r.shard >= r.shards) return "shard index out of range";
  if (r.is_montecarlo()) {
    if (r.verb != "bcast") return "montecarlo reports are broadcast-only";
    if (r.iterations == 0) return "montecarlo report needs iterations >= 1";
  } else if (r.block_iters != 0) {
    return "'block_iters' outside a montecarlo report";
  }
  if (r.is_micro() && (r.shards != 1 || r.verb != "bcast"))
    return "micro reports carry no verb or shard axes";
  if (r.is_serve() && (r.shards != 1 || r.verb != "bcast"))
    return "serve reports carry no verb or shard axes";
  const bool shard_form = r.shard_form();
  if (shard_form && !r.is_montecarlo())
    return "block data outside a montecarlo report";
  if (shard_form && r.block_iters == 0)
    return "shard-form report needs block_iters >= 1";
  for (const auto& s : r.series) {
    // Selection-cost cells ride only final-form size sweeps: the other
    // kinds have no per-ladder-point selection to time.
    if (!s.micro_scheduling_cost_s.empty()) {
      if (r.bench != "race")
        return "'micro_scheduling_cost_s' is a size-sweep-only key";
      if (s.makespan_s.empty())
        return "series '" + s.name +
               "' needs 'makespan_s' cells to carry micro_scheduling_cost_s";
      if (s.micro_scheduling_cost_s.size() != r.sizes.size())
        return "series '" + s.name +
               "' micro_scheduling_cost_s does not cover the axis";
    }
    if (r.is_micro()) {
      if (s.throughput.size() != r.sizes.size())
        return "series '" + s.name + "' throughput does not cover the axis";
      continue;
    }
    if (r.is_serve()) {
      // Serve series carry exactly one of the two channels: a value cell
      // (makespan_s — exact compare) or a throughput cell (lower-bounded
      // compare); either way it must cover the axis.
      if (!s.hits.empty()) return "'hits' is montecarlo-only";
      const std::vector<double>& cells =
          s.throughput.empty() ? s.makespan_s : s.throughput;
      if (cells.size() != r.sizes.size())
        return "series '" + s.name + "' cells do not cover the axis";
      continue;
    }
    if (!s.throughput.empty()) return "'throughput' outside a micro report";
    if (!r.is_montecarlo() && !s.hits.empty()) return "'hits' is montecarlo-only";
    if (shard_form != !s.block_sum_s.empty())
      return "series '" + s.name + "' mixes shard-form and final-form data";
    if (!shard_form) {
      if (s.makespan_s.size() != r.sizes.size())
        return "series '" + s.name + "' cells do not cover the axis";
      if (!s.hits.empty() && s.hits.size() != r.sizes.size())
        return "series '" + s.name + "' hits do not cover the axis";
    } else {
      if (s.block_sum_s.size() != r.sizes.size())
        return "series '" + s.name + "' block_sum_s does not cover the axis";
      for (const auto& row : s.block_sum_s)
        if (row.size() != r.block_count())
          return "series '" + s.name + "' block_sum_s row has wrong depth";
      if (!s.block_hits.empty() && s.block_hits.size() != r.sizes.size())
        return "series '" + s.name + "' block_hits does not cover the axis";
      for (const auto& row : s.block_hits)
        if (row.size() != r.block_count())
          return "series '" + s.name + "' block_hits row has wrong depth";
    }
  }
  return {};
}

}  // namespace

void write_bench_json(std::ostream& os, const BenchReport& r) {
  GRIDCAST_DCHECK(report_grammar_violation(r).empty(),
                  "write_bench_json: malformed report: " +
                      report_grammar_violation(r));
  os << "{\n";
  os << "  \"bench\": \"" << json_escape(r.bench) << "\",\n";
  os << "  \"grid\": \"" << json_escape(r.grid) << "\",\n";
  os << "  \"mode\": \"" << json_escape(r.mode) << "\",\n";
  // The default verb is omitted so broadcast reports keep the exact bytes
  // they had before the verb axis existed (shard-merge and baseline
  // tooling compare reports byte for byte).
  if (r.verb != "bcast") os << "  \"verb\": \"" << json_escape(r.verb) << "\",\n";
  os << "  \"root\": " << r.root << ",\n";
  // Monte-Carlo races record the seed whatever the mode: the instance
  // draws depend on it even when the backend is deterministic.
  if (r.mode == "measured" || r.is_montecarlo()) {
    os << "  \"seed\": " << r.seed << ",\n";
  }
  if (r.mode == "measured") {
    os << "  \"jitter\": ";
    put_double(os, r.jitter);
    os << ",\n";
  }
  if (r.is_montecarlo()) {
    os << "  \"iterations\": " << r.iterations << ",\n";
    // The block partition is an artefact of sharding; merged (final)
    // reports drop it so they are byte-identical to an unsharded run.
    if (r.shard_form()) os << "  \"block_iters\": " << r.block_iters << ",\n";
  }
  if (r.shards > 1) {
    os << "  \"shards\": " << r.shards << ",\n";
    os << "  \"shard\": " << r.shard << ",\n";
  }
  // The axis key names what the points are: byte sizes for sweeps,
  // cluster counts for Monte-Carlo races, request counts for serve
  // replays.
  os << "  \""
     << (r.is_montecarlo() ? "clusters" : r.is_serve() ? "requests" : "sizes")
     << "\": [";
  for (std::size_t i = 0; i < r.sizes.size(); ++i)
    os << (i ? ", " : "") << r.sizes[i];
  os << "],\n  \"series\": [\n";
  for (std::size_t s = 0; s < r.series.size(); ++s) {
    os << "    {\"name\": \"" << json_escape(r.series[s].name) << "\"";
    if (!std::isnan(r.series[s].wall_time_s)) {
      os << ", \"wall_time_s\": ";
      put_double(os, r.series[s].wall_time_s);
    }
    if (!r.series[s].block_sum_s.empty()) {
      os << ", \"block_sum_s\": ";
      put_nested_array(os, r.series[s].block_sum_s);
      if (!r.series[s].block_hits.empty()) {
        os << ", \"block_hits\": ";
        put_nested_array(os, r.series[s].block_hits);
      }
    } else if (!r.series[s].throughput.empty()) {
      os << ", \"throughput\": ";
      put_double_array(os, r.series[s].throughput);
    } else {
      os << ", \"makespan_s\": ";
      put_double_array(os, r.series[s].makespan_s);
      if (!r.series[s].hits.empty()) {
        os << ", \"hits\": ";
        put_double_array(os, r.series[s].hits);
      }
      if (!r.series[s].micro_scheduling_cost_s.empty()) {
        os << ", \"micro_scheduling_cost_s\": ";
        put_double_array(os, r.series[s].micro_scheduling_cost_s);
      }
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

std::vector<double> number_array(const JsonValue& v, const char* what) {
  std::vector<double> out;
  for (const auto& e : as<JsonArray>(v, what)) out.push_back(as_number(e, what));
  return out;
}

std::vector<std::vector<double>> nested_number_array(const JsonValue& v,
                                                     const char* what) {
  std::vector<std::vector<double>> out;
  for (const auto& e : as<JsonArray>(v, what))
    out.push_back(number_array(e, what));
  return out;
}

}  // namespace

BenchReport bench_from_json(const std::string& text) {
  const JsonValue root = JsonParser(text).parse();
  const JsonObject& o = as<JsonObject>(root, "report");

  BenchReport r;
  for (const auto& [key, value] : o) {
    if (key == "bench") {
      r.bench = as<std::string>(value, "bench");
    } else if (key == "grid") {
      r.grid = as<std::string>(value, "grid");
    } else if (key == "mode") {
      r.mode = as<std::string>(value, "mode");
    } else if (key == "verb") {
      // Canonicalised through the shared verb vocabulary: an unknown verb
      // is the same one-line diagnostic the CLI emits.
      r.verb = std::string(
          collective::verb_name(collective::to_verb(as<std::string>(value, "verb"))));
    } else if (key == "root") {
      const std::uint64_t root = as_u64(value, "root");
      if (root > std::numeric_limits<ClusterId>::max())
        throw InvalidInput("bench JSON: 'root' is out of range (max " +
                           std::to_string(std::numeric_limits<ClusterId>::max()) +
                           ")");
      r.root = static_cast<ClusterId>(root);
    } else if (key == "seed") {
      r.seed = as_u64(value, "seed");
    } else if (key == "jitter") {
      r.jitter = as_number(value, "jitter");
    } else if (key == "iterations") {
      r.iterations = as_u64(value, "iterations");
    } else if (key == "block_iters") {
      r.block_iters = as_u64(value, "block_iters");
    } else if (key == "shards") {
      r.shards = as_u64(value, "shards");
    } else if (key == "shard") {
      r.shard = as_u64(value, "shard");
    } else if (key == "threads") {
      // Historical BENCH_sweep.json field; accepted and ignored.
    } else if (key == "sizes" || key == "clusters" || key == "requests") {
      if (!r.sizes.empty())
        throw InvalidInput(
            "bench JSON: 'sizes', 'clusters' and 'requests' are mutually "
            "exclusive");
      for (const auto& v : as<JsonArray>(value, "sizes"))
        r.sizes.push_back(as_u64(v, "sizes[]"));
      if (r.sizes.empty())
        throw InvalidInput("bench JSON: empty '" + key + "' axis");
    } else if (key == "series") {
      for (const auto& sv : as<JsonArray>(value, "series")) {
        const JsonObject& so = as<JsonObject>(sv, "series[]");
        BenchSeries s;
        s.name = as<std::string>(require(so, "name"), "series name");
        if (const JsonValue* w = find(so, "wall_time_s"))
          s.wall_time_s = as_number(*w, "wall_time_s");
        const JsonValue* mk = find(so, "makespan_s");
        const JsonValue* bs = find(so, "block_sum_s");
        const JsonValue* tp = find(so, "throughput");
        if ((mk != nullptr) + (bs != nullptr) + (tp != nullptr) != 1)
          throw InvalidInput("bench JSON: series '" + s.name +
                             "' needs exactly one of 'makespan_s', "
                             "'block_sum_s' and 'throughput'");
        if (mk != nullptr) s.makespan_s = number_array(*mk, "makespan_s");
        if (bs != nullptr) s.block_sum_s = nested_number_array(*bs, "block_sum_s");
        if (tp != nullptr) s.throughput = number_array(*tp, "throughput");
        if (const JsonValue* h = find(so, "hits")) {
          if (mk == nullptr)
            throw InvalidInput("bench JSON: series '" + s.name +
                               "' mixes 'hits' with shard-form data");
          s.hits = number_array(*h, "hits");
        }
        if (const JsonValue* bh = find(so, "block_hits")) {
          if (bs == nullptr)
            throw InvalidInput("bench JSON: series '" + s.name +
                               "' has 'block_hits' without 'block_sum_s'");
          s.block_hits = nested_number_array(*bh, "block_hits");
        }
        if (const JsonValue* sc = find(so, "micro_scheduling_cost_s")) {
          if (mk == nullptr)
            throw InvalidInput("bench JSON: series '" + s.name +
                               "' needs 'makespan_s' cells to carry "
                               "micro_scheduling_cost_s");
          s.micro_scheduling_cost_s =
              number_array(*sc, "micro_scheduling_cost_s");
        }
        r.series.push_back(std::move(s));
      }
    } else {
      throw InvalidInput("bench JSON: unknown key '" + key + "'");
    }
  }
  if ((find(o, "sizes") == nullptr && find(o, "clusters") == nullptr &&
       find(o, "requests") == nullptr) ||
      find(o, "series") == nullptr)
    throw InvalidInput(
        "bench JSON: missing 'sizes'/'clusters'/'requests' or 'series'");
  if (r.shards == 0 || r.shard >= r.shards)
    throw InvalidInput("bench JSON: shard index out of range");

  // Axis spelling is tied to the report kind: size sweeps use "sizes",
  // Monte-Carlo races use "clusters", serve replays use "requests".  A
  // mismatch is format drift.
  const char* want_axis =
      r.is_montecarlo() ? "clusters" : r.is_serve() ? "requests" : "sizes";
  for (const char* axis_key : {"sizes", "clusters", "requests"})
    if (find(o, axis_key) != nullptr &&
        std::string_view(axis_key) != want_axis)
      throw InvalidInput("bench JSON: axis key '" + std::string(axis_key) +
                         "' does not match bench kind '" + r.bench + "'");
  if (r.is_montecarlo()) {
    if (r.iterations == 0)
      throw InvalidInput("bench JSON: montecarlo report needs iterations >= 1");
    if (find(o, "verb") != nullptr)
      throw InvalidInput(
          "bench JSON: 'verb' is a sweep-only key (Monte-Carlo races "
          "broadcast by definition)");
  } else {
    if (find(o, "iterations") != nullptr || find(o, "block_iters") != nullptr)
      throw InvalidInput(
          "bench JSON: 'iterations'/'block_iters' are montecarlo-only keys");
  }
  if (r.is_micro()) {
    // The throughput lane has no collective verb and no shard partition:
    // each series is one whole-machine measurement.
    if (find(o, "verb") != nullptr)
      throw InvalidInput("bench JSON: micro reports have no verb axis");
    if (find(o, "shards") != nullptr || find(o, "shard") != nullptr)
      throw InvalidInput("bench JSON: micro reports cannot be sharded");
  }
  if (r.is_serve()) {
    // A replayed request log mixes verbs and roots per request, and one
    // replay is one whole-service measurement: no verb axis, no shards.
    if (find(o, "verb") != nullptr)
      throw InvalidInput("bench JSON: serve reports have no verb axis");
    if (find(o, "shards") != nullptr || find(o, "shard") != nullptr)
      throw InvalidInput("bench JSON: serve reports cannot be sharded");
  }

  const bool shard_form = r.shard_form();
  if (shard_form) {
    if (!r.is_montecarlo())
      throw InvalidInput("bench JSON: 'block_sum_s' is montecarlo-only");
    if (r.block_iters == 0)
      throw InvalidInput(
          "bench JSON: shard-form report needs 'block_iters' >= 1");
    if (r.shards <= 1)
      throw InvalidInput(
          "bench JSON: shard-form report without a shard partition");
  } else if (r.block_iters != 0) {
    throw InvalidInput(
        "bench JSON: 'block_iters' without shard-form series data");
  }

  for (const auto& s : r.series) {
    if (!r.is_montecarlo() && !s.hits.empty())
      throw InvalidInput("bench JSON: 'hits' is montecarlo-only");
    if (!s.micro_scheduling_cost_s.empty()) {
      if (r.bench != "race")
        throw InvalidInput(
            "bench JSON: 'micro_scheduling_cost_s' is a size-sweep-only key");
      if (s.micro_scheduling_cost_s.size() != r.sizes.size())
        throw InvalidInput("bench JSON: series '" + s.name +
                           "' micro_scheduling_cost_s does not cover the "
                           "axis");
    }
    if (shard_form != !s.block_sum_s.empty())
      throw InvalidInput("bench JSON: series '" + s.name +
                         "' mixes shard-form and final-form data");
    if (r.is_micro()) {
      if (s.throughput.size() != r.sizes.size())
        throw InvalidInput("bench JSON: micro series '" + s.name +
                           "' needs 'throughput' covering the axis");
    } else if (r.is_serve()) {
      // Either channel (exact value cells or lower-bounded throughput),
      // covering the axis.
      const std::vector<double>& cells =
          s.throughput.empty() ? s.makespan_s : s.throughput;
      if (cells.size() != r.sizes.size())
        throw InvalidInput("bench JSON: serve series '" + s.name +
                           "' cells do not cover the axis");
    } else if (!s.throughput.empty()) {
      throw InvalidInput("bench JSON: 'throughput' is micro-only");
    } else if (!shard_form) {
      if (s.makespan_s.size() != r.sizes.size())
        throw InvalidInput("bench JSON: series '" + s.name + "' has " +
                           std::to_string(s.makespan_s.size()) +
                           " cells for " + std::to_string(r.sizes.size()) +
                           " axis points");
      if (!s.hits.empty() && s.hits.size() != r.sizes.size())
        throw InvalidInput("bench JSON: series '" + s.name +
                           "' hits do not cover the axis");
    } else {
      const std::size_t blocks = r.block_count();
      const auto check_shape = [&](const std::vector<std::vector<double>>& a,
                                   const char* what) {
        if (a.size() != r.sizes.size())
          throw InvalidInput("bench JSON: series '" + s.name + "' " + what +
                             " does not cover the axis");
        for (const auto& row : a)
          if (row.size() != blocks)
            throw InvalidInput("bench JSON: series '" + s.name + "' " + what +
                               " has a row with " +
                               std::to_string(row.size()) + " blocks, want " +
                               std::to_string(blocks));
      };
      check_shape(s.block_sum_s, "block_sum_s");
      if (!s.block_hits.empty()) check_shape(s.block_hits, "block_hits");
    }
  }
  return r;
}

BenchReport read_bench_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return bench_from_json(buf.str());
}

std::vector<std::string> compare_bench(const BenchReport& baseline,
                                       const BenchReport& current,
                                       const BenchCompareOptions& opts) {
  std::vector<std::string> problems;
  const auto add = [&](std::string p) { problems.push_back(std::move(p)); };

  if (baseline.bench != current.bench) {
    add("bench kind mismatch: baseline '" + baseline.bench +
        "' vs current '" + current.bench + "'");
    return problems;
  }
  if (baseline.verb != current.verb) {
    // A scatter report against a broadcast baseline is apples to oranges;
    // per-cell drift messages would only obscure that.
    add("verb mismatch: baseline '" + baseline.verb + "' vs current '" +
        current.verb + "'");
    return problems;
  }
  if (baseline.shard_form() || current.shard_form()) {
    add("shard-form report: merge the shards before comparing");
    return problems;
  }
  if (baseline.grid != current.grid)
    add("grid mismatch: baseline '" + baseline.grid + "' vs current '" +
        current.grid + "'");
  if (baseline.is_montecarlo()) {
    if (baseline.seed != current.seed)
      add("seed mismatch: baseline " + std::to_string(baseline.seed) +
          " vs current " + std::to_string(current.seed) +
          " (the instance draws differ)");
    if (baseline.iterations != current.iterations) {
      add("iteration-count mismatch: baseline " +
          std::to_string(baseline.iterations) + " vs current " +
          std::to_string(current.iterations));
      return problems;  // means and hit counts would differ by design
    }
  }
  if (baseline.mode != current.mode)
    add("mode mismatch: baseline '" + baseline.mode + "' vs current '" +
        current.mode + "'");
  else if (baseline.mode == "measured" &&
           (baseline.seed != current.seed ||
            baseline.jitter != current.jitter)) {
    // Same rule the shard merger enforces: measured numbers are only
    // comparable under one (seed, jitter).  Diagnose it as one problem
    // instead of a per-cell drift cascade.
    add("measured-mode seed/jitter mismatch: baseline (" +
        std::to_string(baseline.seed) + ", " +
        std::to_string(baseline.jitter) + ") vs current (" +
        std::to_string(current.seed) + ", " + std::to_string(current.jitter) +
        ")");
    return problems;
  }
  if (baseline.root != current.root)
    add("root mismatch: baseline " + std::to_string(baseline.root) +
        " vs current " + std::to_string(current.root));
  const char* axis = baseline.is_montecarlo() ? "clusters"
                     : baseline.is_serve()    ? "requests"
                                              : "size";
  if (baseline.sizes != current.sizes) {
    // For serve reports the "ladder" is the replayed request count — a
    // mismatch means a different log, which no tolerance can absorb.
    add(std::string(baseline.is_montecarlo() ? "cluster-count"
                    : baseline.is_serve()    ? "request-count"
                                             : "size") +
        " ladder mismatch (" + std::to_string(baseline.sizes.size()) +
        " baseline vs " + std::to_string(current.sizes.size()) +
        " current points)");
    return problems;  // per-cell comparison would be meaningless
  }

  for (const auto& cur : current.series)
    if (baseline.find_series(cur.name) == nullptr)
      add("extra series '" + cur.name +
          "' not in baseline (new heuristic? regenerate the baseline)");

  for (const auto& base : baseline.series) {
    const BenchSeries* cur = current.find_series(base.name);
    if (cur == nullptr) {
      add("missing series '" + base.name + "'");
      continue;
    }
    for (std::size_t i = 0; i < base.makespan_s.size(); ++i) {
      const double b = base.makespan_s[i];
      const double c = cur->makespan_s[i];
      if (std::isnan(b)) continue;  // baseline never measured this cell
      // Written so NaN on the current side fails (any comparison with
      // NaN is false, so the negation trips).
      const double tol = opts.makespan_rtol * std::max(std::abs(b), 1e-300);
      if (!(std::abs(c - b) <= tol))
        add("series '" + base.name + "' makespan drift at " + axis + " " +
            std::to_string(baseline.sizes[i]) + ": baseline " +
            std::to_string(b) + " vs current " + std::to_string(c));
    }
    // Hit counts are deterministic integers under a fixed seed; any
    // difference is a behaviour change, so the comparison is exact.
    if (!base.hits.empty()) {
      if (cur->hits.empty()) {
        add("series '" + base.name + "' is missing hit counts");
      } else {
        for (std::size_t i = 0; i < base.hits.size(); ++i)
          if (!(base.hits[i] == cur->hits[i]))
            add("series '" + base.name + "' hit-count drift at " + axis +
                " " + std::to_string(baseline.sizes[i]) + ": baseline " +
                std::to_string(static_cast<std::uint64_t>(base.hits[i])) +
                " vs current " +
                std::to_string(static_cast<std::uint64_t>(cur->hits[i])));
      }
    }
    // Micro reports gate on throughput: a higher-is-better axis, so the
    // regression test is a *lower bound* (current >= baseline / factor).
    // Written so NaN on the current side fails.
    if (!base.throughput.empty() &&
        cur->throughput.size() != base.throughput.size()) {
      add("series '" + base.name + "' is missing throughput");
      continue;
    }
    for (std::size_t i = 0; i < base.throughput.size(); ++i) {
      const double b = base.throughput[i];
      const double c = cur->throughput[i];
      if (std::isnan(b)) continue;  // baseline never measured this cell
      const double floor = b / opts.throughput_factor;
      if (!(c >= floor))
        add("series '" + base.name + "' throughput regression at " + axis +
            " " + std::to_string(baseline.sizes[i]) + ": baseline " +
            std::to_string(b) + " items/s, current " + std::to_string(c) +
            " items/s (floor " + std::to_string(floor) + " items/s)");
    }
    // Selection cost is host-dependent like wall_time_s, so the gate is
    // the same one-sided budget: current <= baseline * wall_factor.
    // Written so NaN on the current side fails.
    if (!base.micro_scheduling_cost_s.empty() &&
        cur->micro_scheduling_cost_s.size() !=
            base.micro_scheduling_cost_s.size()) {
      add("series '" + base.name + "' is missing micro_scheduling_cost_s");
      continue;
    }
    for (std::size_t i = 0; i < base.micro_scheduling_cost_s.size(); ++i) {
      const double b = base.micro_scheduling_cost_s[i];
      const double c = cur->micro_scheduling_cost_s[i];
      if (std::isnan(b)) continue;  // baseline never measured this cell
      const double limit = b * opts.wall_factor;
      if (!(c <= limit))
        add("series '" + base.name +
            "' micro_scheduling_cost_s regression at " + axis + " " +
            std::to_string(baseline.sizes[i]) + ": baseline " +
            std::to_string(b) + "s, current " + std::to_string(c) +
            "s (limit " + std::to_string(limit) + "s)");
    }
    if (!std::isnan(base.wall_time_s)) {
      const double limit = base.wall_time_s * opts.wall_factor;
      if (std::isnan(cur->wall_time_s))
        add("series '" + base.name + "' is missing wall_time_s");
      else if (!(cur->wall_time_s <= limit))
        add("series '" + base.name + "' wall_time_s regression: baseline " +
            std::to_string(base.wall_time_s) + "s, current " +
            std::to_string(cur->wall_time_s) + "s (limit " +
            std::to_string(limit) + "s)");
    }
  }
  return problems;
}

}  // namespace gridcast::io
