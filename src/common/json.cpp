#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace byzcast {

namespace {

const Json kNullSentinel{};
constexpr int kMaxDepth = 64;

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool eof() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool fail(const std::string& why) {
    if (error.empty()) {
      error = why + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool consume(char c) {
    if (eof() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool literal(const char* word, Json value, Json* out) {
    for (const char* p = word; *p != '\0'; ++p, ++pos) {
      if (eof() || text[pos] != *p) return fail("bad literal");
    }
    *out = std::move(value);
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (eof()) return fail("unterminated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // for config files; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos;
    if (!eof() && text[pos] == '-') ++pos;
    while (!eof() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    if (!eof() && text[pos] == '.') {
      ++pos;
      while (!eof() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (!eof() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (!eof() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (!eof() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos == start) return fail("expected number");
    const std::string token = text.substr(start, pos - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      return fail("malformed number");
    }
    *out = Json::number(v);
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case 'n': return literal("null", Json::null(), out);
      case 't': return literal("true", Json::boolean(true), out);
      case 'f': return literal("false", Json::boolean(false), out);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = Json::string(std::move(s));
        return true;
      }
      case '[': {
        ++pos;
        *out = Json::array();
        skip_ws();
        if (!eof() && peek() == ']') { ++pos; return true; }
        while (true) {
          Json elem;
          if (!parse_value(&elem, depth + 1)) return false;
          out->push_back(std::move(elem));
          skip_ws();
          if (eof()) return fail("unterminated array");
          if (peek() == ',') { ++pos; continue; }
          if (peek() == ']') { ++pos; return true; }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++pos;
        *out = Json::object();
        skip_ws();
        if (!eof() && peek() == '}') { ++pos; return true; }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          Json value;
          if (!parse_value(&value, depth + 1)) return false;
          out->set(key, std::move(value));
          skip_ws();
          if (eof()) return fail("unterminated object");
          if (peek() == ',') { ++pos; continue; }
          if (peek() == '}') { ++pos; return true; }
          return fail("expected ',' or '}'");
        }
      }
      default:
        return parse_number(out);
    }
  }
};

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
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
  out.push_back('"');
}

void write_number(std::string& out, double v) {
  // JSON has no NaN or infinity.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integers (the common case in configs) print without a fraction.
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    out += std::to_string(static_cast<std::int64_t>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

std::size_t Json::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (!is_array() || i >= arr_.size()) return kNullSentinel;
  return arr_[i];
}

void Json::push_back(Json v) {
  if (is_array()) arr_.push_back(std::move(v));
}

bool Json::has(const std::string& key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : obj_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::get(const std::string& key) const {
  if (is_object()) {
    for (const auto& [k, v] : obj_) {
      if (k == key) return v;
    }
  }
  return kNullSentinel;
}

void Json::set(const std::string& key, Json v) {
  if (!is_object()) return;
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

double Json::num_or(const std::string& key, double fallback) const {
  const Json& v = get(key);
  return v.is_number() ? v.as_double() : fallback;
}

std::int64_t Json::int_or(const std::string& key, std::int64_t fallback) const {
  const Json& v = get(key);
  return v.is_number() ? v.as_int() : fallback;
}

std::optional<Json> Json::parse(const std::string& text, std::string* error) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(&out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.eof()) {
    if (error != nullptr) {
      *error = "trailing characters at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return out;
}

void Json::write(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: write_number(out, num_); return;
    case Type::kString: write_escaped(out, str_); return;
    case Type::kArray: {
      if (arr_.empty()) { out += "[]"; return; }
      out += "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += inner_pad;
        arr_[i].write(out, indent + 1);
        if (i + 1 < arr_.size()) out += ",";
        out += "\n";
      }
      out += pad + "]";
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) { out += "{}"; return; }
      out += "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        out += inner_pad;
        write_escaped(out, obj_[i].first);
        out += ": ";
        obj_[i].second.write(out, indent + 1);
        if (i + 1 < obj_.size()) out += ",";
        out += "\n";
      }
      out += pad + "}";
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0);
  out += "\n";
  return out;
}

bool write_json_file(const std::string& path, const Json& j,
                     std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return fail("cannot write " + tmp);
    out << j.dump();
    if (!out.good()) return fail("short write to " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("rename " + tmp + ": " + ec.message());
  return true;
}

std::optional<Json> read_json_file(const std::string& path,
                                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto j = Json::parse(text.str(), error);
  if (!j && error != nullptr) *error = path + ": " + *error;
  return j;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kNumber: return a.num_ == b.num_;
    case Json::Type::kString: return a.str_ == b.str_;
    case Json::Type::kArray: return a.arr_ == b.arr_;
    case Json::Type::kObject: return a.obj_ == b.obj_;
  }
  return false;
}

}  // namespace byzcast
