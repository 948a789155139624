// JSON writer / parser implementation (util/json.h).

#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hops {

namespace {

// Appends \uXXXX for one code unit.
void AppendUnicodeEscape(std::string* out, unsigned code_unit) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04x", code_unit & 0xFFFFu);
  *out += buf;
}

// Decodes one UTF-8 sequence starting at raw[i]. On success returns its
// length (1..4) and leaves *code_point set; on any malformation returns 0.
// Rejects overlong encodings, surrogate halves (U+D800..U+DFFF), and code
// points beyond U+10FFFF — the sequences that make "valid-looking" output
// unparseable for strict JSON consumers.
size_t DecodeUtf8(std::string_view raw, size_t i, uint32_t* code_point) {
  const auto byte = [&](size_t k) -> uint32_t {
    return static_cast<unsigned char>(raw[k]);
  };
  const uint32_t b0 = byte(i);
  size_t len;
  uint32_t cp;
  if (b0 < 0x80) {
    *code_point = b0;
    return 1;
  } else if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    cp = b0 & 0x1F;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    cp = b0 & 0x0F;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    cp = b0 & 0x07;
  } else {
    return 0;  // stray continuation byte or 0xFE/0xFF
  }
  if (i + len > raw.size()) return 0;  // truncated tail
  for (size_t k = 1; k < len; ++k) {
    const uint32_t b = byte(i + k);
    if ((b & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3F);
  }
  static constexpr uint32_t kMinForLen[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMinForLen[len]) return 0;               // overlong
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;       // surrogate half
  if (cp > 0x10FFFF) return 0;                      // beyond Unicode
  *code_point = cp;
  return len;
}

// Encodes \p cp as UTF-8 onto \p out. Precondition: cp <= 0x10FFFF.
void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view raw) {
  for (size_t i = 0; i < raw.size();) {
    const unsigned char c = static_cast<unsigned char>(raw[i]);
    if (c < 0x80) {
      switch (c) {
        case '"': *out += "\\\""; ++i; continue;
        case '\\': *out += "\\\\"; ++i; continue;
        case '\b': *out += "\\b"; ++i; continue;
        case '\f': *out += "\\f"; ++i; continue;
        case '\n': *out += "\\n"; ++i; continue;
        case '\r': *out += "\\r"; ++i; continue;
        case '\t': *out += "\\t"; ++i; continue;
        default:
          if (c < 0x20) {
            AppendUnicodeEscape(out, c);
          } else {
            out->push_back(static_cast<char>(c));
          }
          ++i;
          continue;
      }
    }
    uint32_t cp = 0;
    const size_t len = DecodeUtf8(raw, i, &cp);
    if (len == 0) {
      // One replacement character per bad byte, so resynchronization at the
      // next lead byte is immediate and no input byte is silently dropped.
      *out += "\\ufffd";
      ++i;
    } else {
      out->append(raw.data() + i, len);
      i += len;
    }
  }
}

void AppendJsonQuoted(std::string* out, std::string_view raw) {
  out->push_back('"');
  AppendJsonEscaped(out, raw);
  out->push_back('"');
}

// --------------------------------------------------------------- JsonWriter

void JsonWriter::Indent() {
  out_.push_back('\n');
  out_.append(2 * scopes_.size(), ' ');
}

void JsonWriter::Prefix(bool is_key) {
  if (after_key_) {
    after_key_ = is_key;  // value directly after "key": — no comma/indent
    return;
  }
  if (!scopes_.empty()) {
    if (!first_in_scope_.back()) out_.push_back(',');
    first_in_scope_.back() = false;
    Indent();
  }
  after_key_ = is_key;
}

void JsonWriter::BeginObject() {
  Prefix(false);
  out_.push_back('{');
  scopes_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
}

void JsonWriter::EndObject() {
  const bool empty = first_in_scope_.back();
  scopes_.pop_back();
  first_in_scope_.pop_back();
  if (!empty) Indent();
  out_.push_back('}');
}

void JsonWriter::BeginArray() {
  Prefix(false);
  out_.push_back('[');
  scopes_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
}

void JsonWriter::EndArray() {
  const bool empty = first_in_scope_.back();
  scopes_.pop_back();
  first_in_scope_.pop_back();
  if (!empty) Indent();
  out_.push_back(']');
}

void JsonWriter::Key(const std::string& name) {
  Prefix(true);
  AppendJsonQuoted(&out_, name);
  out_ += ": ";
}

void JsonWriter::String(const std::string& value) {
  Prefix(false);
  AppendJsonQuoted(&out_, value);
}

void JsonWriter::Int(int64_t value) {
  Prefix(false);
  out_ += std::to_string(value);
}

void JsonWriter::UInt(uint64_t value) {
  Prefix(false);
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  Prefix(false);
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN literals; null keeps the document valid.
    out_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  Prefix(false);
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Prefix(false);
  out_ += "null";
}

void JsonWriter::Raw(const std::string& json) {
  Prefix(false);
  out_ += json;
}

// ---------------------------------------------------------------- JsonValue

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : AsObject()) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<double> JsonValue::GetNumber(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("expected number member \"" +
                                   std::string(key) + "\"");
  }
  return v->AsDouble();
}

Result<int64_t> JsonValue::GetInt(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_integer()) {
    return Status::InvalidArgument("expected integer member \"" +
                                   std::string(key) + "\"");
  }
  return v->AsInt64();
}

Result<std::string> JsonValue::GetString(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("expected string member \"" +
                                   std::string(key) + "\"");
  }
  return v->AsString();
}

Result<bool> JsonValue::GetBool(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_bool()) {
    return Status::InvalidArgument("expected bool member \"" +
                                   std::string(key) + "\"");
  }
  return v->AsBool();
}

// ------------------------------------------------------------------- parser

namespace {

class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    HOPS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing garbage after document");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(size_t depth) {
    if (depth > options_.max_depth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        HOPS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return JsonValue(true);
        }
        return Error("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return JsonValue(false);
        }
        return Error("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return JsonValue();
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(size_t depth) {
    ++pos_;  // '{'
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      HOPS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      HOPS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return JsonValue(std::move(members));
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(size_t depth) {
    ++pos_;  // '['
    JsonValue::Array elements;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(elements));
    while (true) {
      SkipWhitespace();
      HOPS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      elements.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return JsonValue(std::move(elements));
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text_[pos_ + static_cast<size_t>(k)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    return value;
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("truncated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            HOPS_ASSIGN_OR_RETURN(uint32_t unit, ParseHex4());
            if (unit >= 0xD800 && unit <= 0xDBFF) {
              // High surrogate: require a following \uDC00..\uDFFF.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired high surrogate");
              }
              pos_ += 2;
              HOPS_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              const uint32_t cp =
                  0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
              AppendUtf8(&out, cp);
            } else if (unit >= 0xDC00 && unit <= 0xDFFF) {
              return Error("unpaired low surrogate");
            } else {
              AppendUtf8(&out, unit);
            }
            break;
          }
          default:
            return Error("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) return Error("unescaped control character in string");
      // Validate UTF-8 so stored strings are always well-formed (what comes
      // in malformed is rejected at the door, not propagated).
      uint32_t cp = 0;
      const size_t len = DecodeUtf8(text_, pos_, &cp);
      if (len == 0) return Error("invalid UTF-8 in string");
      out.append(text_.data() + pos_, len);
      pos_ += len;
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
      // sign consumed
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must stand alone
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    bool integer = true;
    if (Consume('.')) {
      integer = false;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    // A literal past the double range would parse as infinity, which no
    // JSON text can spell (JsonWriter renders it as null).
    if (std::isinf(value)) return Error("number overflows a double");
    JsonValue result(value);
    if (integer) {
      // Integer literals that survive an int64 round-trip keep exactness
      // (doubles only cover 53 bits; beyond that is_integer() is false).
      errno = 0;
      const long long as_int = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size() &&
          static_cast<double>(as_int) == value) {
        result.set_integer(true);
      }
    }
    return result;
  }

  std::string_view text_;
  const JsonParseOptions options_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text, JsonParseOptions options) {
  return JsonParser(text, options).Parse();
}

}  // namespace hops
