#include "core/json.h"

#include <cctype>
#include <cstdlib>

namespace diknn {

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& reason) {
    if (error_ != nullptr) {
      *error_ = reason + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Containers recurse; bound the depth so hostile input fails
        // cleanly instead of exhausting the stack.
        if (depth_ == kMaxDepth) return Fail("nesting too deep");
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false", 5);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null", 4);
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by this repo's emitters; pass them through raw).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return Fail("expected a value");
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  // Far beyond anything this repo writes (its artifacts nest < 10 deep).
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> JsonValue::Parse(const std::string& text,
                                          std::string* error) {
  JsonValue out;
  Parser parser(text, error);
  if (!parser.ParseDocument(&out)) return std::nullopt;
  return out;
}

}  // namespace diknn
