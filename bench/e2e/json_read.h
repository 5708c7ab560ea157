#ifndef MSQL_BENCH_E2E_JSON_READ_H_
#define MSQL_BENCH_E2E_JSON_READ_H_

// A small JSON reader for the files msqlbench itself reads: BENCHMARK.json
// and the result line each child process prints. Numbers are doubles;
// string escapes beyond \" \\ \/ \n \t are kept as written.

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace msql::e2e {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  // Member `key` of an object, or nullptr.
  const Json* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  // Parses `text`; false (with *out unspecified) on malformed input.
  static bool Parse(const std::string& text, Json* out) {
    JsonReader r(text);
    if (!r.Value(out)) return false;
    r.SkipSpace();
    return r.pos_ == text.size();
  }

 private:
  explicit JsonReader(const std::string& text) : s_(text) {}

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c != '"' && c != '\\' && c != '/' && c != '\n' && c != '\t') {
          out->push_back('\\');
        }
      }
      out->push_back(c);
    }
    return Eat('"');
  }
  bool Value(Json* out) {
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->kind = Json::Kind::kObject;
      ++pos_;
      if (Eat('}')) return true;
      do {
        std::string key;
        if (!String(&key) || !Eat(':') || !Value(&out->object[key])) {
          return false;
        }
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      out->kind = Json::Kind::kArray;
      ++pos_;
      if (Eat(']')) return true;
      do {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->kind = Json::Kind::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace msql::e2e

#endif  // MSQL_BENCH_E2E_JSON_READ_H_
